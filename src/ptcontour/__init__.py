"""Complex contours, metric operators and isomorphic Hilbert spaces for the
PT-symmetric wrong-sign quartic oscillator.

The package verifies, exactly where possible and numerically elsewhere, that
every admissible contour ``z(x) = a*sqrt(b + i c x)`` applied to
``p^2 - x^4`` leads to one and the same Hermitian operator, that the metric
weight depends on the contour, and that the resulting Hilbert spaces are
connected by explicit norm-preserving maps -- including contours whose
wavefunctions blow up at one end.

Each public name is imported from its module at first use (PEP 562), so
``import ptcontour`` loads none of them, and the exact algebra no numpy.
"""
from importlib import import_module

__version__ = "0.1.0"

#: the public names of each module, the numpy-free exact core first
_EXPORTS = {
    "rational": "GaussianRational", "reference": "REFERENCE_LEVELS",
    "opalg": "ANCHOR Branch ContourParams IsoMap MetricSpec OperatorExpr "
             "adjoint bch_conjugate build_h1 canonical_swap commutator "
             "dyson_coefficients hermitian_form hermitize is_hermitian "
             "map_params metric_of multiply push_metric",
    "catalog": "ADJACENT LOWER_PT LOWER_PT_B5 SQRT_IX STANDARD_FIVE TAGS "
               "TAG_PARAMS UPPER_PT",
    "contour": "WedgeReport endpoint_angles is_pt_symmetric polyline sample "
               "wedge_report",
    "spectral": "Grid SpectrumResult eigensolve_general eigensolve_hermitian "
                "matrixize oracle_spectrum position_grid",
    "metric": "TaggedWaveFn amplitude default_momentum_grid eigenbasis "
              "exact_hermite_norm hermite_demo simpson_weights",
    "isomap": "IsometryReport push_wavefn verify_isometry",
    "wkb": "compare_to_numeric eval_wkb in_domain metric_weighted_wkb",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names.split()}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # not cached: a name rebound in its module, then restored, is never stale
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *__all__})
