"""Complex contours, metric operators and isomorphic Hilbert spaces for the
PT-symmetric wrong-sign quartic oscillator.

The package verifies, exactly where possible and numerically elsewhere, that
every admissible contour ``z(x) = a*sqrt(b + i c x)`` applied to
``p^2 - x^4`` leads to one and the same Hermitian operator, that the metric
weight depends on the contour, and that the resulting Hilbert spaces are
connected by explicit norm-preserving maps -- including contours whose
wavefunctions blow up at one end.
"""

from .catalog import (ADJACENT, LOWER_PT, LOWER_PT_B5, SQRT_IX, STANDARD_FIVE,
                      UPPER_PT)
from .contour import (WedgeReport, endpoint_angles, is_pt_symmetric,
                      polyline, sample, wedge_report)
from .isomap import (IsoMap, IsometryReport, map_params, push_metric,
                     push_wavefn, verify_isometry)
from .metric import (MetricSpec, TaggedWaveFn, amplitude,
                     default_momentum_grid, eigenbasis, exact_hermite_norm,
                     hermite_demo, metric_of, simpson_weights)
from .opalg import (ANCHOR, Branch, ContourParams, OperatorExpr, adjoint,
                    bch_conjugate, build_h1, canonical_swap, commutator,
                    dyson_coefficients, hermitian_form, hermitize,
                    is_hermitian, multiply, substitute_linear)
from .rational import GaussianRational
from .reference import REFERENCE_LEVELS
from .spectral import (Grid, SpectrumResult, eigensolve_general,
                       eigensolve_hermitian, matrixize, oracle_spectrum,
                       position_grid)
from .wkb import (TAG_PARAMS, TAGS, compare_to_numeric, eval_wkb, in_domain,
                  metric_weighted_wkb)

__version__ = "0.1.0"

__all__ = [
    "ADJACENT", "ANCHOR", "Branch", "ContourParams", "GaussianRational",
    "Grid", "IsoMap", "IsometryReport", "LOWER_PT", "LOWER_PT_B5",
    "MetricSpec", "OperatorExpr", "REFERENCE_LEVELS", "SQRT_IX",
    "STANDARD_FIVE", "SpectrumResult", "TAGS", "TAG_PARAMS",
    "TaggedWaveFn", "UPPER_PT", "WedgeReport", "adjoint", "amplitude",
    "bch_conjugate", "build_h1", "canonical_swap", "commutator",
    "compare_to_numeric", "default_momentum_grid", "dyson_coefficients",
    "eigenbasis", "eigensolve_general",
    "eigensolve_hermitian", "endpoint_angles", "eval_wkb",
    "exact_hermite_norm", "hermite_demo", "hermitian_form", "hermitize",
    "in_domain", "is_hermitian", "is_pt_symmetric", "map_params",
    "matrixize", "metric_of", "metric_weighted_wkb", "multiply",
    "oracle_spectrum", "polyline", "position_grid", "push_metric",
    "push_wavefn", "sample", "simpson_weights", "substitute_linear",
    "verify_isometry", "wedge_report",
]
