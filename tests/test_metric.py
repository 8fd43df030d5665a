import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from ptcontour.catalog import (ADJACENT, LOWER_PT, LOWER_PT_B5, SQRT_IX,
                               STANDARD_FIVE, UPPER_PT)
from ptcontour.errors import NonHermitianRho, NonIntegrable, NotHermitizable
from ptcontour.metric import (MetricSpec, TaggedWaveFn, amplitude,
                              amplitude_matrix, default_momentum_grid,
                              eigenbasis, exact_hermite_norm, hermite_demo,
                              hermite_values, metric_of, simpson_weights)
from ptcontour.opalg import ContourParams, dyson_coefficients
from ptcontour.rational import GaussianRational as Q
from ptcontour.spectral import Grid
from ptcontour.wkb import compare_to_numeric, eval_wkb


# --- metric coefficients -------------------------------------------------------

def test_metric_reference_contour():
    spec = metric_of(LOWER_PT)
    assert spec.kappa3 == Fraction(1, 48)
    assert spec.kappa1 == Fraction(-2)


def test_metric_upper_contour():
    spec = metric_of(UPPER_PT)
    assert spec.kappa3 == Fraction(4, 3)
    assert spec.kappa1 == Fraction(-2)


def test_metric_sqrt_ix():
    spec = metric_of(SQRT_IX)
    assert spec.kappa3 == Fraction(-4, 3)
    assert spec.kappa1 == Fraction(0)


def test_metric_b5():
    spec = metric_of(LOWER_PT_B5)
    assert spec.kappa3 == Fraction(1, 48)
    assert spec.kappa1 == Fraction(-10)


def test_metric_is_square_of_generator():
    for params in STANDARD_FIVE:
        f, g = dyson_coefficients(params)
        spec = metric_of(params)
        assert spec.kappa3 == 2 * f
        assert spec.kappa1 == 2 * g


def test_metric_propagates_validity_errors():
    with pytest.raises(NotHermitizable):
        metric_of(ContourParams(Q(1), Q(1), Q(0, 1)))
    with pytest.raises(NonHermitianRho):
        metric_of(ContourParams(Q(0, -2), Q(0, 1), Q(1)))


# --- quadrature -----------------------------------------------------------------

def test_simpson_exact_for_cubics():
    x = np.linspace(0.0, 1.0, 21)
    w = simpson_weights(21, x[1] - x[0])
    assert abs(np.sum(w * x ** 3) - 0.25) < 1e-15


def test_simpson_rejects_even_count():
    with pytest.raises(ValueError):
        simpson_weights(20, 0.1)


# --- eigenbasis ----------------------------------------------------------------------

def test_eigenbasis_exponent_reference():
    basis = eigenbasis(LOWER_PT, 3, default_momentum_grid(LOWER_PT))
    assert len(basis) == 3
    for u in basis:
        # -(f p^3 + g p) with f = 1/96, g = -1
        assert u.exponent == (Fraction(0), Fraction(1), Fraction(0),
                              Fraction(-1, 96))


def test_eigenbasis_exponent_adjacent():
    u = eigenbasis(ADJACENT, 1, default_momentum_grid(ADJACENT))[0]
    assert u.exponent == (Fraction(0), Fraction(1), Fraction(0),
                          Fraction(2, 3))


def test_eigenbasis_factor_norms():
    for params in (LOWER_PT, UPPER_PT, ADJACENT):
        for u in eigenbasis(params, 3, default_momentum_grid(params)):
            w = simpson_weights(u.grid.n, u.grid.spacing)
            norm = float(np.sum(w * np.abs(u.factor) ** 2))
            assert abs(norm - 1.0) < 1e-10


def test_eigenbasis_phase_convention():
    for u in eigenbasis(LOWER_PT, 3, default_momentum_grid(LOWER_PT)):
        peak = u.factor[int(np.argmax(np.abs(u.factor)))]
        assert peak.real > 0 and abs(peak.imag) == 0


def test_eigenbasis_requires_momentum_grid():
    with pytest.raises(ValueError):
        eigenbasis(LOWER_PT, 2, Grid("position", -8.0, 8.0, 101))


# --- amplitudes -------------------------------------------------------------------

def test_amplitude_normalization():
    basis = eigenbasis(LOWER_PT, 2, default_momentum_grid(LOWER_PT))
    eta = metric_of(LOWER_PT)
    assert abs(amplitude(basis[0], basis[0], eta) - 1.0) < 1e-12


def test_amplitude_orthogonality():
    basis = eigenbasis(LOWER_PT, 2, default_momentum_grid(LOWER_PT))
    eta = metric_of(LOWER_PT)
    assert abs(amplitude(basis[0], basis[1], eta)) < 1e-8


def test_amplitude_matrix_identity_for_every_contour():
    for params in STANDARD_FIVE:
        basis = eigenbasis(params, 4, default_momentum_grid(params))
        mat = amplitude_matrix(basis, metric_of(params))
        assert np.abs(mat - np.eye(4)).max() < 1e-8


def pairwise_amplitudes(basis, eta):
    """Reference: one :func:`amplitude` call per pair."""
    k = len(basis)
    out = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i, j] = amplitude(basis[i], basis[j], eta)
    return out


def test_amplitude_matrix_is_one_product_over_matched_bases(monkeypatch):
    # every eigenbasis and its pushforward onto each catalog contour takes
    # the product F^H diag(w) F, summed as the pair-by-pair loop sums: the
    # same bits
    import ptcontour.metric as metric
    from ptcontour.isomap import map_params, push_wavefn
    cases = []
    for src in STANDARD_FIVE:
        basis = eigenbasis(src, 4, default_momentum_grid(src))
        cases.append((basis, metric_of(src)))
        cases += [([push_wavefn(map_params(src, dst), u) for u in basis],
                   metric_of(dst)) for dst in STANDARD_FIVE]
    want = [pairwise_amplitudes(basis, eta) for basis, eta in cases]
    monkeypatch.setattr(metric, "amplitude",
                        lambda *a: pytest.fail("pair-by-pair path taken"))
    for (basis, eta), ref in zip(cases, want):
        assert np.array_equal(amplitude_matrix(basis, eta), ref)


def test_amplitude_matrix_of_mixed_grids_raises():
    a = eigenbasis(LOWER_PT, 1, default_momentum_grid(LOWER_PT))[0]
    b = eigenbasis(UPPER_PT, 1, default_momentum_grid(UPPER_PT))[0]
    with pytest.raises(ValueError, match="one grid"):
        amplitude_matrix([a, b], metric_of(LOWER_PT))


def test_amplitude_matrix_divergent_pairing_raises(wide_adjacent_basis):
    with pytest.raises(NonIntegrable):
        amplitude_matrix(wide_adjacent_basis, metric_of(LOWER_PT))


def test_amplitude_conjugate_symmetry():
    basis = eigenbasis(UPPER_PT, 3, default_momentum_grid(UPPER_PT))
    eta = metric_of(UPPER_PT)
    for i in range(3):
        for j in range(3):
            a_ij = amplitude(basis[i], basis[j], eta)
            a_ji = amplitude(basis[j], basis[i], eta)
            assert abs(a_ij - np.conj(a_ji)) < 1e-12


def test_amplitude_exponent_cancellation_is_exact():
    # matched contour/metric pairs reduce to the combined exponent (0,0,0,0)
    from ptcontour.metric import _combined_exponent
    for params in STANDARD_FIVE:
        u = eigenbasis(params, 1, default_momentum_grid(params))[0]
        combined = _combined_exponent(u, u, metric_of(params))
        assert all(c == 0 for c in combined)


def test_amplitude_divergent_pairing_raises(wide_adjacent_basis):
    u = wide_adjacent_basis[0]
    with pytest.raises(NonIntegrable):
        amplitude(u, u, metric_of(LOWER_PT))    # 65/48 p^3 at p=30: huge


@pytest.mark.parametrize("lo, hi", [(-10.5, 17.3), (-10.5, 10.5)])
def test_amplitude_interior_peak_raises(lo, hi):
    # combined exponent p^3 - 300p peaks at +2000 at p = -10, inside the grid;
    # on [-10.5, 17.3] no end overflows, on [-10.5, 10.5] the right end decays
    grid = Grid("momentum", lo, hi, 1391)
    u = TaggedWaveFn(grid=grid, factor=np.ones(grid.n),
                     exponent=(Fraction(0), Fraction(-150), Fraction(0),
                               Fraction(1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonIntegrable, match=r"peaks at 2e\+03 at p = -10"):
            amplitude(u, u, MetricSpec(kappa3=Fraction(0), kappa1=Fraction(0)))


def test_amplitude_nonzero_exponent_small_case(wide_adjacent_basis):
    # adjacent wavefunctions against the sqrt_ix metric: combined exponent
    # is 2p, integrable on this grid; cross-check the quadrature rule
    u = wide_adjacent_basis[0]
    val = amplitude(u, u, metric_of(SQRT_IX))
    assert np.isfinite(val.real) and abs(val.imag) < 1e-12
    pts = u.grid.points()
    trapz = float(np.trapezoid(np.abs(u.factor) ** 2 * np.exp(2 * pts), pts))
    assert abs(val.real - trapz) / trapz < 1e-3


def test_amplitude_requires_shared_grid():
    a = eigenbasis(LOWER_PT, 1, default_momentum_grid(LOWER_PT))[0]
    b = eigenbasis(UPPER_PT, 1, default_momentum_grid(UPPER_PT))[0]
    with pytest.raises(ValueError):
        amplitude(a, b, metric_of(LOWER_PT))


# --- blow-up kept finite ------------------------------------------------------------

def test_adjacent_contour_blows_up_raw(wide_adjacent_basis):
    # the grid eigenvector is noise beyond |p| ~ 3.4, so the magnitude at the
    # grid top comes from the leading-order profile, and the numeric
    # log|psi~| is only asked to rise where its factor is resolved
    top = wide_adjacent_basis[0].grid.hi
    assert eval_wkb("adjacent", top) / math.log(10.0) > 10.0
    plus = compare_to_numeric("adjacent", ADJACENT)[1]
    assert plus.side == 1 and plus.numeric_full_slope > 0


def test_adjacent_contour_amplitudes_stay_finite(wide_adjacent_basis):
    mat = amplitude_matrix(wide_adjacent_basis, metric_of(ADJACENT))
    assert np.abs(mat).max() <= 1.0 + 1e-8


def test_tagged_wavefn_log_abs_handles_zeros():
    grid = Grid("momentum", -1.0, 1.0, 17)
    factor = np.zeros(17)
    factor[8] = 1.0
    u = TaggedWaveFn(grid=grid, factor=factor,
                     exponent=(Fraction(0),) * 4)
    la = u.log_abs()
    assert la[8] == 0.0
    assert np.all(np.isneginf(la[:8]))


# --- weight-function analogy ----------------------------------------------------------

def test_hermite_t00_gaussian_integral():
    table = hermite_demo(0).table
    assert abs(table[0, 0] - math.sqrt(math.pi)) < 1e-8


def test_hermite_t01_odd_integrand():
    table = hermite_demo(1).table
    assert abs(table[0, 1]) < 1e-12


def test_hermite_orthogonality_against_closed_form():
    table = hermite_demo(5).table
    for n in range(6):
        for m in range(6):
            expected = exact_hermite_norm(n) if n == m else 0.0
            scale = exact_hermite_norm(max(n, m))
            assert abs(table[n, m] - expected) / scale < 1e-8


def test_hermite_demo_limits():
    hermite_demo(8)
    with pytest.raises(ValueError):
        hermite_demo(9)


def test_hermite_recurrence_values():
    x = np.array([0.0, 1.0, 2.0])
    hv = hermite_values(3, x)
    assert np.allclose(hv[2], 4 * x ** 2 - 2)
    assert np.allclose(hv[3], 8 * x ** 3 - 12 * x)


def test_hermite_demo_plot_samples():
    table = hermite_demo(3)
    assert table.plot_values.shape[0] == 4
    assert len(table.plot_x) == table.plot_values.shape[1]
