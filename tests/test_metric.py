import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from ptcontour.catalog import (ADJACENT, LOWER_PT, LOWER_PT_B5, SQRT_IX,
                               STANDARD_FIVE, UPPER_PT)
from ptcontour.errors import (NonHermitianRho, NonIntegrable, NotHermitizable,
                              ValidationError)
from ptcontour.metric import (MetricSpec, TaggedWaveFn, amplitude,
                              default_momentum_grid, eigenbasis,
                              exact_hermite_norm, hermite_demo,
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

#: the unit grid [-4, 4]: every contour's basis lives on it, scaled by a^2 c
UNIT = default_momentum_grid(SQRT_IX)


def row(basis, i):
    """The one-row basis holding function i of ``basis``."""
    return replace(basis, factor=basis.factor[i:i + 1])


def test_eigenbasis_exponent_reference():
    grid = UNIT
    basis = eigenbasis(LOWER_PT, 3, grid)
    assert basis.factor.shape == (3, grid.n)
    assert basis.factor.flags.c_contiguous
    # -(f p^3 + g p) with f = 1/96, g = -1
    assert basis.exponent == (Fraction(0), Fraction(1), Fraction(0),
                              Fraction(-1, 96))


def test_eigenbasis_exponent_adjacent():
    u = eigenbasis(ADJACENT, 1, UNIT)
    assert u.exponent == (Fraction(0), Fraction(1), Fraction(0),
                          Fraction(2, 3))


def test_eigenbasis_factor_norms():
    for params in (LOWER_PT, UPPER_PT, ADJACENT):
        u = eigenbasis(params, 3, UNIT)
        w = simpson_weights(u.grid.n, u.grid.spacing)
        for f in u.factor:
            norm = float(np.sum(w * np.abs(f) ** 2))
            assert abs(norm - 1.0) < 1e-10


def test_eigenbasis_phase_convention():
    for f in eigenbasis(LOWER_PT, 3, UNIT).factor:
        peak = f[int(np.argmax(np.abs(f)))]
        assert peak.real > 0 and abs(peak.imag) == 0


def test_eigenbasis_lives_on_the_grid_it_is_given():
    # the grid is in grid units: a sample's momentum is a^2 c = -4 times it
    grid = Grid("momentum", -3.0, 5.0, 401)
    basis = eigenbasis(LOWER_PT, 3, grid)
    assert basis.grid == grid and basis.scale == -4
    assert np.array_equal(basis.points(), -4.0 * grid.points())


@pytest.mark.parametrize("carrier", ["a", "c"])
@pytest.mark.parametrize("e", [400, -400])
def test_eigenbasis_of_a2c_beyond_the_floats(e, carrier):
    # a^2 c = 10^e on a (a = 10^(e/2)) or on c: the basis is the unit one
    # with that exact scale, its amplitudes under its own metric are the
    # unit contour's bit for bit, and only its momenta leave the floats
    a2c = Fraction(10) ** e
    params = (ContourParams(Q(Fraction(10) ** (e // 2)), Q(1), Q(1))
              if carrier == "a" else ContourParams(Q(1), Q(1), Q(a2c)))
    basis = eigenbasis(params, 4, UNIT)
    unit = eigenbasis(SQRT_IX, 4, UNIT)
    assert basis.scale == a2c and basis.grid == UNIT
    assert (amplitude(basis, basis, metric_of(params)).tobytes()
            == amplitude(unit, unit, metric_of(SQRT_IX)).tobytes())
    with pytest.raises(ValidationError) as info:
        basis.points()
    assert str(info.value) == f"scale {a2c} puts the momenta beyond the floats"


@pytest.mark.parametrize("e", [200, 400])
def test_values_beyond_the_floats_are_typed_errors(e):
    # exponent p^3 on a basis of scale 10^e: its grid-unit coefficient
    # 10^(3e) leaves the floats; at 10^400 the momenta leave them too
    scale = Fraction(10) ** e
    grid = Grid("momentum", -1.0, 1.0, 17)
    u = TaggedWaveFn(grid=grid, factor=np.ones((1, grid.n)), scale=scale,
                     exponent=(Fraction(0),) * 3 + (Fraction(1),))
    zero = MetricSpec(kappa3=Fraction(0), kappa1=Fraction(0))
    calls = [(u.exponent_values, scale ** 3), (u.log_abs, scale ** 3),
             (lambda: amplitude(u, u, zero), 2 * scale ** 3)]
    for call, coefficient in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == (f"exponent coefficient {coefficient} of "
                                   f"q^3 is beyond the floats")
    if e == 200:
        assert np.array_equal(u.points(), float(scale) * grid.points())
    else:
        with pytest.raises(ValidationError) as info:
            u.points()
        assert str(info.value) == (f"scale {scale} puts the momenta beyond "
                                   f"the floats")


def test_momenta_that_overflow_on_the_grid_are_typed_errors():
    # the scale 10^307 is a float, but 100 times it is not
    grid = Grid("momentum", -100.0, 100.0, 17)
    u = TaggedWaveFn(grid=grid, factor=np.ones((1, grid.n)),
                     scale=Fraction(10) ** 307, exponent=(Fraction(0),) * 4)
    with pytest.raises(ValidationError, match="momenta beyond the floats"):
        u.points()


def test_eigenbasis_requires_momentum_grid():
    with pytest.raises(ValueError):
        eigenbasis(LOWER_PT, 2, Grid("position", -8.0, 8.0, 101))


@pytest.mark.parametrize("shape", [(17,), (1, 16), (2, 18), (1, 1, 17)])
def test_tagged_wavefn_rejects_factor_off_the_grid(shape):
    # one (k, grid.n) array: rows of one grid, one exponent
    with pytest.raises(ValueError, match=r"shape \(k, 17\)"):
        TaggedWaveFn(grid=Grid("momentum", -1.0, 1.0, 17),
                     factor=np.ones(shape), exponent=(Fraction(0),) * 4)


# --- amplitudes -------------------------------------------------------------------

def test_amplitude_normalization():
    basis = eigenbasis(LOWER_PT, 2, UNIT)
    eta = metric_of(LOWER_PT)
    assert abs(amplitude(basis, basis, eta)[0, 0] - 1.0) < 1e-12


def test_amplitude_orthogonality():
    basis = eigenbasis(LOWER_PT, 2, UNIT)
    eta = metric_of(LOWER_PT)
    assert abs(amplitude(basis, basis, eta)[0, 1]) < 1e-8


def test_amplitude_matrix_identity_for_every_contour():
    for params in STANDARD_FIVE:
        basis = eigenbasis(params, 4, UNIT)
        mat = amplitude(basis, basis, metric_of(params))
        assert mat.dtype == complex
        assert np.abs(mat - np.eye(4)).max() < 1e-8


def pairwise_amplitudes(basis, eta):
    """Reference: one :func:`amplitude` call per pair of one-row bases."""
    k = len(basis.factor)
    out = np.zeros((k, k), dtype=complex)
    for i in range(k):
        for j in range(k):
            out[i, j] = amplitude(row(basis, i), row(basis, j), eta)[0, 0]
    return out


def test_amplitude_matrix_is_one_product_over_matched_bases():
    # every eigenbasis and its pushforward onto each catalog contour takes
    # the product F^H diag(w) F, summed as the pair-by-pair loop sums: the
    # same bits
    from ptcontour.isomap import map_params, push_wavefn
    cases = []
    for src in STANDARD_FIVE:
        basis = eigenbasis(src, 4, UNIT)
        cases.append((basis, metric_of(src)))
        cases += [(push_wavefn(map_params(src, dst), basis), metric_of(dst))
                  for dst in STANDARD_FIVE]
    for basis, eta in cases:
        assert np.array_equal(amplitude(basis, basis, eta),
                              pairwise_amplitudes(basis, eta))


def broadcast_amplitudes(u, v, eta):
    """Reference: the whole (k, m, n) product of the factors, weighted and
    summed over its last axis."""
    from ptcontour.metric import _combined_exponent, _poly_eval
    w = simpson_weights(u.grid.n, u.grid.spacing)
    combined = _combined_exponent(u, v, eta)
    if any(combined):
        w = w * np.exp(_poly_eval(combined, u.grid.points(), u.scale))
    return (w * (np.conj(u.factor)[:, None] * v.factor)).sum(-1).astype(complex)


def random_exponent(rng):
    return tuple(Fraction(int(rng.integers(-3, 4)), int(rng.integers(1, 9)))
                 for _ in range(4))


def test_amplitude_rows_match_the_broadcast_product_bitwise():
    # summed one bra row at a time, each entry keeps its own products and its
    # own pairwise sum, so the bits are those of the whole (k, m, n) product;
    # complex factors, k != m and a nonzero combined exponent below the
    # overflow sentinel
    from ptcontour.metric import _EXP_OVERFLOW, _combined_exponent, _poly_eval
    rng = np.random.default_rng(20121101)
    for _ in range(50):
        grid = Grid("momentum", -rng.uniform(1.0, 4.0), rng.uniform(1.0, 4.0),
                    2 * int(rng.integers(8, 800)) + 1)
        k, m = (int(x) for x in rng.choice(np.arange(1, 13), 2, replace=False))
        while True:
            bases = [TaggedWaveFn(grid=grid, exponent=random_exponent(rng),
                                  factor=rng.standard_normal((rows, grid.n))
                                  + 1j * rng.standard_normal((rows, grid.n)))
                     for rows in (k, m)]
            eta = MetricSpec(*random_exponent(rng)[::3])
            combined = _combined_exponent(*bases, eta)
            if (any(combined) and _poly_eval(combined, grid.points(),
                                             Fraction(1)).max()
                    < _EXP_OVERFLOW):
                break
        mat = amplitude(*bases, eta)
        assert mat.shape == (k, m) and mat.dtype == complex
        assert mat.tobytes() == broadcast_amplitudes(*bases, eta).tobytes()


def test_amplitude_temporaries_are_one_bra_row():
    # k = 12 levels on 4001 points: the temporaries of one row, not the
    # (k, k, n) product (8.9 MB when it was formed whole)
    import tracemalloc
    grid = default_momentum_grid(SQRT_IX, n=4001)
    basis = eigenbasis(LOWER_PT, 12, grid)
    eta = metric_of(LOWER_PT)
    tracemalloc.start()
    try:
        amplitude(basis, basis, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 12 * grid.n * 8


def test_amplitude_matrix_of_mixed_grids_raises():
    a = eigenbasis(LOWER_PT, 1, UNIT)
    b = eigenbasis(UPPER_PT, 2, UNIT)
    with pytest.raises(ValueError, match="one grid"):
        amplitude(a, b, metric_of(LOWER_PT))


def test_amplitude_of_two_bases_is_k_by_m():
    grid = UNIT
    basis = eigenbasis(LOWER_PT, 3, grid)
    eta = metric_of(LOWER_PT)
    mat = amplitude(row(basis, 1), basis, eta)
    assert mat.shape == (1, 3)
    assert np.array_equal(mat, amplitude(basis, basis, eta)[1:2])


def test_amplitude_matrix_divergent_pairing_raises(wide_adjacent_basis):
    with pytest.raises(NonIntegrable):
        amplitude(wide_adjacent_basis, wide_adjacent_basis, metric_of(LOWER_PT))


def log_magnitude_amplitudes(basis, eta):
    """Reference: each pair's cross product re-weighted by its combined
    exponent in log-magnitude form, with zero-magnitude samples masked."""
    from ptcontour.metric import _combined_exponent, _poly_eval
    e = _poly_eval(_combined_exponent(basis, basis, eta), basis.points(),
                   Fraction(1))
    w = simpson_weights(basis.grid.n, basis.grid.spacing)
    k = len(basis.factor)
    out = np.zeros((k, k), dtype=complex)
    for i, fu in enumerate(basis.factor):
        for j, fv in enumerate(basis.factor):
            cross = np.conj(fu) * fv
            mag = np.abs(cross)
            vals = np.zeros_like(cross)
            nz = mag > 0
            vals[nz] = (cross[nz] / mag[nz]) * np.exp(np.log(mag[nz]) + e[nz])
            out[i, j] = np.sum(w * vals)
    return out


def test_noncancelling_amplitudes_match_log_magnitude_form(wide_adjacent_basis):
    # the combined exponent is 2p against the sqrt_ix metric, and -2 f p^3
    # against a catalog basis's metric stripped of its cubic term
    cases = [(wide_adjacent_basis, metric_of(SQRT_IX))]
    for params in STANDARD_FIVE:
        eta = MetricSpec(kappa3=Fraction(0), kappa1=metric_of(params).kappa1)
        cases.append((eigenbasis(params, 4, UNIT), eta))
    for basis, eta in cases:
        ref = log_magnitude_amplitudes(basis, eta)
        mat = amplitude(basis, basis, eta)
        assert np.abs(mat - ref).max() <= 1e-14 * np.abs(ref).max()
        assert mat[0, 1] == amplitude(row(basis, 0), row(basis, 1), eta)[0, 0]


def test_amplitude_conjugate_symmetry():
    basis = eigenbasis(UPPER_PT, 3, UNIT)
    mat = amplitude(basis, basis, metric_of(UPPER_PT))
    assert np.abs(mat - mat.conj().T).max() < 1e-12


def test_amplitude_exponent_cancellation_is_exact():
    # matched contour/metric pairs reduce to the combined exponent (0,0,0,0)
    from ptcontour.metric import _combined_exponent
    for params in STANDARD_FIVE:
        u = eigenbasis(params, 1, UNIT)
        combined = _combined_exponent(u, u, metric_of(params))
        assert all(c == 0 for c in combined)


def test_amplitude_divergent_pairing_raises(wide_adjacent_basis):
    u = row(wide_adjacent_basis, 0)
    with pytest.raises(NonIntegrable):
        amplitude(u, u, metric_of(LOWER_PT))    # 65/48 p^3 at p=30: huge


@pytest.mark.parametrize("lo, hi", [(-10.5, 17.3), (-10.5, 10.5)])
def test_amplitude_interior_peak_raises(lo, hi):
    # combined exponent p^3 - 300p peaks at +2000 at p = -10, inside the grid;
    # on [-10.5, 17.3] no end overflows, on [-10.5, 10.5] the right end decays
    grid = Grid("momentum", lo, hi, 1391)
    u = TaggedWaveFn(grid=grid, factor=np.ones((1, grid.n)),
                     exponent=(Fraction(0), Fraction(-150), Fraction(0),
                               Fraction(1, 2)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonIntegrable, match=r"peaks at 2e\+03 at p = -10"):
            amplitude(u, u, MetricSpec(kappa3=Fraction(0), kappa1=Fraction(0)))


def test_amplitude_nonzero_exponent_small_case(wide_adjacent_basis):
    # adjacent wavefunctions against the sqrt_ix metric: combined exponent
    # is 2p, integrable on this grid; cross-check the quadrature rule
    u = row(wide_adjacent_basis, 0)
    val = amplitude(u, u, metric_of(SQRT_IX))[0, 0]
    assert np.isfinite(val.real) and abs(val.imag) < 1e-12
    pts = u.grid.points()
    trapz = float(np.trapezoid(np.abs(u.factor[0]) ** 2 * np.exp(2 * pts),
                               pts))
    assert abs(val.real - trapz) / trapz < 1e-3


def test_amplitude_requires_shared_grid():
    a = eigenbasis(LOWER_PT, 1, UNIT)
    b = eigenbasis(UPPER_PT, 1, UNIT)
    with pytest.raises(ValueError):
        amplitude(a, b, metric_of(LOWER_PT))


# --- blow-up kept finite ------------------------------------------------------------

def test_adjacent_contour_blows_up_raw(wide_adjacent_basis):
    # the grid eigenvector is noise beyond |p| ~ 3.4, so the magnitude at the
    # grid top comes from the leading-order profile, and the numeric
    # log|psi~| is only asked to rise where its factor is resolved
    top = wide_adjacent_basis.grid.hi
    assert eval_wkb("adjacent", top) / math.log(10.0) > 10.0
    plus = compare_to_numeric("adjacent")[1]
    assert plus.side == 1 and plus.numeric_full_slope > 0


def test_adjacent_contour_amplitudes_stay_finite(wide_adjacent_basis):
    mat = amplitude(wide_adjacent_basis, wide_adjacent_basis,
                    metric_of(ADJACENT))
    assert np.abs(mat).max() <= 1.0 + 1e-8


def test_tagged_wavefn_log_abs_handles_zeros():
    grid = Grid("momentum", -1.0, 1.0, 17)
    factor = np.zeros((1, 17))
    factor[0, 8] = 1.0
    u = TaggedWaveFn(grid=grid, factor=factor,
                     exponent=(Fraction(0),) * 4)
    la = u.log_abs()
    assert la.shape == (1, 17)
    assert la[0, 8] == 0.0
    assert np.all(np.isneginf(la[0, :8]))


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
