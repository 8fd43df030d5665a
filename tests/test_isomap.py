from fractions import Fraction
from itertools import permutations, product

import numpy as np
import pytest

from ptcontour.catalog import (ADJACENT, LOWER_PT, LOWER_PT_B5, SQRT_IX,
                               STANDARD_FIVE, UPPER_PT)
from ptcontour.errors import PushforwardMismatch
from ptcontour.isomap import (IsoMap, map_params, push_metric, push_wavefn,
                              verify_isometry)
from ptcontour.metric import (TaggedWaveFn, amplitude, default_momentum_grid,
                              eigenbasis, metric_of, simpson_weights)
from ptcontour.opalg import (UNIT_FORM, dyson_coefficients, hermitian_form,
                             hermitize)
from ptcontour.rational import GaussianRational as Q, I
from ptcontour.reference import REFERENCE_LEVELS
from ptcontour.spectral import _STENCILS, eigensolve_hermitian, matrixize
from test_random_contours import random_contours


# --- map parameters ---------------------------------------------------------

def test_map_upper_to_reference():
    m = map_params(UPPER_PT, LOWER_PT)
    assert m.beta == Q(4)
    assert m.gamma == Q(Fraction(3, 4))


def test_map_adjacent_to_reference():
    m = map_params(ADJACENT, LOWER_PT)
    assert m.beta == Q(-4)
    assert m.gamma == Q(Fraction(5, 4))


def test_map_identity():
    m = map_params(LOWER_PT, LOWER_PT)
    assert m.beta == Q(1)
    assert m.gamma == Q(0)


def test_map_composition():
    for z1, z2, z3 in permutations(
            (LOWER_PT, UPPER_PT, ADJACENT, SQRT_IX), 3):
        direct = map_params(z1, z3)
        chained = map_params(z1, z2).compose(map_params(z2, z3))
        assert chained.beta == direct.beta
        assert chained.gamma == direct.gamma


def test_map_params_are_exact_reals():
    for src in STANDARD_FIVE:
        for dst in STANDARD_FIVE:
            m = map_params(src, dst)
            assert type(m.beta) is Fraction and type(m.gamma) is Fraction
            twice = m.compose(map_params(dst, src))
            assert (twice.beta, twice.gamma) == (1, 0)


def test_map_rejects_zero_beta():
    with pytest.raises(ValueError, match="beta must be nonzero"):
        IsoMap(beta=Fraction(0), gamma=Fraction(0), source=UPPER_PT,
               target=LOWER_PT)


def test_compose_requires_chaining():
    with pytest.raises(ValueError):
        map_params(UPPER_PT, LOWER_PT).compose(map_params(ADJACENT, SQRT_IX))


# --- metric transport ----------------------------------------------------------

def test_push_metric_worked_equivalences():
    for src in (UPPER_PT, ADJACENT, SQRT_IX):
        pushed = push_metric(map_params(src, LOWER_PT), metric_of(src))
        assert pushed.kappa3 == Fraction(1, 48)
        assert pushed.kappa1 == Fraction(-2)


def test_push_metric_all_ordered_pairs_exact():
    count = 0
    for src in STANDARD_FIVE:
        for dst in STANDARD_FIVE:
            if src is dst:
                continue
            pushed = push_metric(map_params(src, dst), metric_of(src))
            direct = metric_of(dst)
            assert (pushed.kappa3, pushed.kappa1) == \
                   (direct.kappa3, direct.kappa1)
            count += 1
    assert count == 20


def test_push_metric_rejects_wrong_source_metric():
    m = map_params(UPPER_PT, LOWER_PT)
    with pytest.raises(ValueError):
        push_metric(m, metric_of(ADJACENT))


def test_push_metric_detects_corrupted_map():
    bad = IsoMap(beta=Fraction(2), gamma=Fraction(0), source=UPPER_PT,
                 target=LOWER_PT)
    with pytest.raises(PushforwardMismatch):
        push_metric(bad, metric_of(UPPER_PT))


def test_push_metric_functorial():
    for z1, z2, z3 in permutations((LOWER_PT, UPPER_PT, SQRT_IX), 3):
        m12, m23 = map_params(z1, z2), map_params(z2, z3)
        via = push_metric(m23, push_metric(m12, metric_of(z1)))
        direct = push_metric(m12.compose(m23), metric_of(z1))
        assert (via.kappa3, via.kappa1) == (direct.kappa3, direct.kappa1)


# --- wavefunction transport ------------------------------------------------------

def test_push_wavefn_identity():
    u = eigenbasis(LOWER_PT, 3, default_momentum_grid(LOWER_PT))
    pushed = push_wavefn(map_params(LOWER_PT, LOWER_PT), u)
    assert pushed.grid == u.grid
    assert pushed.exponent == u.exponent
    assert np.abs(pushed.factor - u.factor).max() < 1e-15


def test_push_wavefn_exponent_transport():
    # beta = 4, gamma = 3/4 carries -(2/3)p^3 + p onto -(1/96)p^3 + p exactly
    u = eigenbasis(UPPER_PT, 1, default_momentum_grid(UPPER_PT))
    assert u.exponent == (Fraction(0), Fraction(1), Fraction(0),
                          Fraction(-2, 3))
    pushed = push_wavefn(map_params(UPPER_PT, LOWER_PT), u)
    assert pushed.exponent == (Fraction(0), Fraction(1), Fraction(0),
                               Fraction(-1, 96))


def test_push_wavefn_negative_beta_parity_fold():
    u = eigenbasis(ADJACENT, 3, default_momentum_grid(ADJACENT))
    pushed = push_wavefn(map_params(ADJACENT, LOWER_PT), u)   # beta = -4
    # the samples stay as they are: the fold acts on their momenta only,
    # which are -4 times the source's, so they run from +16 down to -16
    assert pushed.factor is u.factor and pushed.grid == u.grid
    assert pushed.scale == -4 * u.scale
    assert np.array_equal(pushed.points(), -4 * u.points())
    assert pushed.points()[0] == 4 * u.grid.hi
    # exponent: (2/3)/(-64) = -1/96 on the cubic; 1/(-4) + 5/4 = 1 on p
    assert pushed.exponent == (Fraction(0), Fraction(1), Fraction(0),
                               Fraction(-1, 96))


def test_push_wavefn_norm_preserved():
    u = eigenbasis(UPPER_PT, 3, default_momentum_grid(UPPER_PT))
    m = map_params(UPPER_PT, LOWER_PT)
    pushed = push_wavefn(m, u)
    val = amplitude(pushed, pushed, metric_of(LOWER_PT))
    assert np.abs(val - np.eye(3)).max() < 1e-6


# --- isometry reports ----------------------------------------------------------------

@pytest.mark.parametrize("src", [UPPER_PT, ADJACENT, SQRT_IX])
def test_isometry_worked_pairs(src):
    rep = verify_isometry(src, LOWER_PT, k=3)
    assert rep.max_deviation < 1e-6
    assert rep.identity_deviation < 1e-6
    assert rep.passed


def test_isometry_report_fields():
    rep = verify_isometry(ADJACENT, LOWER_PT, k=2)
    assert rep.beta == Fraction(-4)
    assert rep.gamma == Fraction(5, 4)
    assert rep.amplitudes_src.shape == rep.amplitudes_dst.shape == (2, 2)


def test_spectrum_invariance_across_contours():
    # the Hermitian equivalents of every matrix contour share one spectrum
    ref = np.array(REFERENCE_LEVELS[:5])
    for params in STANDARD_FIVE:
        grid = default_momentum_grid(params)
        got = eigensolve_hermitian(matrixize(hermitize(params).h, grid),
                                   5).real_parts()
        assert (np.abs(got - ref) / ref).max() < 1e-5


# --- exact discrete transport ---------------------------------------------------

def rational_band(params, n):
    """Band of hermitian_form(params) on the momentum grid over
    [-4|lam|, 4|lam|] with exact rational points, laid out and discretized
    as matrixize does it: ``band[u + i - j][j] = A[i, j]``."""
    half = 4 * abs(params.invariants()[0])
    step = Fraction(2 * half, n - 1)
    pts = [-half + j * step for j in range(n)]
    terms = hermitian_form(params).terms
    u = max(len(_STENCILS[m][1]) // 2 for m, _ in terms)
    band = [[Q(0)] * n for _ in range(2 * u + 1)]
    for (m, k), c in terms.items():
        # (i d/dp)^m p^k scales each column by its point
        denom, weights = _STENCILS[m]
        scale = c * I ** m / (denom * step ** m)
        for off, w in enumerate(weights, start=-(len(weights) // 2)):
            for j in range(max(off, 0), n + min(off, 0)):
                band[u - off][j] += scale * w * pts[j] ** k
    return band


def test_rational_band_is_the_band_matrixize_builds():
    for params in STANDARD_FIVE:
        exact = np.array([[complex(v) for v in row]
                          for row in rational_band(params, 21)])
        got = matrixize(hermitian_form(params),
                        default_momentum_grid(params, 21))
        np.testing.assert_allclose(got, exact, rtol=1e-13,
                                   atol=1e-13 * np.abs(exact).max())


def test_discrete_transport_is_exact():
    # on grids scaled by |beta|, the target's band is the source's band,
    # mirrored when beta < 0: the two discrete eigenproblems are one problem;
    # every ordered catalog pair, and consecutive pairs of random contours
    draws = random_contours(40)
    pairs = [*product(STANDARD_FIVE, repeat=2), *zip(draws, draws[1:])]
    bands = {params: rational_band(params, 21)
             for params in {*STANDARD_FIVE, *draws}}
    for src, dst in pairs:
        pushed = bands[src]
        if map_params(src, dst).beta < 0:
            pushed = [row[::-1] for row in pushed[::-1]]
        assert bands[dst] == pushed, (src.label(), dst.label())


# --- one band for every contour --------------------------------------------------

def unit_band(n):
    return matrixize(UNIT_FORM, default_momentum_grid(SQRT_IX, n))


def own_band(params, n):
    """The band of the contour's own Hermitian equivalent on its own default
    grid, mirrored when a^2 c < 0 so that it reads in the unit momenta."""
    band = matrixize(hermitian_form(params), default_momentum_grid(params, n))
    return band if params.invariants()[0] > 0 else band[::-1, ::-1]


@pytest.mark.parametrize("n", [801, 1201])
def test_every_catalog_band_is_the_unit_band_bitwise(n):
    # a^2 c is -4, -1 or 1 on the catalog: a power-of-two dilation, which
    # the odd grid points carry exactly
    unit = unit_band(n)
    for params in STANDARD_FIVE:
        assert np.array_equal(own_band(params, n), unit), params.label()


def test_every_random_band_is_the_unit_band_to_rounding():
    # entry by entry within 1e-15 relative (measured 4.3e-16 at most; 17 of
    # these 105 bands are bitwise equal)
    unit = unit_band(801)
    for params in random_contours(100):
        assert (np.abs(own_band(params, 801) - unit)
                <= 1e-15 * np.abs(unit)).all(), params.label()


def own_basis(params, k, n):
    """The target's eigenbasis from its own band solved directly, the path
    the package took before it solved the unit band alone, read in the unit
    momenta and normalized as eigenbasis does."""
    vecs = eigensolve_hermitian(own_band(params, n), k).eigenvectors.T.real
    grid = default_momentum_grid(SQRT_IX, n)
    w = simpson_weights(n, grid.spacing)
    vecs = vecs / np.sqrt((w * vecs * vecs).sum(-1))[:, None]
    lam, _ = params.invariants()
    f, g = dyson_coefficients(params)
    return TaggedWaveFn(grid=grid, factor=vecs, scale=lam,
                        exponent=(Fraction(0), -g, Fraction(0), -f))


def test_transported_bases_are_each_targets_own_basis():
    # the paper's claim read directly: the source basis carried onto each
    # target has the amplitudes, under the target's metric, of the target's
    # own eigenbasis, up to the sign of each vector (moduli are compared)
    k, n = 4, 1201
    worst = 0.0
    for src, dst in permutations(STANDARD_FIVE, 2):
        pushed = push_wavefn(map_params(src, dst),
                             eigenbasis(src, k, default_momentum_grid(src, n)))
        c = amplitude(own_basis(dst, k, n), pushed, metric_of(dst))
        worst = max(worst, np.abs(np.abs(c) - np.eye(k)).max())
    assert worst < 1e-13        # measured 4.0e-14 on every pair
