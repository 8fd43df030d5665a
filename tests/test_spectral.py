import ast
import dataclasses
import math
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from ptcontour.catalog import LOWER_PT, SQRT_IX, STANDARD_FIVE
from ptcontour.errors import GridTooCoarse, NotConverged, NotHermitian
from ptcontour.metric import default_momentum_grid, eigenbasis
from ptcontour.opalg import (ANCHOR, ContourParams, OperatorExpr, build_h1,
                             hermitize)
from ptcontour.rational import GaussianRational as Q
from ptcontour.reference import (REFERENCE_DOMAIN, REFERENCE_GRID_SIZES,
                                 REFERENCE_LEVELS)
from ptcontour.spectral import (_STENCILS, Grid, _band_matmul, _richardson,
                                eigensolve_hermitian, is_grid_artifact,
                                matrixize, neighbor_correlation,
                                oracle_spectrum)

OSC_MINUS_ONE = OperatorExpr({(0, 2): Q(1), (2, 0): Q(1), (0, 0): Q(-1)})
OSC = OperatorExpr({(0, 2): Q(1), (2, 0): Q(1)})
#: parity image p^2 + 4x^4 + 2x of the anchor (x -> -x)
ANCHOR_PARITY = OperatorExpr({(0, 2): Q(1), (4, 0): Q(4), (1, 0): Q(2)})


def derivative_matrix(n: int, h: float, order: int) -> np.ndarray:
    """Reference: dense 4th-order centered d^order, zero beyond the ends."""
    denom, weights = _STENCILS[order]
    d = np.zeros((n, n))
    for off, w in enumerate(weights, start=-(len(weights) // 2)):
        np.fill_diagonal(d[max(-off, 0):, max(off, 0):], w)
    return d / (denom * h ** order)


def dense_matrixize(a: OperatorExpr, grid: Grid) -> np.ndarray:
    """Reference: the operator's dense n x n matrix, one term at a time."""
    out = np.zeros((grid.n, grid.n), dtype=complex)
    pts = grid.points()
    for (m, n), c in a.terms.items():
        if grid.variable == "position":
            d = derivative_matrix(grid.n, grid.spacing, n)
            out += complex(c) * (-1j) ** n * (pts ** m)[:, None] * d
        else:
            d = derivative_matrix(grid.n, grid.spacing, m)
            out += complex(c) * 1j ** m * (pts ** n)[None, :] * d
    return out


def band_to_dense(ab: np.ndarray) -> np.ndarray:
    """Reference: the n x n matrix of a band in ``solve_banded`` layout."""
    return _band_matmul(ab, np.eye(ab.shape[1]))


def dense_eigenpairs(ab: np.ndarray, k: int):
    """Reference: the k eigenpairs of least real part of a general band, by
    dense ``eig``, as (values, ||A v - lambda v|| / ||v|| per vector v)."""
    import scipy.linalg as sla
    vals, vecs = sla.eig(band_to_dense(ab))
    order = np.argsort(vals.real, kind="stable")[:k]
    vals, vecs = vals[order], vecs[:, order]
    band = ab if ab.imag.any() else ab.real
    norms = (np.linalg.norm(_band_matmul(band, vecs) - vecs * vals, axis=0)
             / np.linalg.norm(vecs, axis=0))
    return vals, norms


def contour_spectrum(params, k=5, n=1201):
    grid = default_momentum_grid(params, n=n)
    return eigensolve_hermitian(matrixize(hermitize(params).h, grid), k,
                                grid=grid)


# --- grid -------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid("position", -1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid("position", 1.0, -1.0, 32)
    with pytest.raises(ValueError):
        Grid("angle", -1.0, 1.0, 32)
    g = Grid("momentum", -2.0, 2.0, 17)
    assert abs(g.spacing - 0.25) < 1e-15
    assert len(g.points()) == 17
    # exactly odd: the mirror image of a symmetric grid holds its floats
    pts = Grid("momentum", -4.0, 4.0, 1201).points()
    assert np.array_equal(pts, -pts[::-1]) and (pts[0], pts[-1]) == (-4, 4)


# --- matrixize ---------------------------------------------------------------

def test_matrixize_x_on_momentum_grid_is_antisymmetric_stencil():
    g = Grid("momentum", -1.0, 1.0, 33)
    mat = band_to_dense(matrixize(OperatorExpr.x(), g))
    expected = 1j * derivative_matrix(33, g.spacing, 1)
    assert np.abs(mat - expected).max() == 0.0
    assert np.abs(mat + mat.T).max() == 0.0       # antisymmetric stencil


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrix_exact_on_polynomials(order):
    # 4th-order centered stencils differentiate degree <= order + 3 exactly
    # on a position grid p^k = (-i d/dx)^k, so d^k = i^k p^k
    g = Grid("position", -2.5, 2.5, 41)
    n, z = g.n, g.points()
    d = 1j ** order * band_to_dense(
        matrixize(OperatorExpr.monomial(0, order), g))
    interior = slice(3, n - 3)
    for deg in range(order + 4):
        exact = (np.zeros(n) if deg < order else
                 math.perm(deg, order) * z ** (deg - order))
        err = np.abs(d @ z ** deg - exact)[interior].max()
        assert err < 1e-9 * max(1.0, np.abs(exact).max())


def test_matrixize_ix_is_anti_hermitian():
    g = Grid("position", -1.0, 1.0, 33)
    mat = band_to_dense(matrixize(OperatorExpr.monomial(1, 0, Q(0, 1)), g))
    assert np.abs(mat + mat.conj().T).max() < 1e-15


def test_matrixize_is_linear():
    g = Grid("position", -3.0, 3.0, 65)
    a = OperatorExpr({(1, 2): Q(1)})
    b = OperatorExpr({(0, 1): Q(1), (2, 0): Q(3)})
    lhs = matrixize(a.scale(Q(0, 2)) + b, g)
    rhs = 2j * matrixize(a, g) + matrixize(b, g)
    assert np.abs(lhs - rhs).max() < 1e-12


def test_matrixize_respects_operator_order():
    # x p and p x differ by the commutator; their matrices must differ too
    g = Grid("position", -2.0, 2.0, 33)
    xp = band_to_dense(matrixize(OperatorExpr({(1, 1): Q(1)}), g))
    px_expr = OperatorExpr({(1, 1): Q(1), (0, 0): Q(0, -1)})   # p x normal-ordered
    px = band_to_dense(matrixize(px_expr, g))
    assert np.abs(xp - px - 1j * np.eye(33)).max() < 1e-14


def test_matrixize_grid_too_coarse():
    g = Grid("position", -1.0, 1.0, 17)
    with pytest.raises(GridTooCoarse):
        matrixize(OperatorExpr.monomial(5, 0), g)


@pytest.mark.parametrize("variable,term", [("position", (0, 5)),
                                           ("momentum", (5, 0))])
def test_matrixize_rejects_derivative_without_stencil(variable, term):
    with pytest.raises(ValueError, match="no derivative stencil of order 5"):
        matrixize(OperatorExpr({term: Q(1)}), Grid(variable, -1.0, 1.0, 33))


def test_band_equals_dense_reference_exactly():
    cases = [(ANCHOR, Grid("position", -6.0, 6.0, 401)),
             (ANCHOR_PARITY, Grid("position", -6.0, 6.0, 401))]
    for p in STANDARD_FIVE:
        g = default_momentum_grid(p, n=401)
        cases += [(hermitize(p).h, g), (build_h1(p), g)]
    for op, g in cases:
        ab = matrixize(op, g)
        dense = dense_matrixize(op, g)
        assert ab.shape == (5, g.n)
        assert np.array_equal(band_to_dense(ab), dense)
        assert np.count_nonzero(ab) == np.count_nonzero(dense)


# --- hermitian eigensolve -------------------------------------------------------

def test_oscillator_spectrum_shifted():
    g = Grid("position", -10.0, 10.0, 801)
    res = eigensolve_hermitian(matrixize(OSC_MINUS_ONE, g), 5, grid=g)
    dev = np.abs(res.real_parts() - np.array([0.0, 2.0, 4.0, 6.0, 8.0])).max()
    # h^4 stencil error at this resolution sits at ~6e-6 for level 4
    assert dev < 1e-5
    assert max(res.residual_norms) < 1e-8


def test_oscillator_spectrum_refined_grid_reaches_tighter_tolerance():
    g = Grid("position", -10.0, 10.0, 1601)
    res = eigensolve_hermitian(matrixize(OSC_MINUS_ONE, g), 5, grid=g)
    dev = np.abs(res.real_parts() - np.array([0.0, 2.0, 4.0, 6.0, 8.0])).max()
    assert dev < 1e-6


def test_oscillator_odd_levels():
    g = Grid("position", -10.0, 10.0, 801)
    res = eigensolve_hermitian(matrixize(OSC, g), 6, grid=g)
    assert np.abs(res.real_parts() - np.arange(1.0, 13.0, 2.0)).max() < 2e-5
    # a constant start vector is orthogonal to the odd levels and leaves
    # residuals near 1e-5 on them; the ramp start reaches ~3e-12
    assert max(res.residual_norms[1::2]) < 1e-10


def test_oscillator_with_linear_momentum_term():
    # p^2 + p + x^2 = (p + 1/2)^2 + x^2 - 1/4: a complex Hermitian band
    g = Grid("position", -10.0, 10.0, 801)
    op = OperatorExpr({(0, 2): Q(1), (0, 1): Q(1), (2, 0): Q(1)})
    res = eigensolve_hermitian(matrixize(op, g), 4, grid=g)
    assert np.abs(res.real_parts() - (np.arange(1.0, 9.0, 2.0) - 0.25)).max() \
        < 1e-4
    assert max(res.residual_norms) < 1e-10


def test_not_hermitian_rejected():
    # xp is not Hermitian; i x^2 is symmetric but not Hermitian
    g = Grid("position", -2.0, 2.0, 33)
    for op in (OperatorExpr({(1, 1): Q(1)}), OperatorExpr({(2, 0): Q(0, 1)})):
        with pytest.raises(NotHermitian):
            eigensolve_hermitian(matrixize(op, g), 3)


def test_retained_count_capped():
    g = Grid("position", -10.0, 10.0, 201)
    with pytest.raises(ValueError):
        eigensolve_hermitian(matrixize(OSC, g), 13, grid=g)


def test_result_carries_vectors_outside_repr_and_equality():
    g = Grid("position", -10.0, 10.0, 201)
    ab = matrixize(OSC, g)
    res = eigensolve_hermitian(ab, 3, grid=g)
    vecs = res.eigenvectors
    assert vecs.shape == (201, 3)
    assert np.allclose(band_to_dense(ab) @ vecs, vecs * res.real_parts())
    assert "eigenvectors" not in repr(res)
    assert res == dataclasses.replace(res, eigenvectors=-vecs)


def test_no_retained_vector_is_grid_artifact():
    cases = [(ANCHOR, Grid("position", -6.0, 6.0, n))
             for n in (801, 1201, 1601)]
    cases += [(hermitize(p).h, default_momentum_grid(p))
              for p in STANDARD_FIVE]
    for op, g in cases:
        vecs = eigensolve_hermitian(matrixize(op, g), 8).eigenvectors
        assert not any(is_grid_artifact(vecs[:, i]) for i in range(8))


@pytest.mark.parametrize("t", [Fraction(1, 1000), Fraction(1, 10), 10, 1000])
def test_extreme_a2c_matches_reference(t):
    # |a^2 c| = t spans six decades; the 4|a^2 c| grid half-width keeps up
    res = contour_spectrum(ContourParams(a=Q(1), b=Q(t), c=Q(t)))
    rel = np.abs(res.real_parts() - np.array(REFERENCE_LEVELS[:5])) \
        / np.array(REFERENCE_LEVELS[:5])
    assert rel.max() < 1e-5


def test_artifact_filter_flags_sawtooth():
    smooth = np.exp(-np.linspace(-4, 4, 101) ** 2)
    sawtooth = smooth * (-1.0) ** np.arange(101)
    assert neighbor_correlation(smooth) > 0.9
    assert neighbor_correlation(sawtooth) < -0.9


def test_momentum_representation_matches_reference():
    res = contour_spectrum(LOWER_PT)
    rel = np.abs(res.real_parts() - np.array(REFERENCE_LEVELS[:5])) \
        / np.array(REFERENCE_LEVELS[:5])
    assert rel.max() < 1e-5
    assert max(res.residual_norms) < 1e-8
    assert res.method == "eig_banded/16+rqi"


def banded_levels(ab, k):
    """Reference: LAPACK's lowest k values of the band itself."""
    import scipy.linalg as sla
    u = ab.shape[0] // 2
    return sla.eig_banded(ab[:u + 1], eigvals_only=True, select="i",
                          select_range=(0, k - 1))


def assert_banded_levels(ab, res, k, ref=None):
    ref = banded_levels(ab, k) if ref is None else ref
    assert np.abs(res.real_parts() - ref).max() < 1e-10 * np.abs(ref).max()


@pytest.mark.parametrize("n,k", [(17, 5), (201, 12)])
def test_fine_band_seeds_when_coarse_cannot(n, k):
    # n=17 leaves the coarse band 3 columns for 6 seeds; at n=201 the
    # coarse seed of level 12 is too far off to use
    for params in STANDARD_FIVE:
        grid = default_momentum_grid(params, n=n)
        ab = matrixize(hermitize(params).h, grid)
        res = eigensolve_hermitian(ab, k, grid=grid)
        assert res.method == "eig_banded+rqi"
        assert_banded_levels(ab, res, k)


@pytest.mark.parametrize("op,n", [
    # eigenvectors of a multiplication operator are single grid points
    (OperatorExpr({(2, 0): Q(1), (1, 0): Q(Fraction(1, 10))}), 801),
    # levels of width 0.02, below every coarse spacing (0.12 at ratio 4)
    (OperatorExpr({(0, 2): Q(Fraction(1, 10 ** 7)), (2, 0): Q(1),
                   (1, 0): Q(Fraction(1, 10))}), 401),
    # a band eightfold coarser than 27 points (or coarser still) holds no 6
    # levels
    (ANCHOR, 27),
], ids=["x^2+x/10", "1e-7p^2+x^2+x/10", "anchor-n27"])
def test_unresolved_levels_are_not_coarse_seeded(op, n):
    # every coarsened band misses or misplaces levels of the full band here
    ab = matrixize(op, Grid("position", -6.0, 6.0, n))
    res = eigensolve_hermitian(ab, 5)
    assert res.method == "eig_banded+rqi"
    assert_banded_levels(ab, res, 5)


def test_coarse_band_equals_coarse_grid_matrix():
    from ptcontour.spectral import _coarsened
    cases = [(ANCHOR, Grid("position", -6.0, 6.0, 801)),
             (OSC, Grid("position", -10.0, 10.0, 201)),
             (OperatorExpr({(0, 2): Q(1), (0, 1): Q(1), (2, 0): Q(1)}),
              Grid("position", -10.0, 10.0, 401))]
    cases += [(hermitize(p).h, default_momentum_grid(p, n=1601))
              for p in STANDARD_FIVE]
    for op, g in cases:
        ab = matrixize(op, g)
        coarse = _coarsened(ab, 4, 5)
        u, m = ab.shape[0] // 2, (g.n - 1) // 4 + 1
        want = matrixize(op, Grid(g.variable, g.lo, g.hi, m))[:, 1:-1]
        # the upper triangle, the part eig_banded reads, inside the matrix
        for r in range(u + 1):
            err = np.abs(coarse[r, u - r:] - want[r, u - r:]).max()
            assert err < 1e-13 * np.abs(ab).max()


def test_band_of_no_stencil_sums_is_not_coarsened():
    # a tridiagonal band is not a sum of the stencils of half-width <= 1
    import ptcontour.spectral as spectral
    ab = np.zeros((3, 64))
    ab[0, 1:], ab[1], ab[2, :-1] = -1.0, np.linspace(2.0, 3.0, 64), -1.0
    assert spectral._coarsened(ab, 4, 4) is None
    res = eigensolve_hermitian(ab, 4)
    assert res.method == "eig_banded+rqi"
    assert_banded_levels(ab, res, 4)


def shift_coarsened(monkeypatch, shift, ratios):
    """Raise the diagonal of the bands coarsened by the picked ratios."""
    import ptcontour.spectral as spectral
    coarsened = spectral._coarsened

    def shifted(band, ratio, k):
        coarse = coarsened(band, ratio, k)
        if ratios(ratio):
            coarse[coarse.shape[0] // 2] += shift
        return coarse
    monkeypatch.setattr(spectral, "_coarsened", shifted)


def assert_every_rung_refused(op, extent):
    g = Grid("position", -extent, extent, 801)
    ab = matrixize(op, g)
    res = eigensolve_hermitian(ab, 5, grid=g)
    assert res.method == "eig_banded+rqi"
    assert_banded_levels(ab, res, 5)


def test_guard_catches_misplaced_seeds(monkeypatch):
    # seeds 3 above the anchor levels (spacings 4.5-7.4) lie nearer to the
    # next level up, so the iteration from the lowest seed finds level 1;
    # every rung is shifted, and its check band inherits the shift, so each
    # rung's guard must refuse its seeds
    shift_coarsened(monkeypatch, 3.0, lambda ratio: ratio != 2)
    assert_every_rung_refused(ANCHOR, 6.0)


def test_guard_catches_seeds_that_each_find_the_next_level(monkeypatch):
    # seeds 1.2 above the levels 1, 3, 5, ... of p^2 + x^2 each find the next
    # level up, in increasing order: only their distance gives them away
    shift_coarsened(monkeypatch, 1.2, lambda ratio: ratio != 2)
    assert_every_rung_refused(OSC, 10.0)


def test_check_refuses_seeds_its_coarser_band_disagrees_with(monkeypatch):
    # only the check bands are shifted: the seeds are right and would refine
    # to every level, but no rung may use seeds its check does not confirm
    shift_coarsened(monkeypatch, 3.0, lambda ratio: ratio == 2)
    assert_every_rung_refused(ANCHOR, 6.0)


def reference_seeds(band, k):
    """The seeds through the public ``eig_banded``."""
    import scipy.linalg as sla
    u = band.shape[0] // 2
    top = k if band.shape[1] > k else k - 1
    vals = sla.eig_banded(band[:u + 1], eigvals_only=True, select="i",
                          select_range=(0, top))
    gaps = np.diff(vals)
    return vals[:k], np.minimum(np.r_[np.inf, gaps], np.r_[gaps, np.inf])[:k]


def reference_refine(sym, lam, tol, ramp, work):
    """The Rayleigh-quotient iteration through the public ``solve_banded``,
    with its own start vector and no shared work band."""
    from scipy.linalg import solve_banded
    from ptcontour.spectral import _RQI_STEPS
    u, n = sym.shape[0] // 2, sym.shape[1]
    v = np.linspace(1.0, 2.0, n)
    for _ in range(_RQI_STEPS):
        shift = lam + 1e-10 * max(1.0, abs(lam))
        shifted = sym.copy()
        shifted[u] -= shift
        w = solve_banded((u, u), shifted, v, check_finite=False)
        norm = np.linalg.norm(w)
        x = w / norm
        lam = shift + np.vdot(x, v).real / norm
        residual = np.linalg.norm((shift - lam) * x + v / norm)
        v = x
        if residual < tol:
            break
    return lam, v


@pytest.mark.parametrize("op,grid_of", [
    *((hermitize(p).h, lambda n, p=p: default_momentum_grid(p, n=n))
      for p in STANDARD_FIVE),
    (ANCHOR, lambda n: Grid("position", -6.0, 6.0, n)),
    # p^2 + p + x^2 has a complex Hermitian band: the ?hbevx seeds
    (OperatorExpr({(0, 2): Q(1), (0, 1): Q(1), (2, 0): Q(1)}),
     lambda n: Grid("position", -10.0, 10.0, n)),
], ids=[*(p.label() for p in STANDARD_FIVE), "anchor", "p^2+p+x^2"])
def test_direct_drivers_match_public_wrappers_bitwise(monkeypatch, op,
                                                      grid_of):
    # ?sbevx/?hbevx and ?gbsv called directly give the very bits of
    # eig_banded and solve_banded, on both the coarse and the fine seeds
    import ptcontour.spectral as spectral
    methods = set()
    for n in (201, 801):
        ab = matrixize(op, grid_of(n))
        for k in (5, 12):
            with monkeypatch.context() as m:
                m.setattr(spectral, "_seeds", reference_seeds)
                m.setattr(spectral, "_rayleigh_refine", reference_refine)
                ref = eigensolve_hermitian(ab, k)
            res = eigensolve_hermitian(ab, k)
            assert res.eigenvalues == ref.eigenvalues
            assert np.array_equal(res.eigenvectors, ref.eigenvectors)
            assert (res.method, res.residual_norms) \
                == (ref.method, ref.residual_norms)
            methods.add(res.method)
    assert "eig_banded+rqi" in methods
    assert methods & {f"eig_banded/{r}+rqi" for r in spectral._COARSENINGS}


@pytest.mark.parametrize("op,grid_of", [
    (ANCHOR, lambda n: Grid("position", -6.0, 6.0, n)),
    (OperatorExpr({(0, 2): Q(1), (0, 1): Q(1), (2, 0): Q(1)}),
     lambda n: Grid("position", -10.0, 10.0, n)),
], ids=["real", "complex"])
def test_drivers_fall_back_to_get_lapack_funcs_bitwise(monkeypatch, op,
                                                       grid_of):
    # with no _flapack file to load, get_lapack_funcs supplies the drivers,
    # and the solves keep the bits of the public wrappers
    import importlib.machinery
    import ptcontour.spectral as spectral
    monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    spectral._flapack.cache_clear()
    spectral._lapack.cache_clear()      # nor a driver looked up before
    try:
        assert spectral._flapack() is None
        test_direct_drivers_match_public_wrappers_bitwise(monkeypatch, op,
                                                          grid_of)
    finally:
        spectral._flapack.cache_clear()
        spectral._lapack.cache_clear()


def test_residual_gate_wired(monkeypatch):
    import ptcontour.spectral as spectral
    monkeypatch.setattr(spectral, "_RESIDUAL_BOUND", 1e-30)
    g = Grid("position", -10.0, 10.0, 201)
    with pytest.raises(NotConverged, match="residual"):
        eigensolve_hermitian(matrixize(OSC, g), 3, grid=g)
    with pytest.raises(NotConverged, match="residual"):
        eigenbasis(LOWER_PT, 2, default_momentum_grid(SQRT_IX, n=201))


def test_hermitian_solve_memory_is_linear_in_n():
    # one dense real n x n matrix at n = 4001 takes 128 MB
    g = default_momentum_grid(LOWER_PT, n=4001)
    h = hermitize(LOWER_PT).h
    tracemalloc.start()
    try:
        res = eigensolve_hermitian(matrixize(h, g), 5, grid=g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16e6
    rel = np.abs(res.real_parts() - np.array(REFERENCE_LEVELS[:5])) \
        / np.array(REFERENCE_LEVELS[:5])
    assert rel.max() < 1e-5


# --- level rule and dense reference ----------------------------------------------

def test_hermitian_solver_diagonal():
    # a band of half-bandwidth 0 holds just the diagonal
    res = eigensolve_hermitian(np.array([[3.0, 1.0, 2.0]], dtype=complex), 3)
    assert np.allclose(res.real_parts(), [1.0, 2.0, 3.0])
    assert all(abs(e.imag) == 0 for e in res.eigenvalues)


@pytest.mark.parametrize("k,message", [
    (0, "the level count must be at least 1, got 0"),
    (-2, "the level count must be at least 1, got -2"),
    (13, "at most 12 eigenpairs are retained"),
], ids=["k=0", "k=-2", "k=13"])
def test_hermitian_solver_level_rule(k, message):
    ab = np.array([[3.0, 1.0, 2.0]], dtype=complex)
    with pytest.raises(ValueError) as err:
        eigensolve_hermitian(ab, k)
    assert str(err.value) == message


def test_general_solver_consistent_with_hermitian():
    g = Grid("position", -8.0, 8.0, 257)
    mat = matrixize(OSC, g)
    herm = eigensolve_hermitian(mat, 4, grid=g)
    vals, _ = dense_eigenpairs(mat + 0j, 4)
    assert np.abs(herm.real_parts() - vals.real).max() < 1e-9


def test_transformed_hamiltonian_spectrum_is_real_and_matches_oracle():
    # direct non-Hermitian diagonalization, justified for this contour by its
    # non-adjacent same-family endpoints
    g = Grid("momentum", -16.0, 16.0, 801)
    vals, norms = dense_eigenpairs(matrixize(build_h1(LOWER_PT), g), 5)
    assert np.abs(vals.imag).max() < 1e-4
    rel = np.abs(vals.real - np.array(REFERENCE_LEVELS[:5])) \
        / np.array(REFERENCE_LEVELS[:5])
    assert rel.max() < 1e-3
    assert norms.max() < 1e-7


# --- oracle spectrum ----------------------------------------------------------------

def test_oracle_matches_frozen_fixture(oracle_levels):
    assert np.abs(oracle_levels - np.array(REFERENCE_LEVELS[:5])).max() < 1e-9


def test_oracle_levels_strictly_increasing(oracle_levels):
    assert np.all(np.diff(oracle_levels) > 0)


def test_oracle_parity_image_identical():
    # x -> -x maps the anchor onto its parity image: on each reference grid
    # the two have one spectrum, and the image extrapolates to the reference
    levels, spacings = [], []
    for n in REFERENCE_GRID_SIZES:
        grid = Grid("position", *REFERENCE_DOMAIN, n)
        parity, anchor = (eigensolve_hermitian(matrixize(op, grid), 5)
                          .real_parts() for op in (ANCHOR_PARITY, ANCHOR))
        assert np.abs(parity - anchor).max() < 1e-10 * anchor.max()
        levels.append(parity)
        spacings.append(grid.spacing)
    extrap = _richardson(*levels[1:], *spacings[1:])
    assert np.abs(extrap - np.array(REFERENCE_LEVELS[:5])).max() < 1e-8


def test_oracle_level_bounds():
    with pytest.raises(ValueError):
        oracle_spectrum(0)
    with pytest.raises(ValueError):
        oracle_spectrum(9)


def test_oracle_drift_gate_wired(monkeypatch):
    import ptcontour.spectral as spectral
    monkeypatch.setattr(spectral, "_DRIFT_BOUND", 1e-15)
    with pytest.raises(NotConverged):
        oracle_spectrum(3)


def test_grid_refinement_monotonicity():
    drifts = []
    prev = None
    for n in (801, 1201, 1601):
        g = Grid("position", -6.0, 6.0, n)
        vals = eigensolve_hermitian(matrixize(ANCHOR, g), 5).real_parts()
        if prev is not None:
            drifts.append(np.abs(vals - prev))
        prev = vals
    assert np.all(drifts[1] < drifts[0])


def test_no_command_imports_scipy_linalg(tmp_path):
    # the solves load scipy's LAPACK module from its file: scipy.linalg
    # would bring scipy.sparse with it
    (tmp_path / "sweep.ini").write_text("[lower]\na = -2i\nb = 1\nc = 1\n")
    code = "\n".join([
        "import sys",
        "from ptcontour.cli import main",
        f"out = {str(tmp_path)!r}",
        "assert main(['spectrum', '--a', '-2i', '--b', '1', '--c', '1',"
        " '--out', out + '/spectrum']) == 0",
        "assert main(['iso-check', '--src', '1,1,1', '--dst', '-2i,1,1',"
        " '-k', '3', '--out', out + '/iso']) == 0",
        "assert main(['sweep', '--config', out + '/sweep.ini', '--levels', '2',"
        " '--grid-n', '801', '--out', out + '/sweep']) == 0",
        "assert 'scipy.linalg._flapack' in sys.modules",
        "loaded = {'scipy.linalg', 'scipy.sparse'} & sys.modules.keys()",
        "assert not loaded, loaded",
    ])
    proc = subprocess.run([sys.executable, "-c", code],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def _scipy_linalg_imports(tree: ast.AST, scope: str = ""):
    """(enclosing function, line) of each import of scipy.linalg or its
    submodules in a parsed module."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield from _scipy_linalg_imports(node, f"{scope}{node.name}.")
            continue
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules = [node.module or ""]
            if node.module == "scipy":
                modules += [f"scipy.{alias.name}" for alias in node.names]
        else:
            yield from _scipy_linalg_imports(node, scope)
            continue
        if any(m == "scipy.linalg" or m.startswith("scipy.linalg.")
               for m in modules):
            yield scope.rstrip("."), node.lineno


def test_only_the_lapack_fallback_imports_scipy_linalg():
    # every solve goes through the banded drivers of _flapack; scipy.linalg
    # is imported only where _lapack falls back to get_lapack_funcs
    src = Path(__file__).resolve().parents[1] / "src" / "ptcontour"
    found = [(path.name, scope) for path in sorted(src.glob("*.py"))
             for scope, _ in _scipy_linalg_imports(
                 ast.parse(path.read_text(encoding="utf-8")))]
    assert found == [("spectral.py", "_lapack")]
