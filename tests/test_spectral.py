import math
from fractions import Fraction

import numpy as np
import pytest

from ptcontour.catalog import LOWER_PT, STANDARD_FIVE
from ptcontour.errors import GridTooCoarse, NotConverged, NotHermitian
from ptcontour.metric import default_momentum_grid
from ptcontour.opalg import (ANCHOR, ANCHOR_PARITY, ContourParams,
                             OperatorExpr, build_h1, hermitize)
from ptcontour.rational import GaussianRational as Q
from ptcontour.reference import REFERENCE_LEVELS
from ptcontour.spectral import (Grid, derivative_matrix, eigensolve_general,
                                eigensolve_hermitian, hermitian_eigenpairs,
                                is_grid_artifact, matrixize,
                                neighbor_correlation, oracle_spectrum)

OSC_MINUS_ONE = OperatorExpr({(0, 2): Q(1), (2, 0): Q(1), (0, 0): Q(-1)})
OSC = OperatorExpr({(0, 2): Q(1), (2, 0): Q(1)})


# --- grid -------------------------------------------------------------------

def test_grid_validation():
    with pytest.raises(ValueError):
        Grid("position", -1.0, 1.0, 8)
    with pytest.raises(ValueError):
        Grid("position", 1.0, -1.0, 32)
    with pytest.raises(ValueError):
        Grid("angle", -1.0, 1.0, 32)
    g = Grid("momentum", -2.0, 2.0, 17)
    assert g.symmetric
    assert abs(g.spacing - 0.25) < 1e-15
    assert len(g.points()) == 17


# --- matrixize ---------------------------------------------------------------

def test_matrixize_x_on_momentum_grid_is_antisymmetric_stencil():
    g = Grid("momentum", -1.0, 1.0, 33)
    mat = matrixize(OperatorExpr.x(), g)
    expected = 1j * derivative_matrix(33, g.spacing, 1)
    assert np.abs(mat - expected).max() == 0.0
    assert np.abs(mat + mat.T).max() == 0.0       # antisymmetric stencil


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_matrix_exact_on_polynomials(order):
    # 4th-order centered stencils differentiate degree <= order + 3 exactly
    n, h = 41, 0.125
    z = (np.arange(n) - n // 2) * h
    d = derivative_matrix(n, h, order)
    interior = slice(3, n - 3)
    for deg in range(order + 4):
        exact = (np.zeros(n) if deg < order else
                 math.perm(deg, order) * z ** (deg - order))
        err = np.abs(d @ z ** deg - exact)[interior].max()
        assert err < 1e-9 * max(1.0, np.abs(exact).max())


def test_matrixize_ix_is_anti_hermitian():
    g = Grid("position", -1.0, 1.0, 33)
    mat = matrixize(OperatorExpr.monomial(1, 0, Q(0, 1)), g)
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
    xp = matrixize(OperatorExpr({(1, 1): Q(1)}), g)
    px_expr = OperatorExpr({(1, 1): Q(1), (0, 0): Q(0, -1)})   # p x normal-ordered
    px = matrixize(px_expr, g)
    assert np.abs(xp - px - 1j * np.eye(33)).max() < 1e-14


def test_matrixize_grid_too_coarse():
    g = Grid("position", -1.0, 1.0, 17)
    with pytest.raises(GridTooCoarse):
        matrixize(OperatorExpr.monomial(5, 0), g)


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


def test_not_hermitian_rejected():
    g = Grid("position", -2.0, 2.0, 33)
    mat = matrixize(OperatorExpr({(1, 1): Q(1)}), g)    # xp is not Hermitian
    with pytest.raises(NotHermitian):
        eigensolve_hermitian(mat, 3)


def test_retained_count_capped():
    g = Grid("position", -10.0, 10.0, 201)
    with pytest.raises(ValueError):
        eigensolve_hermitian(matrixize(OSC, g), 13, grid=g)


def test_no_retained_vector_is_grid_artifact():
    cases = [(ANCHOR, Grid("position", -6.0, 6.0, n))
             for n in (801, 1201, 1601)]
    cases += [(hermitize(p).h, default_momentum_grid(p))
              for p in STANDARD_FIVE]
    for op, g in cases:
        _, vecs = hermitian_eigenpairs(matrixize(op, g), 8)
        assert not any(is_grid_artifact(vecs[:, i]) for i in range(8))


@pytest.mark.parametrize("t", [Fraction(1, 1000), Fraction(1, 10), 10, 1000])
def test_extreme_a2c_matches_reference(spectrum_cache, t):
    # |a^2 c| = t spans six decades; the 4|a^2 c| grid half-width keeps up
    res = spectrum_cache(ContourParams(a=Q(1), b=Q(t), c=Q(t)), k=5)
    rel = np.abs(res.real_parts() - np.array(REFERENCE_LEVELS[:5])) \
        / np.array(REFERENCE_LEVELS[:5])
    assert rel.max() < 1e-5


def test_artifact_filter_flags_sawtooth():
    smooth = np.exp(-np.linspace(-4, 4, 101) ** 2)
    sawtooth = smooth * (-1.0) ** np.arange(101)
    assert neighbor_correlation(smooth) > 0.9
    assert neighbor_correlation(sawtooth) < -0.9


def test_momentum_representation_matches_reference(spectrum_cache):
    res = spectrum_cache(LOWER_PT, k=5)
    rel = np.abs(res.real_parts() - np.array(REFERENCE_LEVELS[:5])) \
        / np.array(REFERENCE_LEVELS[:5])
    assert rel.max() < 1e-5
    assert max(res.residual_norms) < 1e-8


# --- general eigensolve ------------------------------------------------------------

def test_general_solver_diagonal():
    res = eigensolve_general(np.diag([3.0, 1.0, 2.0]).astype(complex), 3)
    assert np.allclose(res.real_parts(), [1.0, 2.0, 3.0])
    assert all(abs(e.imag) == 0 for e in res.eigenvalues)


def test_general_solver_consistent_with_hermitian():
    g = Grid("position", -8.0, 8.0, 257)
    mat = matrixize(OSC, g)
    herm = eigensolve_hermitian(mat, 4, grid=g)
    gen = eigensolve_general(mat + 0j, 4, grid=g)
    assert np.abs(herm.real_parts() - gen.real_parts()).max() < 1e-9


def test_transformed_hamiltonian_spectrum_is_real_and_matches_oracle():
    # direct non-Hermitian diagonalization, justified for this contour by its
    # non-adjacent same-family endpoints
    g = Grid("momentum", -16.0, 16.0, 801)
    mat = matrixize(build_h1(LOWER_PT), g)
    res = eigensolve_general(mat, 5, grid=g)
    assert max(abs(e.imag) for e in res.eigenvalues) < 1e-4
    rel = np.abs(res.real_parts() - np.array(REFERENCE_LEVELS[:5])) \
        / np.array(REFERENCE_LEVELS[:5])
    assert rel.max() < 1e-3
    assert max(res.residual_norms) < 1e-7


# --- oracle spectrum ----------------------------------------------------------------

def test_oracle_matches_frozen_fixture(oracle_levels):
    assert np.abs(oracle_levels - np.array(REFERENCE_LEVELS[:5])).max() < 1e-9


def test_oracle_levels_strictly_increasing(oracle_levels):
    assert np.all(np.diff(oracle_levels) > 0)


def test_oracle_parity_image_identical():
    parity = oracle_spectrum(5, operator=ANCHOR_PARITY)
    assert np.abs(parity - np.array(REFERENCE_LEVELS[:5])).max() < 1e-8


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
        vals, _ = hermitian_eigenpairs(matrixize(ANCHOR, g), 5)
        if prev is not None:
            drifts.append(np.abs(vals - prev))
        prev = vals
    assert np.all(drifts[1] < drifts[0])
