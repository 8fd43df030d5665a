"""Exact operator algebra tests.

Normal ordering is checked against an independent oracle: a truncated
harmonic-oscillator ladder representation of x and p, where operator
products are plain matrix products.  Truncation only corrupts the
bottom-right corner, so block comparisons on the upper-left are exact to
roundoff.
"""
import random
from fractions import Fraction

import numpy as np
import pytest

import ptcontour.opalg as opalg
from ptcontour.errors import (NonHermitianRho, NonTerminating,
                              NotHermitizable, PushforwardMismatch)
from ptcontour.catalog import (ADJACENT, LOWER_PT, LOWER_PT_B5, SQRT_IX,
                               STANDARD_FIVE, UPPER_PT)
from ptcontour.opalg import (ANCHOR, UNIT_FORM, ContourParams,
                             OperatorExpr, adjoint, bch_conjugate, build_h1,
                             _reorder_p_x, canonical_swap, commutator,
                             dyson_coefficients, hermitian_form, hermitize,
                             is_hermitian, multiply, unit_dilation)
from ptcontour.rational import GaussianRational as Q

X = OperatorExpr.x()
P = OperatorExpr.p()
ONE = OperatorExpr.one()
I = Q(0, 1)


def op(terms):
    return OperatorExpr({k: Q(*v) if isinstance(v, tuple) else Q(v)
                         for k, v in terms.items()})


# --- independent oracle: truncated ladder representation --------------------

def ladder_xp(dim):
    a = np.diag(np.sqrt(np.arange(1.0, dim)), 1)
    x = (a + a.T) / np.sqrt(2.0)
    p = 1j * (a.T - a) / np.sqrt(2.0)
    return x, p


def to_matrix(expr, dim=30):
    x, p = ladder_xp(dim)
    out = np.zeros((dim, dim), dtype=complex)
    for (m, n), c in expr.terms.items():
        out += complex(c) * (np.linalg.matrix_power(x, m)
                             @ np.linalg.matrix_power(p, n))
    return out


def assert_matches_oracle(product_expr, a, b, dim=30, block=20):
    lhs = to_matrix(product_expr, dim)[:block, :block]
    rhs = (to_matrix(a, dim) @ to_matrix(b, dim))[:block, :block]
    scale = max(np.abs(rhs).max(), 1.0)
    assert np.abs(lhs - rhs).max() < 1e-10 * scale


def random_operator(rng, max_degree=4):
    terms = {}
    for _ in range(rng.randint(1, 4)):
        m = rng.randint(0, max_degree)
        n = rng.randint(0, max_degree - m)
        terms[(m, n)] = Q(rng.randint(-3, 3), rng.randint(-3, 3))
    return OperatorExpr(terms)


# --- multiply ----------------------------------------------------------------

def test_multiply_px():
    assert P * X == op({(1, 1): 1, (0, 0): (0, -1)})        # xp - i


def test_multiply_xp_already_ordered():
    assert X * P == op({(1, 1): 1})


def test_multiply_p2_x():
    expected = op({(1, 2): 1, (0, 1): (0, -2)})             # xp^2 - 2ip
    got = (P * P) * X
    assert got == expected
    assert_matches_oracle(got, P * P, X)


def test_multiply_against_ladder_oracle_random():
    rng = random.Random(20260809)
    for _ in range(25):
        a = random_operator(rng)
        b = random_operator(rng)
        assert_matches_oracle(multiply(a, b), a, b, dim=40, block=20)


def test_multiply_bilinear_and_associative():
    rng = random.Random(777)
    for _ in range(200):
        a, b, c = (random_operator(rng) for _ in range(3))
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))
        s = Q(rng.randint(-3, 3), rng.randint(-3, 3))
        assert multiply(a.scale(s) + b, c) == multiply(a, c).scale(s) + multiply(b, c)


def test_reordering_table_is_immutable():
    table = _reorder_p_x(2, 3)
    with pytest.raises(TypeError):
        table[0] = ((5, 5), Q(7))
    with pytest.raises(TypeError):
        table[1][0][0] = 9
    with pytest.raises(AttributeError):
        table[2][1].re = Fraction(7)
    assert _reorder_p_x(2, 3) is table
    # p^2 x^3 = x^3 p^2 - 6i x^2 p - 6x, before and after the attempts
    p2, x3 = P * P, X * X * X
    got = multiply(p2, x3)
    assert got == op({(3, 2): 1, (2, 1): (0, -6), (1, 0): -6})
    assert_matches_oracle(got, p2, x3)
    assert multiply(p2, x3 + X) == got + op({(1, 2): 1, (0, 1): (0, -2)})


# --- commutator ----------------------------------------------------------------

def test_commutator_defining_relation():
    assert commutator(X, P) == op({(0, 0): (0, 1)})


def test_commutator_first_term_of_toy_chain():
    # [-x^2/2, p^2 + 2ixp] = 2x^2 - 2ixp - 1
    s = op({(2, 0): Fraction(-1, 2)})
    h = op({(0, 2): 1, (1, 1): (0, 2)})
    expected = op({(2, 0): 2, (1, 1): (0, -2), (0, 0): -1})
    assert commutator(s, h) == expected
    # cross-check with the ladder oracle: [A,B] = AB - BA
    lhs = to_matrix(commutator(s, h))[:20, :20]
    ma, mb = to_matrix(s), to_matrix(h)
    rhs = (ma @ mb - mb @ ma)[:20, :20]
    assert np.abs(lhs - rhs).max() < 1e-10


def test_commutator_generator_with_x():
    # [f p^3 + g p, x] = -3if p^2 - ig
    f, g = Fraction(1, 96), Fraction(-1)
    s = op({(0, 3): f, (0, 1): g})
    expected = OperatorExpr({(0, 2): Q(0, -3 * f), (0, 0): Q(0, -g)})
    assert commutator(s, X) == expected


def test_commutator_equals_difference_of_products():
    # commutator sums only the reordering terms that do not cancel; term for
    # term it must equal ab - ba, also where the two products cancel
    rng = random.Random(20261018)

    def scalar():
        return Q(Fraction(rng.randint(-4, 4), rng.randint(1, 5)),
                 Fraction(rng.randint(-4, 4), rng.randint(1, 5)))

    def draw(degree=4, x_max=4, p_max=4):
        terms = {}
        for _ in range(rng.randint(1, 5)):
            m = rng.randint(0, min(x_max, degree))
            terms[(m, rng.randint(0, min(p_max, degree - m)))] = scalar()
        return OperatorExpr(terms)

    zero = 0
    for case in range(300):
        a = draw()
        b = (draw(), draw(), a, a.scale(scalar()) + ONE.scale(scalar()))[case % 4]
        if case % 5 == 3:
            a = draw(degree=2)
            b = multiply(a, a)
        elif case % 5 == 4:
            a, b = (draw(x_max=0), draw(x_max=0)) if case % 2 else \
                (draw(p_max=0), draw(p_max=0))
        got = commutator(a, b)
        assert got.terms == (multiply(a, b) - multiply(b, a)).terms
        assert all(not c.is_zero() for c in got.terms.values())
        zero += got.is_zero()
    assert 100 < zero < 250     # both kinds of pair are well represented


def test_commutator_antisymmetry_and_jacobi():
    rng = random.Random(31337)
    for _ in range(40):
        a, b, c = (random_operator(rng, 3) for _ in range(3))
        assert commutator(a, b) == -commutator(b, a)
        jac = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        assert jac.is_zero()


# --- adjoint ----------------------------------------------------------------

def test_adjoint_xp():
    assert adjoint(X * P) == op({(1, 1): 1, (0, 0): (0, -1)})


def test_adjoint_detects_non_hermitian():
    h = op({(0, 2): 1, (1, 1): (0, 2)})      # p^2 + 2ixp
    assert adjoint(h) != h
    assert not is_hermitian(h)


def test_adjoint_of_hermitian_equivalent():
    h = hermitize(LOWER_PT).h
    assert h == op({(0, 4): Fraction(1, 64), (0, 1): Fraction(-1, 2),
                    (2, 0): 16})
    assert adjoint(h) == h


def test_adjoint_involution_and_antihomomorphism():
    rng = random.Random(99)
    for _ in range(60):
        a, b = random_operator(rng), random_operator(rng)
        assert adjoint(adjoint(a)) == a
        assert adjoint(multiply(a, b)) == multiply(adjoint(b), adjoint(a))


def test_is_hermitian_examples():
    assert is_hermitian(op({(0, 2): 1, (2, 0): 1, (0, 0): -1}))
    assert not is_hermitian(op({(0, 2): 1, (1, 1): (0, 2)}))
    assert is_hermitian(hermitize(ADJACENT).h)


# --- transformed Hamiltonian -------------------------------------------------

def test_build_h1_reference_contour():
    # (1+ix)p^2 + p/2 - 16(1+ix)^2
    expected = (multiply(op({(0, 0): 1, (1, 0): (0, 1)}), op({(0, 2): 1}))
                + op({(0, 1): Fraction(1, 2)})
                + multiply(op({(0, 0): 1, (1, 0): (0, 1)}),
                           op({(0, 0): 1, (1, 0): (0, 1)})).scale(-16))
    assert build_h1(LOWER_PT) == expected


def test_build_h1_upper_contour():
    # 4(1+ix)p^2 + 2p - (1+ix)^2
    w = op({(0, 0): 1, (1, 0): (0, 1)})
    expected = (multiply(w, op({(0, 2): 1})).scale(4) + op({(0, 1): 2})
                + multiply(w, w).scale(-1))
    assert build_h1(UPPER_PT) == expected


def test_build_h1_sqrt_ix():
    # -4ix p^2 - 2p + x^2
    expected = op({(1, 2): (0, -4), (0, 1): -2, (2, 0): 1})
    assert build_h1(SQRT_IX) == expected


# --- conjugation series ---------------------------------------------------------

def test_bch_toy_chain():
    s = op({(2, 0): Fraction(-1, 2)})
    h = op({(0, 2): 1, (1, 1): (0, 2)})
    assert bch_conjugate(s, h) == op({(0, 2): 1, (2, 0): 1, (0, 0): -1})


def test_bch_toy_chain_terminates_at_depth_two():
    s = op({(2, 0): Fraction(-1, 2)})
    h = op({(0, 2): 1, (1, 1): (0, 2)})
    # the depth-3 nested commutator vanishes, so depth cap 3 suffices ...
    assert bch_conjugate(s, h, max_depth=3) == op({(0, 2): 1, (2, 0): 1,
                                                   (0, 0): -1})
    # ... while a cap of 2 still sees a nonzero remainder
    with pytest.raises(NonTerminating):
        bch_conjugate(s, h, max_depth=2)


def test_bch_identity_conjugation():
    rng = random.Random(5)
    for _ in range(10):
        a = random_operator(rng)
        assert bch_conjugate(OperatorExpr.zero(), a) == a


def test_bch_reproduces_hermitian_form():
    s = op({(0, 3): Fraction(1, 96), (0, 1): -1})
    got = bch_conjugate(s, build_h1(LOWER_PT))
    assert got == op({(0, 4): Fraction(1, 64), (0, 1): Fraction(-1, 2),
                      (2, 0): 16})


def test_bch_degree_raising_generator_raises():
    s = op({(2, 2): 1})
    with pytest.raises(NonTerminating):
        bch_conjugate(s, X, max_depth=8)


def test_bch_is_homomorphism():
    # conjugation distributes over products, exactly
    rng = random.Random(2718)
    for _ in range(15):
        s = OperatorExpr({(0, 3): Q(rng.randint(-2, 2), rng.randint(-2, 2)),
                          (0, 1): Q(rng.randint(-2, 2), rng.randint(-2, 2))})
        a = random_operator(rng, 2)
        b = random_operator(rng, 2)
        lhs = bch_conjugate(s, multiply(a, b))
        rhs = multiply(bch_conjugate(s, a), bch_conjugate(s, b))
        assert lhs == rhs


# --- hermitize ------------------------------------------------------------------

def test_hermitize_reference_contour():
    h, f, g = hermitize(LOWER_PT)
    assert f == Q(Fraction(1, 96))
    assert g == Q(-1)
    assert h == op({(0, 4): Fraction(1, 64), (0, 1): Fraction(-1, 2),
                    (2, 0): 16})


def test_hermitize_upper_contour():
    h, f, g = hermitize(UPPER_PT)
    assert h == op({(0, 4): 4, (0, 1): -2, (2, 0): 1})
    assert f == Q(Fraction(2, 3))
    assert g == Q(-1)


def test_hermitize_b_independence():
    base = hermitize(LOWER_PT)
    shifted = hermitize(LOWER_PT_B5)
    assert shifted.h == base.h
    assert shifted.g == Q(-5)
    for b in (0, 1, 5, -3):
        params = ContourParams(LOWER_PT.a, Q(b), LOWER_PT.c)
        assert hermitize(params).h == base.h


def test_hermitize_matches_closed_form_everywhere():
    for params in STANDARD_FIVE:
        res = hermitize(params)
        assert res.h == hermitian_form(params)
        assert is_hermitian(res.h)
        f, g = dyson_coefficients(params)
        assert (res.f, res.g) == (f, g)


def test_hermitize_rejects_complex_a2c():
    with pytest.raises(NotHermitizable):
        hermitize(ContourParams(Q(1), Q(1), Q(0, 1)))     # a^2 c = i


def test_hermitize_rejects_complex_b_over_c():
    with pytest.raises(NonHermitianRho):
        hermitize(ContourParams(Q(0, -2), Q(0, 1), Q(1)))  # b/c = i


# --- canonical swap ----------------------------------------------------------------

def test_canonical_swap_all_contours_reach_anchor():
    # the composite substitution + dilation lands on p^2 + 4x^4 - 2x for the
    # whole matrix (tests/test_symbolic.py proves it for every contour)
    for params in STANDARD_FIVE:
        assert canonical_swap(hermitize(params).h, params) == ANCHOR


def test_canonical_swap_parity_flag_on_parity_image():
    # the mirrored operator swaps onto the parity image p^2 + 4x^4 + 2x,
    # which is not the anchor, so the swap refuses it
    h = hermitize(UPPER_PT).h
    mirrored = OperatorExpr({(m, n): c * (-1) ** (m + n)   # x -> -x, p -> -p
                             for (m, n), c in h.terms.items()})
    with pytest.raises(ValueError, match=r"missed the anchor: p\^2 \+ 2\*x"):
        canonical_swap(mirrored, UPPER_PT)


# --- the unit form and its dilation -------------------------------------------------

def covariance_mutant(params):
    """hermitian_form with ``2 / lam`` miscopied as ``2 / abs(lam)``: wrong
    exactly for the contours with a^2 c < 0."""
    lam, _ = params.invariants()
    return OperatorExpr({(0, 1): 2 / abs(lam), (2, 0): lam ** 2,
                         (0, 4): 4 / lam ** 4})


def test_unit_form_is_the_hermitian_equivalent_of_a2c_one():
    assert UNIT_FORM == hermitian_form(SQRT_IX) == hermitize(SQRT_IX).h
    assert list(UNIT_FORM.terms) == list(hermitian_form(SQRT_IX).terms)


def test_unit_dilation_is_a2c_for_every_catalog_contour():
    for params in STANDARD_FIVE:
        assert unit_dilation(params) == params.invariants()[0]


def test_unit_dilation_refuses_the_covariance_mutant(monkeypatch):
    monkeypatch.setattr(opalg, "hermitian_form", covariance_mutant)
    for params in STANDARD_FIVE:
        if params.invariants()[0] > 0:
            assert unit_dilation(params) == params.invariants()[0]
        else:
            with pytest.raises(PushforwardMismatch,
                               match=r"not the unit form dilated by a\^2 c"):
                unit_dilation(params)


def test_invariants_are_computed_once_and_raise_on_every_call():
    params = ContourParams(Q(0, -2), Q(5), Q(1))
    assert params.invariants() is params.invariants()
    assert params.a2c is params.a2c and params.b_over_c is params.b_over_c
    for bad, error in [(ContourParams(Q(1), Q(1), Q(0, 1)), NotHermitizable),
                       (ContourParams(Q(0, -2), Q(0, 1), Q(1)),
                        NonHermitianRho)]:
        for _ in range(2):
            with pytest.raises(error):
                bad.invariants()
