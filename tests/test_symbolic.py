"""The exact identities, proved for every admissible contour at once.

The algebra reads a contour only through its invariants lam = a^2 c and
beta = b/c.  Admissible contours are exactly those where both are real,
and lam != 0 always.  So the production functions are run here on a
stand-in whose invariants are the real symbols lam and beta of a Laurent
polynomial ring over Q(i).  The stand-in has no ``a``, ``b`` or ``c``, so a
function that read them would fail here.  Every step is a ring operation
(with division only by powers of lam) or a conjugation that fixes real
symbols, and evaluation at any real lam != 0 and beta is a ring
homomorphism that commutes with both.  An identity that holds in the ring
therefore holds, term for term, for every admissible contour, among them
the Jones-Mateo contour -2i*sqrt(1+ix) (lam = -4, beta = 1) and the
adjacent-wedge sqrt(1+ix) (lam = 1, beta = 1).
"""
from fractions import Fraction

from laurent import symbol

from ptcontour.catalog import STANDARD_FIVE
from ptcontour.isomap import map_params
from ptcontour.metric import metric_of
from ptcontour.opalg import (ANCHOR, OperatorExpr, build_h1, canonical_swap,
                             dyson_coefficients, hermitian_form, hermitize,
                             is_hermitian, unit_dilation)
from ptcontour.rational import I


class SymbolicContour:
    """Stands in for ContourParams, with symbolic invariants."""

    def __init__(self, suffix=""):
        self.a2c = symbol("lam" + suffix)
        self.b_over_c = symbol("beta" + suffix)

    def invariants(self):
        return self.a2c, self.b_over_c


def test_transformed_hamiltonian_in_the_invariants():
    p = SymbolicContour()
    lam, beta = p.invariants()
    # -(4/lam)(beta+ix)p^2 - (2/lam)p - lam^2 (beta+ix)^2, expanded
    assert build_h1(p) == OperatorExpr({
        (0, 2): -4 * beta / lam, (1, 2): -4 * I / lam, (0, 1): -2 / lam,
        (0, 0): -(lam * lam * beta * beta), (1, 0): -2 * I * lam * lam * beta,
        (2, 0): lam * lam})


def test_hermitian_equivalent_for_every_contour():
    p = SymbolicContour()
    lam, _ = p.invariants()
    h = hermitize(p).h
    assert h == OperatorExpr({(0, 4): 4 * lam ** -4, (0, 1): 2 / lam,
                              (2, 0): lam ** 2})
    assert is_hermitian(h)
    assert all(c.symbols() <= {"lam"} for c in h.terms.values())   # no beta
    assert h == hermitian_form(p)
    assert canonical_swap(h, p) == ANCHOR
    # the gate of every numeric result: each contour's Hermitian equivalent
    # is the unit form dilated by lam, so the gate never refuses a contour
    assert unit_dilation(p) == lam


def test_generator_and_metric_for_every_contour():
    p = SymbolicContour()
    lam, beta = p.invariants()
    f, g = dyson_coefficients(p)
    assert (f, g) == (Fraction(-2, 3) / lam ** 3, -beta)
    assert hermitize(p)[1:] == (f, g)
    spec = metric_of(p)
    assert (spec.kappa3, spec.kappa1) == (2 * f, 2 * g)


def test_metric_pushforward_for_every_pair():
    src, dst = SymbolicContour("_src"), SymbolicContour("_dst")
    (lam_s, beta_s), (lam_d, beta_d) = src.invariants(), dst.invariants()
    m = map_params(src, dst)
    assert m.beta == lam_d / lam_s
    assert m.gamma == beta_d - beta_s * lam_s / lam_d
    eta_src, eta_dst = metric_of(src), metric_of(dst)
    assert eta_src.kappa3 / m.beta ** 3 == eta_dst.kappa3
    assert eta_src.kappa1 / m.beta - 2 * m.gamma == eta_dst.kappa1


def test_symbolic_results_evaluate_to_the_catalog():
    p = SymbolicContour()
    h1, h = build_h1(p), hermitize(p).h
    for params in STANDARD_FIVE:
        lam, beta = params.invariants()

        def at_params(op):
            return OperatorExpr({k: c.evaluate(lam=lam, beta=beta)
                                 for k, c in op.terms.items()})

        assert at_params(h1) == build_h1(params)
        assert at_params(h) == hermitize(params).h
