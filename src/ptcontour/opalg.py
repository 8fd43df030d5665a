"""Exact operator algebra over the canonical pair [x, p] = i.

Operators are finite sums of monomials ``x^m p^n`` (x-powers kept left of
p-powers) with :class:`~ptcontour.rational.GaussianRational` coefficients.
Products are rewritten into that canonical order through the commutation
relation, which makes operator equality an exact dictionary comparison.

The module builds the transformed Hamiltonian of a parametrized contour
``z(x) = a*sqrt(b + i c x)`` applied to ``p^2 - x^4``, conjugates it with
``exp(f p^3 + g p)`` into its Hermitian equivalent, and applies the
canonical swap that reduces every valid parameter choice to the single
anchor operator ``p^2 + 4x^4 - 2x``.  These read a contour only
through its invariants ``a^2 c`` and ``b/c``, which
:meth:`ContourParams.invariants` checks and returns as exact reals; so do
the metrics and the maps between contours, the rest of the exact algebra.
"""
from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import cache
from math import comb, factorial
from typing import Mapping, NamedTuple

from .errors import (NonHermitianRho, NonTerminating, NotHermitizable,
                     PushforwardMismatch)
from .rational import GaussianRational, I, ONE


def _coeff(value) -> GaussianRational:
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    return value


# (-i)^k for k mod 4
_MINUS_I_POW = (GaussianRational(1), GaussianRational(0, -1),
                GaussianRational(-1), GaussianRational(0, 1))


class OperatorExpr:
    """Normal-ordered polynomial in the canonical pair (x, p).

    Terms map an exponent pair ``(m, n)`` -- meaning ``x^m p^n`` -- to an
    exact complex-rational coefficient.  Zero coefficients are never stored,
    so two equal operators have identical term dictionaries.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[tuple[int, int], GaussianRational] | None = None):
        clean: dict[tuple[int, int], GaussianRational] = {}
        if terms:
            for (m, n), c in terms.items():
                if m < 0 or n < 0:
                    raise ValueError("exponents must be nonnegative")
                c = _coeff(c)
                if not c.is_zero():
                    clean[(int(m), int(n))] = c
        self._terms = clean

    # -- constructors -----------------------------------------------------

    @classmethod
    def zero(cls) -> "OperatorExpr":
        return cls()

    @classmethod
    def one(cls) -> "OperatorExpr":
        return cls({(0, 0): ONE})

    @classmethod
    def x(cls) -> "OperatorExpr":
        return cls({(1, 0): ONE})

    @classmethod
    def p(cls) -> "OperatorExpr":
        return cls({(0, 1): ONE})

    @classmethod
    def monomial(cls, m: int, n: int, coeff=1) -> "OperatorExpr":
        return cls({(m, n): _coeff(coeff)})

    # -- inspection --------------------------------------------------------

    @property
    def terms(self) -> dict[tuple[int, int], GaussianRational]:
        return dict(self._terms)

    def is_zero(self) -> bool:
        return not self._terms

    def degree(self) -> int:
        """Maximum total degree m + n; -1 for the zero operator."""
        if not self._terms:
            return -1
        return max(m + n for m, n in self._terms)

    def __len__(self):
        return len(self._terms)

    def __iter__(self):
        return iter(sorted(self._terms.items()))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out[k] + c if k in out else c
        return OperatorExpr(out)

    def __sub__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return OperatorExpr({k: -c for k, c in self._terms.items()})

    def scale(self, factor) -> "OperatorExpr":
        f = _coeff(factor)
        if f.is_zero():
            return OperatorExpr.zero()
        return OperatorExpr({k: c * f for k, c in self._terms.items()})

    def __mul__(self, other):
        if isinstance(other, OperatorExpr):
            return multiply(self, other)
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction, GaussianRational)):
            return self.scale(other)
        return NotImplemented

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator powers must be nonnegative integers")
        out = OperatorExpr.one()
        for _ in range(n):
            out = out * self
        return out

    # -- equality ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, OperatorExpr):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __repr__(self):
        if not self._terms:
            return "0"
        parts = []
        for (m, n), c in sorted(self._terms.items()):
            mono = "*".join((["x" if m == 1 else f"x^{m}"] if m else [])
                            + (["p" if n == 1 else f"p^{n}"] if n else []))
            cs = str(c)
            if mono:
                if cs == "1":
                    parts.append(mono)
                elif cs == "-1":
                    parts.append(f"-{mono}")
                else:
                    cs = f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs
                    parts.append(f"{cs}*{mono}")
            else:
                parts.append(f"({cs})" if ("+" in cs[1:] or "-" in cs[1:]) else cs)
        return " + ".join(parts).replace("+ -", "- ")


# ---------------------------------------------------------------------------
# contour parameters
# ---------------------------------------------------------------------------

class Branch(Enum):
    """Square-root branch policy for sampling a contour."""
    PRINCIPAL = "principal"
    LOWER = "lower"
    UPPER = "upper"


@dataclass(frozen=True)
class ContourParams:
    """The triple (a, b, c) of ``z(x) = a*sqrt(b + i c x)`` plus branch policy.

    The algebra reads only the invariants ``a2c`` and ``b_over_c``; the
    triple itself serves the geometry of the contour.
    """

    a: GaussianRational
    b: GaussianRational
    c: GaussianRational
    branch: Branch = Branch.PRINCIPAL

    def __post_init__(self):
        for name in ("a", "b", "c"):
            v = getattr(self, name)
            if not isinstance(v, GaussianRational):
                object.__setattr__(self, name, GaussianRational(v))
        if self.a.is_zero():
            raise ValueError("contour requires a != 0")
        if self.c.is_zero():
            raise ValueError("contour requires c != 0")

    @property
    def a2c(self) -> GaussianRational:
        return self.a * self.a * self.c

    @property
    def b_over_c(self) -> GaussianRational:
        return self.b / self.c

    def invariants(self) -> tuple[Fraction, Fraction]:
        """The invariants (a^2 c, b/c) as exact reals.

        Every exact identity depends on the contour only through these two.
        Raises :class:`NotHermitizable` when a^2 c is not real and
        :class:`NonHermitianRho` when b/c is not real.
        """
        a2c, b_over_c = self.a2c, self.b_over_c
        if not a2c.is_real():
            raise NotHermitizable(
                f"a^2 c = {a2c} is not real for {self.label()}")
        if not b_over_c.is_real():
            raise NonHermitianRho(
                f"b/c = {b_over_c} is not real for {self.label()}")
        return a2c.re, b_over_c.re

    def label(self) -> str:
        return f"({self.a},{self.b},{self.c})"


# ---------------------------------------------------------------------------
# core operations
# ---------------------------------------------------------------------------

@cache
def _reorder_p_x(n: int, m: int) -> tuple:
    """Normal-order p^n x^m: sum_k (-i)^k k! C(n,k) C(m,k) x^(m-k) p^(n-k),
    as an immutable table of ``((m - k, n - k), coefficient)``, k ascending."""
    return tuple(((m - k, n - k),
                  _MINUS_I_POW[k % 4] * (factorial(k) * comb(n, k) * comb(m, k)))
                 for k in range(min(n, m) + 1))


def _add_products(out: dict, a: OperatorExpr, b: OperatorExpr,
                  first: int = 0) -> dict:
    """Add into ``out`` the terms of ab from reordering order k = first on;
    zero sums stay there until an :class:`OperatorExpr` drops them."""
    for (m1, n1), c1 in a._terms.items():
        for (m2, n2), c2 in b._terms.items():
            if min(n1, m2) < first:         # no reordering term of order >= first
                continue
            c = c1 * c2
            # x^m1 p^n1 x^m2 p^n2 = x^m1 (p^n1 x^m2) p^n2
            for (mm, nn), w in _reorder_p_x(n1, m2)[first:]:
                key = (m1 + mm, nn + n2)
                out[key] = out[key] + c * w if key in out else c * w
    return out


def multiply(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """Normal-ordered product of two operators."""
    return OperatorExpr(_add_products({}, a, b))


def commutator(a: OperatorExpr, b: OperatorExpr) -> OperatorExpr:
    """[a, b] = ab - ba, normal ordered.  The k = 0 reordering terms of ab and
    ba are the same, c1 c2 x^(m1+m2) p^(n1+n2), so only k >= 1 is summed."""
    out = _add_products({}, a, b, first=1)
    return OperatorExpr(_add_products(out, b, -a, first=1))


def adjoint(a: OperatorExpr) -> OperatorExpr:
    """Formal adjoint: reverse each monomial, conjugate the coefficient."""
    out: dict[tuple[int, int], GaussianRational] = {}
    for (m, n), c in a._terms.items():
        # (x^m p^n)^dagger = p^n x^m, reordered
        _add_products(out, OperatorExpr.monomial(0, n, c.conjugate()),
                      OperatorExpr.monomial(m, 0))
    return OperatorExpr(out)


def is_hermitian(a: OperatorExpr) -> bool:
    return adjoint(a) == a


def bch_conjugate(s: OperatorExpr, a: OperatorExpr, max_depth: int = 16) -> OperatorExpr:
    """Evaluate exp(s) a exp(-s) as the nested-commutator series.

    Sums ad_s^k(a)/k! until the nested commutator vanishes identically.
    Raises :class:`NonTerminating` when the series is still nonzero at
    ``max_depth`` (the generator raises total degree).
    """
    result = a
    nested = a
    for k in range(1, max_depth + 1):
        nested = commutator(s, nested)
        if nested.is_zero():
            return result
        result = result + nested.scale(Fraction(1, factorial(k)))
    raise NonTerminating(
        f"commutator series not terminated after depth {max_depth}")


def build_h1(params: ContourParams) -> OperatorExpr:
    """Transformed Hamiltonian of p^2 - x^4 on the contour z = a*sqrt(b+icx).

    With lam = a^2 c and rho = b/c it is
    ``-(4/lam)(rho+ix) p^2 - (2/lam) p - lam^2 (rho+ix)^2``, expanded into
    canonical order; it exists for every contour, admissible or not.
    """
    lam, rho = params.a2c, params.b_over_c
    w = OperatorExpr({(0, 0): rho, (1, 0): I})            # rho + i x
    p2 = OperatorExpr.monomial(0, 2)
    term1 = multiply(w, p2).scale(-4 / lam)
    term2 = OperatorExpr.monomial(0, 1, -2 / lam)
    term3 = multiply(w, w).scale(-(lam * lam))
    return term1 + term2 + term3


def dyson_coefficients(params: ContourParams) -> tuple[Fraction, Fraction]:
    """Coefficients f = -2/(3 lam^3), g = -rho of the similarity generator
    f p^3 + g p, in the invariants (lam, rho) = (a^2 c, b/c)."""
    lam, rho = params.invariants()
    return Fraction(-2, 3) / lam ** 3, -rho


@dataclass(frozen=True)
class MetricSpec:
    """Exact exponent coefficients of eta = exp(kappa3 p^3 + kappa1 p)."""

    kappa3: Fraction
    kappa1: Fraction

    def exponent_coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        return (Fraction(0), self.kappa1, Fraction(0), self.kappa3)


def metric_of(params: ContourParams) -> MetricSpec:
    """Metric coefficients kappa3 = -4/(3 (a^2 c)^3), kappa1 = -2 b/c.

    These are twice the similarity-generator coefficients (f, g) of
    :func:`dyson_coefficients` (eta is the square of the similarity
    transformation), so the validity conditions are the same as for the
    Hermitian equivalent.
    """
    f, g = dyson_coefficients(params)
    return MetricSpec(kappa3=2 * f, kappa1=2 * g)


@dataclass(frozen=True)
class IsoMap:
    """Scale-and-shift map taking the source contour to the target."""

    beta: Fraction
    gamma: Fraction
    source: ContourParams
    target: ContourParams

    def __post_init__(self):
        if self.beta == 0:
            raise ValueError("beta must be nonzero")

    def compose(self, second: "IsoMap") -> "IsoMap":
        """The map 'self then second'; targets must chain."""
        if second.source != self.target:
            raise ValueError("maps do not chain: target != second.source")
        beta = self.beta * second.beta
        gamma = second.gamma + self.gamma / second.beta
        return IsoMap(beta=beta, gamma=gamma,
                      source=self.source, target=second.target)


def map_params(src: ContourParams, dst: ContourParams) -> IsoMap:
    """Exact (beta, gamma) of the map from src onto dst.

    In the invariants (lam, rho) = (a^2 c, b/c) of each contour,
    beta = lam_dst / lam_src and gamma = rho_dst - rho_src lam_src / lam_dst.
    """
    lam_src, rho_src = src.invariants()
    lam_dst, rho_dst = dst.invariants()
    return IsoMap(beta=lam_dst / lam_src,
                  gamma=rho_dst - rho_src * lam_src / lam_dst,
                  source=src, target=dst)


def push_metric(m: IsoMap, eta1: MetricSpec) -> MetricSpec:
    """Transport metric coefficients along the map, verifying exactness.

    The transported coefficients must coincide, as exact rationals, with the
    metric computed directly on the target contour; a mismatch can only be
    an implementation bug and raises :class:`PushforwardMismatch`.
    """
    if eta1 != metric_of(m.source):
        raise ValueError("eta1 is not the metric of the map's source contour")
    pushed = MetricSpec(kappa3=eta1.kappa3 / m.beta ** 3,
                        kappa1=eta1.kappa1 / m.beta - 2 * m.gamma)
    direct = metric_of(m.target)
    if pushed != direct:
        raise PushforwardMismatch(
            f"transported ({pushed.kappa3}, {pushed.kappa1}) != "
            f"direct ({direct.kappa3}, {direct.kappa1})")
    return pushed


class HermitizeResult(NamedTuple):
    h: OperatorExpr
    f: Fraction
    g: Fraction


def hermitize(params: ContourParams) -> HermitizeResult:
    """Conjugate the transformed Hamiltonian into its Hermitian equivalent.

    Returns ``h = exp(S) H1 exp(-S)`` with ``S = f p^3 + g p`` and (f, g)
    from :func:`dyson_coefficients`.  The result is independent of b and
    Hermitian whenever a^2 c and b/c are real; it must coincide
    term-for-term with :func:`hermitian_form`, which builds the same
    operator from its closed-form coefficients without any commutators.
    """
    f, g = dyson_coefficients(params)
    s = OperatorExpr({(0, 3): f, (0, 1): g})
    h = bch_conjugate(s, build_h1(params))
    return HermitizeResult(h, f, g)


def hermitian_form(params: ContourParams) -> OperatorExpr:
    """Closed-form Hermitian equivalent, built directly from coefficients.

    ``(4/lam^4) p^4 + (2/lam) p + lam^2 x^2`` with lam = a^2 c -- the
    independent route against which the commutator-series construction is
    checked.  The terms are listed in the order the series yields them, so
    that :func:`~ptcontour.spectral.matrixize`, which adds them in order,
    gives the very bits of the band of :func:`hermitize`'s operator.
    """
    lam, _ = params.invariants()
    return OperatorExpr({(0, 1): 2 / lam, (2, 0): lam ** 2,
                         (0, 4): 4 / lam ** 4})


#: the Hermitian anchor p^2 + 4x^4 - 2x every valid contour reduces to
ANCHOR = OperatorExpr({(0, 2): ONE, (4, 0): GaussianRational(4),
                       (1, 0): GaussianRational(-2)})


def canonical_swap(h: OperatorExpr, params: ContourParams) -> OperatorExpr:
    """Map the Hermitian equivalent onto the anchor operator.

    Applies the single canonical substitution x -> p/(a^2 c),
    p -> -(a^2 c) x: the swap x -> 2p/(a^2 c), p -> -(a^2 c) x / 2 (which
    alone gives ``4p^2 + x^4/4 - x``, unitarily equivalent to but not
    literally the anchor) composed with the unitary dilation
    (x, p) -> (2x, p/2).  Returns the image, which is ``p^2 + 4x^4 - 2x``
    for the output of :func:`hermitize`, and raises ``ValueError`` otherwise.
    """
    lam = params.a2c
    out: dict[tuple[int, int], GaussianRational] = {}
    for (m, n), c in h._terms.items():
        # c x^m p^n -> c (p/lam)^m (-lam x)^n = c lam^-m (-lam)^n p^m x^n,
        # reordered as in adjoint
        _add_products(out,
                      OperatorExpr.monomial(0, m, c * lam ** -m * (-lam) ** n),
                      OperatorExpr.monomial(n, 0))
    mapped = OperatorExpr(out)
    if mapped != ANCHOR:
        raise ValueError(f"canonical swap missed the anchor: {mapped!r}")
    return mapped
