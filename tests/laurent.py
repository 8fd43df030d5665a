"""Laurent polynomials over Q(i) in named real symbols, for symbolic proofs.

An element is a finite sum of ``c * s1^e1 * ... * sk^ek`` with exact
:class:`~ptcontour.rational.GaussianRational` coefficients ``c`` and integer
exponents, possibly negative.  The symbols stand for real numbers, so
:meth:`Laurent.conjugate` conjugates the coefficients only.  Zero
coefficients are never stored, so equality is an exact comparison.

The ring mixes with ``int``, ``Fraction`` and ``GaussianRational`` the way
``GaussianRational`` mixes with ``Fraction``, so the production operator
algebra can carry these elements as coefficients.  Only monomials are
invertible; dividing by any other element raises ``ValueError``.
"""
from __future__ import annotations

from fractions import Fraction

from ptcontour.rational import GaussianRational

#: a monomial: sorted (symbol, nonzero exponent) pairs; () is the constant 1
Monomial = tuple[tuple[str, int], ...]


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for name, e in m2:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted((n, e) for n, e in exps.items() if e))


class Laurent:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Monomial, GaussianRational]):
        self.terms = {m: c for m, c in terms.items() if not c.is_zero()}

    @classmethod
    def _lift(cls, value):
        if isinstance(value, Laurent):
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return cls({(): value if isinstance(value, GaussianRational)
                         else GaussianRational(value)})
        return NotImplemented

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_real(self) -> bool:
        return all(c.is_real() for c in self.terms.values())

    def symbols(self) -> set[str]:
        return {name for m in self.terms for name, _ in m}

    # -- ring operations -----------------------------------------------------

    def __add__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        out = dict(self.terms)
        for m, c in o.terms.items():
            out[m] = out[m] + c if m in out else c
        return Laurent(out)

    __radd__ = __add__

    def __neg__(self):
        return Laurent({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else self + (-o)

    def __rsub__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o + (-self)

    def __mul__(self, other):
        o = self._lift(other)
        if o is NotImplemented:
            return NotImplemented
        out: dict[Monomial, GaussianRational] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in o.terms.items():
                m = _mono_mul(m1, m2)
                out[m] = out[m] + c1 * c2 if m in out else c1 * c2
        return Laurent(out)

    __rmul__ = __mul__

    def inverse(self) -> "Laurent":
        if len(self.terms) != 1:
            raise ValueError(f"{self} is not a monomial, so not invertible")
        (m, c), = self.terms.items()
        return Laurent({tuple((n, -e) for n, e in m): 1 / c})

    def __truediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else self * o.inverse()

    def __rtruediv__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else o * self.inverse()

    def __pow__(self, n: int):
        base = self if n >= 0 else self.inverse()
        out = Laurent({(): GaussianRational(1)})
        for _ in range(abs(n)):
            out = out * base
        return out

    def conjugate(self) -> "Laurent":
        return Laurent({m: c.conjugate() for m, c in self.terms.items()})

    def evaluate(self, **values) -> GaussianRational:
        """The exact value with each symbol replaced by a nonzero rational."""
        total = GaussianRational(0)
        for m, c in self.terms.items():
            for name, e in m:
                c = c * Fraction(values[name]) ** e
            total = total + c
        return total

    # -- comparison --------------------------------------------------------

    def __eq__(self, other):
        o = self._lift(other)
        return NotImplemented if o is NotImplemented else self.terms == o.terms

    def __repr__(self):
        if not self.terms:
            return "0"
        return " + ".join(
            f"({c})" + "".join(f"*{n}^{e}" for n, e in m)
            for m, c in sorted(self.terms.items()))


def symbol(name: str) -> Laurent:
    return Laurent({((name, 1),): GaussianRational(1)})
