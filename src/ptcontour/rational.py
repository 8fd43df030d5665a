"""Exact complex scalars with rational real and imaginary parts.

Every coefficient in the operator algebra lives here.  Arithmetic is exact
(built on ``fractions.Fraction``), so operator equality is decidable and the
algebraic identities in the test suite hold with zero tolerance.
"""
from __future__ import annotations

from fractions import Fraction
from numbers import Rational


_RationalLike = (int, Fraction)


class GaussianRational:
    """A complex number re + im*i with re, im exact rationals.

    Immutable and hashable.  Supports +, -, *, /, integer powers,
    conjugation and exact comparison.  Mixed arithmetic with ``int`` and
    ``Fraction`` promotes to :class:`GaussianRational`.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    # -- coercion -------------------------------------------------------

    @classmethod
    def _coerce(cls, other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, _RationalLike) or isinstance(other, Rational):
            return cls(other)
        return NotImplemented

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return self.re == 0 and self.im == 0

    def is_real(self) -> bool:
        return self.im == 0

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o - self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __mul__(self, other):
        o = other if type(other) is GaussianRational else self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        if not o.im:            # real factor: skip the products with zero
            return GaussianRational(self.re * o.re, self.im * o.re)
        return GaussianRational(self.re * o.re - self.im * o.im,
                                self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError("division by zero GaussianRational")
        return GaussianRational((self.re * o.re + self.im * o.im) / d,
                                (self.im * o.re - self.re * o.im) / d)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return o / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return (GaussianRational(1) / self) ** (-n)
        out = GaussianRational(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    # -- comparisons / conversions ----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = f"{self.im}i" if abs(self.im) != 1 else ("i" if self.im > 0 else "-i")
        if self.re == 0:
            return im
        sign = "+" if self.im > 0 else ""
        return f"{self.re}{sign}{im}"


ONE = GaussianRational(1)
I = GaussianRational(0, 1)
