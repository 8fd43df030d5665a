"""Exact complex scalars with rational real and imaginary parts.

Every coefficient in the operator algebra lives here.  Arithmetic is exact,
so operator equality is decidable and the algebraic identities in the test
suite hold with zero tolerance.  A scalar is one integer triple ``(re, im,
den)``, the value ``(re + im i) / den`` in lowest terms with ``den > 0``:
equality is tuple equality, and a product is a few integer operations and
one gcd.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd
from numbers import Rational


class GaussianRational:
    """A complex number re + im*i with re, im exact rationals.

    Immutable and hashable.  Supports +, -, *, /, integer powers,
    conjugation and exact comparison.  Mixed arithmetic with ``int`` and
    ``Fraction`` promotes to :class:`GaussianRational`; ``.re`` and ``.im``
    read the parts as ``Fraction``s.
    """

    __slots__ = ("_triple",)

    def __new__(cls, re=0, im=0):
        re = re if type(re) is Fraction else Fraction(re)
        im = im if type(im) is Fraction else Fraction(im)
        return _reduced(re.numerator * im.denominator,
                        im.numerator * re.denominator,
                        re.denominator * im.denominator)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    re = property(lambda self: Fraction(self._triple[0], self._triple[2]))
    im = property(lambda self: Fraction(self._triple[1], self._triple[2]))

    # -- coercion -------------------------------------------------------

    @staticmethod
    def _coerce(other):             # a triple, or NotImplemented
        if isinstance(other, GaussianRational):
            return other._triple
        if type(other) is int:
            return other, 0, 1
        if isinstance(other, Rational):     # Fraction among them
            return int(other.numerator), 0, int(other.denominator)
        return NotImplemented

    # -- predicates -------------------------------------------------------

    def is_zero(self) -> bool:
        return not (self._triple[0] or self._triple[1])

    def is_real(self) -> bool:
        return not self._triple[1]

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        (ar, ai, ad), (br, bi, bd) = self._triple, o
        if ad == bd:
            return _reduced(ar + br, ai + bi, ad)
        return _reduced(ar * bd + br * ad, ai * bd + bi * ad, ad * bd)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self + _reduced(-o[0], -o[1], o[2])

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return -self + _reduced(*o)

    def __neg__(self):
        return _reduced(-self._triple[0], -self._triple[1], self._triple[2])

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        (ar, ai, ad), (br, bi, bd) = self._triple, o
        if not bi:              # real factor: skip the products with zero
            return _reduced(ar * br, ai * br, ad * bd)
        return _reduced(ar * br - ai * bi, ar * bi + ai * br, ad * bd)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        (ar, ai, ad), (br, bi, bd) = self._triple, o
        norm = br * br + bi * bi
        if not norm:
            raise ZeroDivisionError("division by zero GaussianRational")
        # (a / ad) / (b / bd) = a conj(b) bd / (ad |b|^2)
        return _reduced((ar * br + ai * bi) * bd, (ai * br - ar * bi) * bd,
                        ad * norm)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return _reduced(*o) / self

    def __pow__(self, n: int):
        if not isinstance(n, int):
            return NotImplemented
        zr, zi, zd = (self if n >= 0 else 1 / self)._triple
        n = abs(n)
        re, im, den = 1, 0, zd ** n
        while n:            # the Gaussian integer numerator, squared up
            if n & 1:
                re, im = re * zr - im * zi, re * zi + im * zr
            zr, zi = zr * zr - zi * zi, 2 * zr * zi
            n >>= 1
        return _reduced(re, im, den)

    def conjugate(self) -> "GaussianRational":
        return _reduced(self._triple[0], -self._triple[1], self._triple[2])

    # -- comparisons / conversions ----------------------------------------

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self._triple == o

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero()

    def __complex__(self) -> complex:
        ar, ai, ad = self._triple
        return complex(ar / ad, ai / ad)    # int true division rounds exactly

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        re, im = self.re, self.im
        if im == 0:
            return str(re)
        im_text = f"{im}i" if abs(im) != 1 else ("i" if im > 0 else "-i")
        if re == 0:
            return im_text
        sign = "+" if im > 0 else ""
        return f"{re}{sign}{im_text}"


_set = GaussianRational.__dict__["_triple"].__set__


def _reduced(re: int, im: int, den: int) -> GaussianRational:
    """The scalar ``(re + im i) / den`` for ``den > 0``, in lowest terms."""
    g = gcd(re, im, den)
    out = object.__new__(GaussianRational)
    _set(out, (re, im, den) if g == 1 else (re // g, im // g, den // g))
    return out


ONE = GaussianRational(1)
I = GaussianRational(0, 1)
