import math
import operator
import random
from fractions import Fraction

import pytest

from ptcontour.rational import I, GaussianRational as Q


def test_construction_and_fields():
    v = Q(Fraction(2, 4), Fraction(-6, 9))
    assert (v.re.numerator, v.re.denominator) == (1, 2)
    assert (v.im.numerator, v.im.denominator) == (-2, 3)
    assert v.re.denominator > 0 and v.im.denominator > 0


def test_exact_equality():
    assert Q(Fraction(1, 3)) == Q(Fraction(2, 6))
    assert Q(1, 2) != Q(1, 3)
    assert Q(5) == 5
    assert hash(Q(1, 2)) == hash(Q(Fraction(2, 2), Fraction(4, 2)))


def test_arithmetic():
    a = Q(1, 2)      # 1 + 2i
    b = Q(3, -1)     # 3 - i
    assert a + b == Q(4, 1)
    assert a - b == Q(-2, 3)
    assert a * b == Q(5, 5)            # (1+2i)(3-i) = 3 - i + 6i + 2 = 5 + 5i
    assert a / a == Q(1)
    assert (a / b) * b == a
    assert -a == Q(-1, -2)
    assert 2 * a == Q(2, 4)
    assert Fraction(1, 2) * a == Q(Fraction(1, 2), 1)


def test_powers():
    assert I ** 2 == Q(-1)
    assert I ** 3 == Q(0, -1)
    assert I ** 4 == Q(1)
    assert Q(0, -2) ** 6 == Q(-64)          # (-2i)^6 = -64
    assert Q(0, -2) ** -2 == Q(Fraction(-1, 4))
    assert Q(3) ** 0 == Q(1)


def test_conjugate_and_predicates():
    v = Q(2, -3)
    assert v.conjugate() == Q(2, 3)
    assert v.conjugate().conjugate() == v
    assert Q(5).is_real()
    assert not Q(5, 1).is_real()
    assert Q(0).is_zero() and not Q(0, 1).is_zero()


def test_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        Q(1) / Q(0)


def test_complex_conversion_and_str():
    assert complex(Q(1, -2)) == 1 - 2j
    assert str(Q(0, -2)) == "-2i"
    assert str(Q(Fraction(1, 3), Fraction(2, 5))) == "1/3+2/5i"
    assert str(Q(0, 1)) == "i"
    assert str(Q(7)) == "7"


def test_immutability():
    v = Q(1, 1)
    with pytest.raises(AttributeError):
        v.re = Fraction(2)


# --- fuzz against a reference built on a pair of Fractions -------------------

class Pair:
    """The reference: re + im i as two Fractions, with the operations and
    the str, repr and hash that GaussianRational must reproduce."""

    def __init__(self, re=0, im=0):
        self.re, self.im = Fraction(re), Fraction(im)

    @classmethod
    def lift(cls, v):
        return v if isinstance(v, Pair) else cls(v)

    def __add__(self, o):
        o = Pair.lift(o)
        return Pair(self.re + o.re, self.im + o.im)

    def __sub__(self, o):
        o = Pair.lift(o)
        return Pair(self.re - o.re, self.im - o.im)

    def __mul__(self, o):
        o = Pair.lift(o)
        return Pair(self.re * o.re - self.im * o.im,
                    self.re * o.im + self.im * o.re)

    def __truediv__(self, o):
        o = Pair.lift(o)
        d = o.re * o.re + o.im * o.im
        if d == 0:
            raise ZeroDivisionError
        return Pair((self.re * o.re + self.im * o.im) / d,
                    (self.im * o.re - self.re * o.im) / d)

    def __pow__(self, n):
        out, base = Pair(1), self if n >= 0 else Pair(1) / self
        for _ in range(abs(n)):
            out = out * base
        return out

    def conjugate(self):
        return Pair(self.re, -self.im)

    def __eq__(self, o):
        o = Pair.lift(o)
        return (self.re, self.im) == (o.re, o.im)

    def __hash__(self):
        return hash((self.re, self.im))

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        im = (f"{self.im}i" if abs(self.im) != 1
              else ("i" if self.im > 0 else "-i"))
        if self.re == 0:
            return im
        return f"{self.re}{'+' if self.im > 0 else ''}{im}"


def _draw_fraction(rng):
    kind = rng.random()
    if kind < 0.15:
        return Fraction(0)
    bits = rng.choice((3, 8, 40, 120))
    num = rng.randint(-2 ** bits, 2 ** bits)
    if kind < 0.4:
        return Fraction(num)
    return Fraction(num, rng.randint(1, 2 ** rng.choice((3, 8, 40, 120))))


def _draw_pair(rng):
    re, im = _draw_fraction(rng), _draw_fraction(rng)
    if rng.random() < 0.3:
        im = Fraction(0)
    return Q(re, im), Pair(re, im)


def _draw_scalar(rng):
    f = _draw_fraction(rng)
    return int(f) if f.denominator == 1 and rng.random() < 0.5 else f


def assert_same(got, ref):
    """``got`` is the reference's value in the normalized triple."""
    assert type(got) is Q
    assert (got.re, got.im) == (ref.re, ref.im)
    assert type(got.re) is Fraction and type(got.im) is Fraction
    re, im, den = got._triple
    assert den > 0 and math.gcd(re, im, den) == 1
    assert Fraction(re, den) == ref.re and Fraction(im, den) == ref.im
    assert (str(got), repr(got), hash(got)) == (str(ref), repr(ref), hash(ref))
    assert complex(got) == complex(float(ref.re), float(ref.im))


_OPS = (operator.add, operator.sub, operator.mul, operator.truediv)


def test_fuzz_against_fraction_pair_reference():
    rng = random.Random(20240607)
    for _ in range(250):
        (x, xr), (y, yr) = _draw_pair(rng), _draw_pair(rng)
        s = _draw_scalar(rng)
        assert_same(x, xr)
        assert_same(x.conjugate(), xr.conjugate())
        assert_same(-x, Pair(0) - xr)
        for op in _OPS:
            for left, right, ref_left, ref_right in (
                    (x, y, xr, yr), (x, s, xr, s), (s, x, Pair(s), xr)):
                try:
                    ref = op(ref_left, ref_right)
                except ZeroDivisionError:
                    with pytest.raises(ZeroDivisionError):
                        op(left, right)
                    continue
                assert_same(op(left, right), ref)
        n = rng.randint(-5, 7)
        if n >= 0 or not x.is_zero():
            assert_same(x ** n, xr ** n)
        else:
            with pytest.raises(ZeroDivisionError):
                x ** n
        # == against int and Fraction from either side, and hash
        for other in (s, Fraction(s), x.re, int(x.re)):
            assert (x == other) is (other == x) is (xr == other)
            assert (x != other) is not (xr == other)
        assert (x == y) is (xr == yr) and (hash(x) == hash(y)) >= (x == y)
        assert hash(Q(x.re, x.im)) == hash(x)


def test_foreign_operands_are_not_implemented():
    v = Q(1, 2)
    for op in (*_OPS, operator.pow):
        with pytest.raises(TypeError):
            op(v, "1")
    for op in _OPS:
        with pytest.raises(TypeError):
            op("1", v)
    assert v.__mul__(1.5) is NotImplemented
    assert (v == 1.0) is False and (v == "x") is False
