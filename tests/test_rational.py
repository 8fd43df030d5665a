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
