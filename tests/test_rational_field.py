"""QQ coefficients against fractions.Fraction.

A QQ coefficient is an int when it is integral and a reduced Fraction
otherwise.  Every operation must agree with Fraction arithmetic and return
that form; the polynomial layer relies on equal values hashing alike.
"""

from fractions import Fraction

import pytest

from conftest import seeded
from liaison.fields import GF, QQ
from liaison.rings import PolyRing

BIG = 10**25


def _canonical(value):
    return value.numerator if value.denominator == 1 else value


def _rationals(seed, n=60):
    """Zero, units, integers and proper fractions, small and large, in
    canonical form."""
    rng = seeded(seed)
    out = [0, 1, -1, 2, -7, BIG, Fraction(1, 2), Fraction(-3, 4), Fraction(BIG + 1, 3)]
    for _ in range(n):
        num = rng.randrange(-50, 51) * rng.choice((1, 1, BIG))
        den = rng.choice((1, 1, rng.randrange(1, 13), BIG + 7))
        out.append(_canonical(Fraction(num, den)))
    return out


def _assert_form(value, expected):
    """value equals the rational expected and is in canonical form."""
    assert value == expected
    if expected.denominator == 1:
        assert type(value) is int
    else:
        assert type(value) is Fraction


def test_zero_and_one_are_ints():
    assert type(QQ.zero) is int and QQ.zero == 0
    assert type(QQ.one) is int and QQ.one == 1


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_operations_agree_with_fraction(seed):
    values = _rationals(seed)
    rng = seeded(seed + 100)
    pairs = [(a, b) for a in values[:9] for b in values[:9]]
    pairs += [(rng.choice(values), rng.choice(values)) for _ in range(400)]
    for a, b in pairs:
        fa, fb = Fraction(a), Fraction(b)
        _assert_form(QQ.add(a, b), fa + fb)
        _assert_form(QQ.sub(a, b), fa - fb)
        _assert_form(QQ.mul(a, b), fa * fb)
        _assert_form(QQ.neg(a), -fa)
        if b != 0:
            _assert_form(QQ.div(a, b), fa / fb)
        if a != 0:
            _assert_form(QQ.inv(a), 1 / fa)


@pytest.mark.parametrize("seed", [1, 2])
def test_of_and_frac_agree_with_fraction(seed):
    rng = seeded(seed)
    for value in _rationals(seed) + [Fraction(4, 2), Fraction(-9, 3), Fraction(0, 5)]:
        _assert_form(QQ.of(value), Fraction(value))
    for _ in range(300):
        num = rng.randrange(-40, 41) * rng.choice((1, BIG))
        den = rng.choice((-1, 1)) * rng.randrange(1, 25)
        _assert_form(QQ.frac(num, den), Fraction(num, den))


def test_zero_divisors_raise():
    with pytest.raises(ZeroDivisionError):
        QQ.frac(3, 0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.div(Fraction(1, 2), 0)


def test_prime_field_reads_numerator_and_denominator():
    F = GF(7)
    assert F.of(Fraction(1, 3)) == 5
    assert F.of(-3) == 4
    assert F.of(Fraction(6, 2)) == 3
    assert F.div(3, 5) == F.mul(3, F.inv(5))
    with pytest.raises(ZeroDivisionError):
        F.div(1, 7)


def test_fraction_and_int_terms_build_one_polynomial():
    ring = PolyRing(QQ, ["x", "y"])
    as_fraction = ring.poly([((1, 0), Fraction(3)), ((0, 1), Fraction(1, 2))])
    as_int = ring.poly([((1, 0), 3), ((0, 1), Fraction(1, 2))])
    assert as_fraction == as_int
    assert hash(as_fraction) == hash(as_int)
    assert type(as_fraction.terms[0][1]) is int
    x, y = ring.gens()
    doubled = (x.scale(Fraction(1, 2)) + y.scale(Fraction(3, 2))).scale(2)
    assert [type(c) for _, c in doubled.terms] == [int, int]
    assert doubled == x + y.scale(3)

