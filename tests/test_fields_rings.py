from itertools import combinations_with_replacement

import pytest

from conftest import random_polynomial, seeded
from liaison.errors import ResourceLimitError, RingMismatchError
from liaison.fields import GF, QQ, is_prime
from liaison.limits import run_context
from liaison.rings import PolyRing, poly_str


def test_prime_detection():
    primes = [2, 3, 5, 7, 11, 101, 32003]
    for p in primes:
        assert is_prime(p)
    for n in [0, 1, 4, 9, 100, 32001]:
        assert not is_prime(n)


def test_prime_field_arithmetic():
    F = GF(7)
    assert F.add(5, 4) == 2
    assert F.mul(3, 5) == 1
    assert F.inv(3) == 5
    assert F.frac(1, 3) == 5
    with pytest.raises(ZeroDivisionError):
        F.frac(1, 7)
    with pytest.raises(ValueError):
        GF(6)
    # the least strong pseudoprime to every Miller-Rabin base 2..37
    assert 3317044064679887385961981 % 1287836182261 == 0
    with pytest.raises(ValueError):
        GF(3317044064679887385961981)


def test_ring_construction_errors():
    with pytest.raises(ValueError):
        PolyRing(QQ, [])
    with pytest.raises(ValueError):
        PolyRing(QQ, ["x", "x"])
    with pytest.raises(ValueError):
        PolyRing(QQ, ["x"], order="weird")


def _monomials_up_to(ring, degree):
    out = []
    for total in range(degree + 1):
        for combo in combinations_with_replacement(range(ring.nvars), total):
            exps = [0] * ring.nvars
            for i in combo:
                exps[i] += 1
            out.append(tuple(exps))
    return sorted(set(out))


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_order_axioms_all_pairs_degree_4(order):
    ring = PolyRing(QQ, ["x", "y", "z"], order)
    monomials = _monomials_up_to(ring, 4)
    key = ring.key
    one = (0, 0, 0)
    for a in monomials:
        assert key(a) >= key(one)  # 1 is the minimum
        for b in monomials:
            # totality: exactly one of <, =, >
            assert (key(a) < key(b)) + (key(a) == key(b)) + (key(a) > key(b)) == 1
            if key(a) < key(b):
                for c in monomials:
                    shifted_a = tuple(x + y for x, y in zip(a, c))
                    shifted_b = tuple(x + y for x, y in zip(b, c))
                    assert key(shifted_a) < key(shifted_b)  # multiplicative


def test_ring_axioms_on_sampled_triples(r3):
    rng = seeded(7)
    for _ in range(20):
        f = random_polynomial(rng, r3)
        g = random_polynomial(rng, r3)
        h = random_polynomial(rng, r3)
        assert (f + g) + h == f + (g + h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h
        assert (f * g) * h == f * (g * h)


def test_add_zero_identity_seeded(r3):
    rng = seeded(11)
    for _ in range(20):
        f = random_polynomial(rng, r3)
        assert f + r3.zero == f
        assert f - f == r3.zero


def test_canonical_print_parse_round_trip(r3):
    rng = seeded(13)
    for _ in range(25):
        f = random_polynomial(rng, r3, max_degree=4, max_terms=6)
        assert r3.parse(poly_str(f)) == f
    assert poly_str(r3.zero) == "0"
    assert r3.parse("0") == r3.zero


def test_fp_polynomial_round_trip():
    ring = PolyRing(GF(7), ["x", "y"])
    f = ring.parse("3*x^2 + 6*y - 2")
    assert ring.parse(poly_str(f)) == f
    # -2 is stored as residue 5
    assert f.terms[-1] == ((0, 0), 5)


def test_ring_mismatch_raises(r2, r3):
    with pytest.raises(RingMismatchError):
        r2.gens()[0] + r3.gens()[0]


def test_resource_caps_abort():
    ring = PolyRing(QQ, ["x"])
    x = ring.gens()[0]
    with run_context(degree=10):
        with pytest.raises(ResourceLimitError):
            x**11
        assert sum((x**10).terms[0][0]) == 10


def test_homogeneity_and_constants(r2):
    x, y = r2.gens()
    assert (x * y + x**2).is_homogeneous()
    assert not (x + r2.one).is_constant()
    assert r2.constant(5).is_constant()
    assert (x + y**2 - y**2).terms == x.terms
