import pytest

from conftest import random_monomial_ideal, random_polynomial, seeded
from liaison.fields import GF, QQ
from liaison.groebner import Ideal, exp_divides
from liaison.ideal_ops import (
    ideal_contains,
    ideal_equal,
    ideal_quotient,
    intersect_ideals,
    radical_membership,
    radicals_equal,
    saturate,
)
from liaison.rings import PolyRing


def _product(I, J):
    return Ideal(I.ring, tuple(g * h for g in I.gens for h in J.gens))


def test_intersection_examples(r2, r4):
    x, y = r2.gens()
    x1, x2, x3, x4 = r4.gens()
    assert ideal_equal(intersect_ideals(Ideal(r2, (x,)), Ideal(r2, (y,))), Ideal(r2, (x * y,)))

    lhs = intersect_ideals(Ideal(r2, (x, y)), Ideal(r2, (x**2, y)))
    assert ideal_equal(lhs, Ideal(r2, (x**2, y)))

    lhs = intersect_ideals(Ideal(r4, (x1, x2)), Ideal(r4, (x3, x4)))
    expected = Ideal(r4, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))
    assert ideal_equal(lhs, expected)
    # double containment via the membership oracle
    assert ideal_contains(Ideal(r4, (x1, x2)), lhs)
    assert ideal_contains(Ideal(r4, (x3, x4)), lhs)


def test_intersection_contains_sampled_products(r3):
    rng = seeded(31)
    for _ in range(5):
        I = random_monomial_ideal(rng, r3)
        J = random_monomial_ideal(rng, r3)
        inter = intersect_ideals(I, J)
        assert ideal_contains(I, inter)
        assert ideal_contains(J, inter)
        for g in I.gens:
            for h in J.gens:
                assert inter.contains(g * h)


def test_quotient_examples(r2):
    x, y = r2.gens()
    assert ideal_equal(ideal_quotient(Ideal(r2, (x * y,)), Ideal(r2, (x,))), Ideal(r2, (y,)))
    q = ideal_quotient(Ideal(r2, (x**2, y)), Ideal(r2, (x, y)))
    assert ideal_equal(q, Ideal(r2, (x, y)))
    # J inside I gives the unit ideal
    q = ideal_quotient(Ideal(r2, (x,)), Ideal(r2, (x**2,)))
    assert q.is_unit()


def test_quotient_by_zero_rejected(r2):
    x, _ = r2.gens()
    with pytest.raises(ValueError):
        ideal_quotient(Ideal(r2, (x,)), Ideal(r2, ()))


def test_saturation_examples(r2):
    x, y = r2.gens()
    assert ideal_equal(
        saturate(Ideal(r2, (x**2 * y,)), Ideal(r2, (y,))), Ideal(r2, (x**2,))
    )
    assert ideal_equal(
        saturate(Ideal(r2, (x * y,)), Ideal(r2, (x, y))), Ideal(r2, (x * y,))
    )
    assert saturate(Ideal(r2, (x**2, x * y)), Ideal(r2, (x,))).is_unit()


def test_radical_membership_examples(r2):
    x, y = r2.gens()
    assert radical_membership(x, Ideal(r2, (x**2,)))
    assert not radical_membership(x, Ideal(r2, (y,)))
    assert radical_membership(x + y, Ideal(r2, ((x + y) ** 3,)))
    assert radical_membership(r2.zero, Ideal(r2, ()))
    assert not radical_membership(x, Ideal(r2, ()))


def test_radicals_equal_examples(r2):
    x, y = r2.gens()
    assert radicals_equal(Ideal(r2, (x**2,)), Ideal(r2, (x,)))
    xy = Ideal(r2, (x * y,))
    assert radicals_equal(xy, intersect_ideals(Ideal(r2, (x,)), Ideal(r2, (y,))))
    assert not radicals_equal(Ideal(r2, (x,)), Ideal(r2, (y,)))


def test_ideal_equal_examples(r2):
    x, y = r2.gens()
    assert ideal_equal(Ideal(r2, (x, y)), Ideal(r2, (y, x + y)))
    assert not ideal_equal(Ideal(r2, (x,)), Ideal(r2, (x**2,)))
    assert ideal_equal(Ideal(r2, ()), Ideal(r2, (r2.zero,)))


def test_quotient_product_containment(r3):
    rng = seeded(41)
    for _ in range(8):
        I = random_monomial_ideal(rng, r3)
        J = random_monomial_ideal(rng, r3)
        Q = ideal_quotient(I, J)
        for q in Q.gens:
            for j in J.gens:
                assert I.contains(q * j)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_syzygy_colon_matches_elimination(field):
    # (I : f) * f = I cap (f), with the intersection by elimination, so the
    # oracle shares no syzygy computation with the colon under test
    ring = PolyRing(field, ["x", "y", "z"])
    rng = seeded(61)
    checked = 0
    while checked < 12:
        gens = [random_polynomial(rng, ring, max_degree=2, max_terms=3) for _ in range(2)]
        f = random_polynomial(rng, ring, max_degree=2, max_terms=2)
        if len(f.terms) < 2 or all(g.is_monomial() for g in gens):
            continue
        I, F = Ideal(ring, tuple(gens)), Ideal(ring, (f,))
        assert ideal_equal(_product(ideal_quotient(I, F), F), intersect_ideals(I, F))
        checked += 1


def test_colon_associativity_on_seeded_monomials(r3):
    rng = seeded(43)
    for _ in range(25):
        I = random_monomial_ideal(rng, r3)
        J = random_monomial_ideal(rng, r3, max_gens=2)
        K = random_monomial_ideal(rng, r3, max_gens=2)
        lhs = ideal_quotient(ideal_quotient(I, J), K)
        rhs = ideal_quotient(I, _product(J, K))
        assert ideal_equal(lhs, rhs)


def _combinatorial_quotient(ring, I_exps, J_exps):
    """(I : J) for monomial ideals by the gcd rule: intersection over J's
    generators of the ideals spanned by m / gcd(m, n)."""
    result = None
    for n in J_exps:
        gens = []
        for m in I_exps:
            g = tuple(x - min(x, y) for x, y in zip(m, n))
            gens.append(g)
        keep = []
        for i, g in enumerate(gens):
            if not any(
                exp_divides(h, g) and (h != g or j < i)
                for j, h in enumerate(gens)
                if j != i
            ):
                keep.append(g)
        part = set(keep)
        if result is None:
            result = part
        else:
            # intersection of two monomial ideals: pairwise lcms, minimalized
            lcms = {tuple(max(x, y) for x, y in zip(a, b)) for a in result for b in part}
            keep = []
            lcms = sorted(lcms)
            for i, g in enumerate(lcms):
                if not any(
                    exp_divides(h, g) and (h != g or j < i)
                    for j, h in enumerate(lcms)
                    if j != i
                ):
                    keep.append(g)
            result = set(keep)
    return sorted(result)


def test_monomial_quotient_oracle_50_seeded(r3):
    rng = seeded(47)
    for _ in range(50):
        I = random_monomial_ideal(rng, r3)
        J = random_monomial_ideal(rng, r3)
        expected_exps = _combinatorial_quotient(
            r3, [g.terms[0][0] for g in I.gens], [g.terms[0][0] for g in J.gens]
        )
        expected = Ideal(r3, tuple(r3.monomial(e) for e in expected_exps))
        assert ideal_equal(ideal_quotient(I, J), expected)


def test_radical_membership_matches_power_search(r3):
    rng = seeded(53)
    ring = r3
    for _ in range(20):
        I = random_monomial_ideal(rng, ring, max_gens=3, max_degree=3)
        f = ring.monomial(
            tuple(rng.randrange(2) for _ in range(ring.nvars))
        )
        if f.is_constant():
            continue
        brute = any(I.contains(f**k) for k in range(1, 9))
        assert radical_membership(f, I) == brute
