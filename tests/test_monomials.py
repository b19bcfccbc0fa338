from itertools import combinations

import pytest

from conftest import random_monomial_ideal, seeded
from liaison.errors import ResourceLimitError
from liaison.fields import GF, QQ
from liaison.groebner import Ideal
from liaison.ideal_ops import _intersect_by_elimination, ideal_equal
from liaison.monomials import (
    associated_primes_monomial,
    cd_monomial,
    ext_nonvanishing_degrees,
    hochster_pd,
    intersect_primes,
    monomial_exponents,
    monomial_radical,
    primary_decomposition_monomial,
    prime_ideal,
    primes_containing,
    reduced_homology_dims,
)
from liaison.resolutions import grade_via_ext, pd_via_resolution
from liaison.rings import PolyRing


def _support(exps):
    return frozenset(i for i, e in enumerate(exps) if e)


@pytest.fixture(scope="module")
def flagship(r4):
    x1, x2, x3, x4 = r4.gens()
    return Ideal(r4, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))


def test_monomial_radical_examples(r2):
    x, y = r2.gens()
    assert ideal_equal(monomial_radical(Ideal(r2, (x**2, x * y))), Ideal(r2, (x,)))
    assert ideal_equal(monomial_radical(Ideal(r2, (x * y,))), Ideal(r2, (x * y,)))
    assert ideal_equal(monomial_radical(Ideal(r2, (x**3,))), Ideal(r2, (x,)))
    with pytest.raises(ValueError):
        monomial_radical(Ideal(r2, (x + y**2,)))


def test_primary_decomposition_examples(r2, r4):
    x, y = r2.gens()
    comps = primary_decomposition_monomial(Ideal(r2, (x**2, x * y)))
    expected = [Ideal(r2, (x,)), Ideal(r2, (x**2, y))]
    assert len(comps) == 2
    for e in expected:
        assert any(ideal_equal(c, e) for c in comps)

    comps = primary_decomposition_monomial(Ideal(r2, (x * y,)))
    assert len(comps) == 2

    x1, x2, x3, x4 = r4.gens()
    comps = primary_decomposition_monomial(Ideal(r4, (x1 * x3, x2 * x4)))
    expected_primes = [
        Ideal(r4, (x1, x2)),
        Ideal(r4, (x1, x4)),
        Ideal(r4, (x2, x3)),
        Ideal(r4, (x3, x4)),
    ]
    assert len(comps) == 4
    for e in expected_primes:
        assert any(ideal_equal(c, e) for c in comps)


def test_decomposition_soundness_50_seeded():
    ring = PolyRing(QQ, [f"x{i}" for i in range(1, 7)])
    rng = seeded(61)
    for _ in range(50):
        I = random_monomial_ideal(rng, ring, max_gens=4, max_degree=3)
        if I.is_unit():
            continue
        comps = primary_decomposition_monomial(I)
        # the decomposition merges components by the pairwise-lcm rule, so
        # the rebuild takes the elimination route
        back = comps[0]
        for comp in comps[1:]:
            back = _intersect_by_elimination(back, comp)
        assert ideal_equal(back, I)


def _intersection(ideals):
    result = ideals[0]
    for ideal in ideals[1:]:
        result = _intersect_by_elimination(result, ideal)
    return result


def _assert_irredundant_primary_decomposition(I):
    """The four facts that, by the first uniqueness theorem, fix Ass(R/I) as
    the set of radicals of the components."""
    comps = primary_decomposition_monomial(I)
    assert ideal_equal(_intersection(comps), I)
    radicals = []
    for comp in comps:
        exps = monomial_exponents(comp)
        powers = {i for e in exps for i in _support(e) if len(_support(e)) == 1}
        # primary: every generator lives on variables the component holds a
        # pure power of, so those variables are its radical
        assert all(_support(e) <= powers for e in exps)
        radicals.append(frozenset(powers))
    for idx, comp in enumerate(comps):
        others = comps[:idx] + comps[idx + 1 :]
        if others:
            assert not all(comp.contains(g) for g in _intersection(others).gens)
    assert len(set(radicals)) == len(radicals)
    assert associated_primes_monomial(I).all_primes == frozenset(radicals)


def test_primary_decomposition_is_irredundant_on_200_seeded(r2):
    x, y = r2.gens()
    _assert_irredundant_primary_decomposition(Ideal(r2, (x**2, x * y)))  # embedded (x, y)
    rng = seeded(83)
    done = 0
    while done < 200:
        n = 2 + done % 5
        ring = PolyRing(QQ, [f"x{i}" for i in range(1, n + 1)])
        I = random_monomial_ideal(rng, ring, max_gens=4, max_degree=3)
        if all(e <= 1 for m in monomial_exponents(I) for e in m):
            continue
        _assert_irredundant_primary_decomposition(I)
        done += 1


def test_associated_primes_examples(r2, r4):
    x, y = r2.gens()
    ass = associated_primes_monomial(Ideal(r2, (x**2, x * y)))
    assert ass.all_primes == frozenset({frozenset({0}), frozenset({0, 1})})
    assert ass.minimal == frozenset({frozenset({0})})
    assert not ass.is_unmixed()

    ass = associated_primes_monomial(Ideal(r2, (x * y,)))
    assert ass.is_unmixed()
    assert len(ass.all_primes) == 2

    x1, x2, x3, x4 = r4.gens()
    ass = associated_primes_monomial(Ideal(r4, (x1 * x3, x2 * x4)))
    assert ass.is_unmixed()
    assert len(ass.all_primes) == 4

    zero = associated_primes_monomial(Ideal(r2, ()))
    assert zero.all_primes == frozenset({frozenset()})


def test_hochster_examples(r2, flagship):
    x, y = r2.gens()
    assert hochster_pd(flagship) == 3
    ring = PolyRing(QQ, ["x", "y", "z", "w"])
    xx, yy, zz, ww = ring.gens()
    assert hochster_pd(Ideal(ring, (xx * yy, zz * ww))) == 2
    assert hochster_pd(Ideal(r2, (x,))) == 1
    assert hochster_pd(Ideal(r2, (x, y))) == 2  # the complex is {empty face}
    assert hochster_pd(Ideal(r2, (x * y,))) == 1  # two points
    with pytest.raises(ValueError):
        hochster_pd(Ideal(r2, (x**2,)))
    with pytest.raises(ValueError):
        hochster_pd(Ideal(r2, (r2.one,)))
    with pytest.raises(ValueError):
        hochster_pd(Ideal(r2, ()))


def test_hochster_guard():
    ring = PolyRing(QQ, [f"x{i}" for i in range(13)])
    gens = (ring.gen(0),)
    with pytest.raises(ResourceLimitError):
        hochster_pd(Ideal(ring, gens))


def _faces(I):
    """The Stanley-Reisner complex on all n vertices of the ring: every vertex
    subset containing no generator support (unused variables are cone points)."""
    n = I.ring.nvars
    nonfaces = [_support(g.terms[0][0]) for g in I.gens]
    subsets = (frozenset(c) for r in range(n + 1) for c in combinations(range(n), r))
    return [s for s in subsets if not any(nf <= s for nf in nonfaces)]


def _pd_over_all_restrictions(I):
    """Hochster's formula over every one of the 2^n vertex restrictions."""
    n = I.ring.nvars
    faces = _faces(I)
    best = 0
    for r in range(n + 1):
        for sigma in combinations(range(n), r):
            s = frozenset(sigma)
            restricted = [f for f in faces if f <= s]
            for d in reduced_homology_dims(restricted, I.ring.field):
                best = max(best, len(s) - d - 1)
    return best


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_hochster_lattice_matches_all_restrictions(field):
    rng = seeded(79)
    done = 0
    while done < 20:
        n = 5 + done % 3
        ring = PolyRing(field, [f"x{i}" for i in range(1, n + 1)])
        I = random_monomial_ideal(rng, ring, max_gens=5, squarefree=True)
        if I.is_unit():
            continue
        assert hochster_pd(I) == _pd_over_all_restrictions(I)
        done += 1


def test_restriction_outside_lcm_lattice_is_acyclic():
    ring = PolyRing(QQ, [f"x{i}" for i in range(1, 6)])
    x1, x2, x3, x4, x5 = ring.gens()
    faces = _faces(Ideal(ring, (x1 * x2, x3 * x4)))
    # {x1, x2, x5} is no union of generator supports: a cone on x5
    sigma = frozenset({0, 1, 4})
    assert reduced_homology_dims([f for f in faces if f <= sigma], QQ) == {}
    # {x1, x2} is in the lattice and carries homology
    sigma = frozenset({0, 1})
    assert reduced_homology_dims([f for f in faces if f <= sigma], QQ) == {0: 1}


def test_hochster_with_variables_in_no_generator():
    ring = PolyRing(QQ, [f"x{i}" for i in range(1, 9)])
    x = ring.gens()
    for gens in [(x[0] * x[1], x[2] * x[3]), (x[1] * x[4], x[4] * x[6]), (x[0] * x[2] * x[7],)]:
        I = Ideal(ring, gens)
        assert hochster_pd(I) == pd_via_resolution(I) == _pd_over_all_restrictions(I)


@pytest.mark.parametrize("field, pd", [(QQ, 3), (GF(2), 4)], ids=["QQ", "GF2"])
def test_hochster_rp2_depends_on_characteristic(field, pd):
    # Stanley-Reisner ideal of the 6-vertex real projective plane: the 10
    # triples that are not triangles; H~_1 = Z/2 shows only in characteristic 2
    triangles = ("123", "134", "145", "156", "126", "235", "245", "246", "346", "356")
    faces = {frozenset(triangle) for triangle in triangles}
    ring = PolyRing(field, [f"x{i}" for i in range(1, 7)])
    x = dict(zip("123456", ring.gens()))
    cubics = tuple(
        x[a] * x[b] * x[c]
        for a, b, c in combinations("123456", 3)
        if frozenset((a, b, c)) not in faces
    )
    I = Ideal(ring, cubics)
    assert len(cubics) == 10
    assert hochster_pd(I) == pd
    assert pd_via_resolution(I) == pd


def test_cd_bounded_work_in_twelve_variables():
    # three disjoint edges in 12 variables: 8 lattice points, not 4096
    ring = PolyRing(QQ, [f"x{i}" for i in range(1, 13)])
    x = ring.gens()
    assert cd_monomial(Ideal(ring, (x[0] * x[1], x[2] * x[3], x[4] * x[5]))) == 3


def test_cd_examples(r2, flagship):
    x, y = r2.gens()
    assert cd_monomial(Ideal(r2, (x,))) == 1
    assert cd_monomial(flagship) == 3
    assert cd_monomial(Ideal(r2, (x**2, x * y))) == 1


def test_ext_nonvanishing_examples(r2, flagship):
    x, y = r2.gens()
    assert ext_nonvanishing_degrees(flagship) == {2, 3}
    ring = PolyRing(QQ, ["x", "y", "z", "w"])
    xx, yy, zz, ww = ring.gens()
    assert ext_nonvanishing_degrees(Ideal(ring, (xx * yy, zz * ww))) == {2}
    assert ext_nonvanishing_degrees(Ideal(r2, (x,))) == {1}


def test_cd_is_radical_invariant():
    ring = PolyRing(QQ, ["x", "y", "z"])
    rng = seeded(67)
    for _ in range(10):
        I = random_monomial_ideal(rng, ring, max_gens=3, max_degree=3)
        if I.is_unit() or I.is_zero():
            continue
        assert cd_monomial(I) == cd_monomial(monomial_radical(I))


def test_ext_degrees_bracket_grade_and_cd():
    ring = PolyRing(QQ, ["x", "y", "z", "w"])
    rng = seeded(71)
    done = 0
    while done < 10:
        I = random_monomial_ideal(rng, ring, max_gens=3, squarefree=True)
        if I.is_unit() or I.is_zero():
            continue
        degrees = ext_nonvanishing_degrees(I)
        assert min(degrees) == grade_via_ext(I, None)
        assert max(degrees) == cd_monomial(I)
        done += 1


def test_grade_cd_generator_bounds():
    ring = PolyRing(QQ, ["x", "y", "z", "w"])
    rng = seeded(73)
    done = 0
    while done < 12:
        I = random_monomial_ideal(rng, ring, max_gens=4, max_degree=2)
        if I.is_unit() or I.is_zero():
            continue
        grade = grade_via_ext(I, None)
        cd = cd_monomial(I)
        assert grade <= cd <= min(len(I.groebner()), ring.dim)
        done += 1


def test_hochster_characteristic_dependence_runs_mod_p():
    # same combinatorics, prime-field ranks: the oracle must stay consistent
    ring = PolyRing(GF(5), ["x", "y", "z"])
    x, y, z = ring.gens()
    I = Ideal(ring, (x * y, y * z))
    assert hochster_pd(I) == pd_via_resolution(I)


def test_intersect_primes_empty_is_unit(r2):
    assert intersect_primes(r2, []).is_unit()


def test_primes_containing(r4):
    x1, x2, x3, x4 = r4.gens()
    primes = {frozenset(), frozenset({0}), frozenset({2}), frozenset({1, 3})}
    assert primes_containing(Ideal(r4, (x1 * x3,)), primes) == {frozenset({0}), frozenset({2})}
    assert primes_containing(Ideal(r4, (x2, x4**2)), primes) == {frozenset({1, 3})}
    assert primes_containing(Ideal(r4, ()), primes) == primes
    assert primes_containing(Ideal(r4, (r4.one,)), primes) == set()


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=str)
def test_cd_of_a_coordinate_prime_is_its_size(field):
    # check_t1 reads cd(p) as len(p) instead of asking Hochster
    ring = PolyRing(field, [f"x{i}" for i in range(1, 6)])
    for k in range(1, 6):
        for p in combinations(range(5), k):
            assert cd_monomial(prime_ideal(ring, frozenset(p))) == k
