"""The combinatorial answers to monomial questions, checked against the
general routes they stand in for: pd of a complete intersection against
Hochster's formula over all restrictions and the minimal free resolution,
and membership by divisibility against the normal form."""

import pytest

import liaison.monomials as monomials_mod
from conftest import seeded
from liaison.errors import ResourceLimitError
from liaison.fields import GF, QQ
from liaison.groebner import Ideal, reduce_normal_form
from liaison.monomials import cd_monomial, hochster_pd, monomial_exponents
from liaison.resolutions import pd_via_resolution
from liaison.rings import PolyRing
from test_monomials import _pd_over_all_restrictions


def _supports(I):
    return [frozenset(i for i, e in enumerate(m) if e) for m in monomial_exponents(I)]


def _is_complete_intersection(I):
    supports = _supports(I)
    return sum(map(len, supports)) == len(frozenset().union(*supports))


def test_hochster_matches_the_general_routes_on_every_workload_radical(workload_pass):
    radicals = list(workload_pass["radicals"].values())
    # 31 radicals at seed 1, 28 of them complete intersections; the floors
    # leave a margin and keep both sides of the gate in view
    complete = [I for I in radicals if _is_complete_intersection(I)]
    assert len(radicals) >= 25
    assert len(complete) >= 20
    assert len(radicals) - len(complete) >= 3
    for I in radicals:
        pd = hochster_pd(I)
        assert pd == _pd_over_all_restrictions(I) == pd_via_resolution(I), I
        if I in complete:
            assert pd == len(I.groebner())


def _blocks(rng, n):
    """At least two pairwise disjoint nonempty variable sets in range(n), the
    first of size two or more."""
    while True:
        vertices = rng.sample(range(n), rng.randrange(3, n + 1))
        k = rng.randrange(2, len(vertices))
        cuts = sorted(rng.sample(range(1, len(vertices)), k - 1))
        blocks = [vertices[i:j] for i, j in zip([0] + cuts, cuts + [len(vertices)])]
        if len(blocks[0]) >= 2:
            return blocks


def _squarefree_ideal(ring, supports):
    exps = [tuple(int(i in s) for i in range(ring.nvars)) for s in supports]
    return Ideal(ring, tuple(ring.monomial(e) for e in exps))


@pytest.mark.parametrize("field", [QQ, GF(2)], ids=["QQ", "GF2"])
def test_complete_intersections_and_near_misses(field, monkeypatch):
    """Disjoint supports are answered by the generator count with no
    homology computed; supports sharing one variable still walk the
    lattice; both agree with the general routes."""
    homology = []
    true_dims = monomials_mod.reduced_homology_dims

    def counting(faces, f):
        homology.append(1)
        return true_dims(faces, f)

    monkeypatch.setattr(monomials_mod, "reduced_homology_dims", counting)
    rng = seeded(89)
    for round_ in range(24):
        n = 4 + round_ % 4
        ring = PolyRing(field, [f"x{i}" for i in range(1, n + 1)])
        blocks = _blocks(rng, n)
        # the first block's first variable joins the second block: the two
        # supports share exactly it, and neither contains the other
        near = [blocks[0], blocks[1] + blocks[0][:1]] + blocks[2:]
        for supports, complete in ((blocks, True), (near, False)):
            I = _squarefree_ideal(ring, supports)
            assert len(I.groebner()) == len(supports)
            assert _is_complete_intersection(I) == complete
            del homology[:]
            pd = hochster_pd(I)
            assert bool(homology) != complete, supports
            assert pd == _pd_over_all_restrictions(I) == pd_via_resolution(I), supports
            if complete:
                assert pd == len(supports)


def test_the_guards_come_before_the_shortcut():
    # disjoint supports in 13 variables: still past the variable cap
    ring = PolyRing(QQ, [f"x{i}" for i in range(1, 14)])
    x = ring.gens()
    with pytest.raises(ResourceLimitError):
        cd_monomial(Ideal(ring, (x[0] * x[1], x[2] * x[3])))
    with pytest.raises(ResourceLimitError):
        hochster_pd(Ideal(ring, x))
    # disjoint supports, but not squarefree; and the zero and unit ideals
    r2 = PolyRing(QQ, ["x", "y"])
    x, y = r2.gens()
    for I in (Ideal(r2, (x**2, y)), Ideal(r2, (x**2, y**3)), Ideal(r2, ()), Ideal(r2, (r2.one,))):
        with pytest.raises(ValueError):
            hochster_pd(I)


def test_membership_by_divisibility_matches_the_normal_form(workload_pass):
    members = workload_pass["members"]
    pairs = list(members.items())
    answers = [I.contains(f) for (_, _, f), I in pairs]
    # 6,481 pairs, 885 of them non-members and none over the unit ideal
    # (test_membership_edge_cases checks that basis); the floors leave a
    # margin below what seed 1 and the fuzz seeds ask
    assert len(pairs) >= 5000
    assert sum(answers) >= 4000 and len(answers) - sum(answers) >= 600
    assert {ring.order for ring, _, _ in members} == {"lex", "grevlex"}
    for ((_, gb, f), I), answer in zip(pairs, answers):
        assert answer == reduce_normal_form(f, list(gb)).is_zero(), (I, f)


@pytest.mark.parametrize("order", ["lex", "grevlex"])
def test_membership_edge_cases(order):
    ring = PolyRing(QQ, ["x", "y", "z"], order=order)
    x, y, z = ring.gens()
    zero, one = ring.zero, ring.one
    cases = [
        (Ideal(ring, (x**2, x * y)), [zero, x**2 * z - x * y, x**3 + x * y**2 * z, x, x + y, one]),
        (Ideal(ring, (one,)), [zero, one, x + y, x * y * z]),
        (Ideal(ring, ()), [zero, one, x]),
        (Ideal(ring, (x - y, z)), [zero, x * z - y * z, x, one]),
    ]
    for I, fs in cases:
        for f in fs:
            assert I.contains(f) == reduce_normal_form(f, list(I.groebner())).is_zero()
    assert [Ideal(ring, (x**2, x * y)).contains(f) for f in cases[0][1]] == [
        True, True, True, False, False, False
    ]
    assert all(Ideal(ring, (one,)).contains(f) for f in cases[1][1])
    assert [Ideal(ring, ()).contains(f) for f in cases[2][1]] == [True, False, False]
