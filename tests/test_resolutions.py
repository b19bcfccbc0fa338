from pathlib import Path

import pytest

from conftest import random_monomial_ideal, seeded, syzygy_oracle
from liaison import checks, limits, resolutions
from liaison.fields import GF, QQ
from liaison.groebner import Ideal, module_groebner_basis
from liaison.instancefile import parse_instance
from liaison.linkage import CyclicModule, free_module
from liaison.monomials import (
    associated_primes_monomial,
    hochster_pd,
    monomial_radical,
)
from liaison.resolutions import (
    ext_nonzero,
    free_resolution,
    grade_via_ext,
    nonzero_ext_degrees,
    pd_via_resolution,
)
from liaison.rings import PolyRing


@pytest.fixture(scope="module")
def flagship(r4):
    x1, x2, x3, x4 = r4.gens()
    return Ideal(r4, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))


def test_resolution_examples(r2, flagship):
    x, y = r2.gens()
    assert free_resolution(Ideal(r2, (x,))).ranks == (1, 1)
    assert free_resolution(Ideal(r2, (x, y))).ranks == (1, 2, 1)
    assert free_resolution(flagship).ranks == (1, 4, 4, 1)


def _apply_columns(cols, vec):
    """Image of vec under the map whose columns are cols."""
    acc = [vec[0].ring.zero] * len(cols[0])
    for coeff, col in zip(vec, cols):
        acc = [a + coeff * b for a, b in zip(acc, col)]
    return acc


def test_resolution_composition_zero(r3, flagship):
    rng = seeded(83)
    candidates = [flagship]
    for _ in range(4):
        I = random_monomial_ideal(rng, r3, max_gens=3)
        if not I.is_unit() and not I.is_zero():
            candidates.append(I)
    for I in candidates:
        res = free_resolution(I)
        for i in range(1, res.length):
            for col in res.diffs[i]:
                assert not any(_apply_columns(res.diffs[i - 1], col))


def test_resolution_removes_redundant_generator(r2):
    x, y = r2.gens()
    res = free_resolution(Ideal(r2, (x, y, x + y)))
    assert res.ranks == (1, 2, 1)


def test_minimal_requires_homogeneous(r2):
    x, y = r2.gens()
    with pytest.raises(ValueError):
        pd_via_resolution(Ideal(r2, (x**2 - y,)))
    # but a plain resolution is fine
    res = free_resolution(Ideal(r2, (x**2 - y,)))
    assert res.ranks == (1, 1)


def _form(rng, ring, degree):
    """A nonzero form of the given degree with up to three terms and
    coefficients in [-3, 3]."""
    while True:
        items = []
        for _ in range(rng.randint(1, 3)):
            exps = [0] * ring.nvars
            for _ in range(degree):
                exps[rng.randrange(ring.nvars)] += 1
            items.append((tuple(exps), ring.field.of(rng.choice((-3, -2, -1, 1, 2, 3)))))
        f = ring.poly(items)
        if not f.is_zero():
            return f


def _pivoting_ideals():
    """Seeded ideals whose syzygies carry unit entries, over QQ and GF(7) in
    grevlex and lex: a redundant generator g1 + h*g2 of homogeneous data, and
    non-homogeneous generators such as x^2 - y."""
    rng = seeded(107)
    out = []
    for field in (QQ, GF(7)):
        for order in ("grevlex", "lex"):
            ring = PolyRing(field, ["x", "y", "z"], order)
            x, y, z = ring.gens()
            for _ in range(3):
                g1, g2, h = _form(rng, ring, 2), _form(rng, ring, 1), _form(rng, ring, 1)
                out.append(Ideal(ring, (g1, g2, g1 + h * g2, _form(rng, ring, 2))))
            out.append(Ideal(ring, (x**2 - y, x * y - z, _form(rng, ring, 2))))
            out.append(Ideal(ring, (x**2 - y, y**2 - z, x * z)))
    return [I for I in out if not I.is_unit()]


@pytest.fixture(scope="module")
def pivoting(flagship):
    r4 = PolyRing(QQ, ["x", "y", "z", "w"])
    x, y, z, w = r4.gens()
    gf = PolyRing(GF(7), ["x", "y", "z"], "lex")
    u, v, t = gf.gens()
    return [
        flagship,
        Ideal(r4, (x * y - z, z * w - x, y**2 - w)),
        Ideal(gf, (u**2 - v, v * t - u, t**2 + gf.constant(3) * u)),
    ] + _pivoting_ideals()


def test_resolution_is_exact_by_the_syzygy_oracle(pivoting):
    for I in pivoting:
        diffs = free_resolution(I).diffs
        # the kept generators still generate a
        assert Ideal(I.ring, [col[0] for col in diffs[0]]).groebner() == I.groebner()
        # im d_{i+1} = ker d_i, and d_last is injective
        for prev, cols in zip(diffs, diffs[1:]):
            kernel = module_groebner_basis(syzygy_oracle(prev))
            assert module_groebner_basis(cols) == kernel, I
        assert syzygy_oracle(diffs[-1]) == [], I


def test_minimal_has_no_constant_entries(pivoting):
    pruned = 0
    for I in pivoting:
        res = free_resolution(I)
        for cols in res.diffs:
            for col in cols:
                for entry in col:
                    assert entry.is_zero() or not entry.is_constant(), I
        distinct = set(g for g in I.gens if not g.is_zero())
        pruned += res.ranks[1] < len(distinct)
        if all(g.is_homogeneous() for g in I.gens):
            # minimal, so the ranks are invariants of R/a
            assert res.ranks == free_resolution(Ideal(I.ring, I.groebner())).ranks, I
    assert pruned  # the set does pivot


def test_pd_examples(r2, flagship):
    x, y = r2.gens()
    ring = PolyRing(QQ, ["x", "y", "z", "w"])
    xx, yy, zz, ww = ring.gens()
    assert pd_via_resolution(Ideal(r2, (x,))) == 1
    assert pd_via_resolution(Ideal(ring, (xx * yy, zz * ww))) == 2
    assert pd_via_resolution(flagship) == 3


def test_ext_nonzero_examples(r2):
    x, y = r2.gens()
    m = Ideal(r2, (x, y))
    R = free_module(r2)
    assert ext_nonzero(2, m, R)
    assert not ext_nonzero(1, m, R)
    assert not ext_nonzero(0, Ideal(r2, (x,)), R)
    with pytest.raises(ValueError):
        ext_nonzero(-1, m, R)
    assert not ext_nonzero(9, m, R)


def test_grade_examples(r2, flagship):
    x, y = r2.gens()
    assert grade_via_ext(Ideal(r2, (x, y)), free_module(r2)) == 2
    torsion = CyclicModule(r2, Ideal(r2, (x * y,)))
    assert grade_via_ext(Ideal(r2, (x,)), torsion) == 0
    assert grade_via_ext(flagship, free_module(flagship.ring)) == 2


def test_grade_outside_a_run_resolves_once(monkeypatch, flagship):
    calls = []
    resolve = resolutions._resolve

    def counted(*args):
        calls.append(args)
        return resolve(*args)

    monkeypatch.setattr(resolutions, "_resolve", counted)
    R = free_module(flagship.ring)
    assert grade_via_ext(flagship, R) == 2
    assert len(calls) == 1
    # outside a run nothing is cached: a second call resolves again
    grade_via_ext(flagship, R)
    assert len(calls) == 2


def test_ext_memo_keeps_the_module_apart(r2):
    x, y = r2.gens()
    m = Ideal(r2, (x, y))
    modules = [free_module(r2), CyclicModule(r2, Ideal(r2, (x * y,)))]
    fresh = [nonzero_ext_degrees(m, M) for M in modules]
    # R/(xy) has depth 1 and pd 1 over R, so Ext^i(R/m, R/(xy)) lives in 1..2
    assert fresh == [(2,), (1, 2)]
    with limits.run_context():
        assert [nonzero_ext_degrees(m, M) for M in modules + modules] == fresh + fresh


def test_a_suite_resolves_once_per_ideal_and_module(monkeypatch):
    flagship = Path(__file__).resolve().parent.parent / "corpus" / "flagship.link"
    parsed = parse_instance(flagship.read_text())
    resolved, asked = [], []
    resolve, degrees = resolutions._resolve, resolutions.nonzero_ext_degrees

    def counted(*args):
        resolved.append(args)
        return resolve(*args)

    def recorded(a, M):
        asked.append((a.ring, a.gens_key(), M.defining_ideal.gens_key()))
        return degrees(a, M)

    monkeypatch.setattr(resolutions, "_resolve", counted)
    for module in (resolutions, checks):
        monkeypatch.setattr(module, "nonzero_ext_degrees", recorded)
    checks.run_suite(parsed)
    # T8_MV and L5 ask the same Ext question; the second answer is the memo's
    assert len(asked) > len(set(asked))
    assert len(resolved) == len(set(asked))


def test_grade_rejected_when_a_acts_as_unit(r2):
    x, _ = r2.gens()
    M = CyclicModule(r2, Ideal(r2, (x,)))
    with pytest.raises(ValueError):
        grade_via_ext(Ideal(r2, (x + r2.one,)), M)


def _random_monomial_ci(rng, ring):
    """Monomial complete intersection on disjoint variable blocks (CM)."""
    n = ring.nvars
    indices = list(range(n))
    for i in range(len(indices) - 1, 0, -1):
        j = rng.randrange(i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    t = 2
    blocks = [indices[:2], indices[2 : 2 + max(1, rng.randrange(1, 3))]]
    gens = []
    for block in blocks[:t]:
        exps = [0] * n
        for i in block:
            exps[i] = 1 + rng.randrange(2)
        gens.append(ring.monomial(exps))
    return Ideal(ring, tuple(gens))


def test_auslander_buchsbaum_on_seeded_cm_instances():
    ring = PolyRing(QQ, ["x", "y", "z", "w"])
    rng = seeded(89)
    maximal = Ideal(ring, ring.gens())
    for _ in range(10):
        I = _random_monomial_ci(rng, ring)
        depth = grade_via_ext(maximal, CyclicModule(ring, I))
        assert pd_via_resolution(I) + depth == ring.nvars


def test_grade_is_radical_invariant():
    ring = PolyRing(QQ, ["x", "y", "z"])
    rng = seeded(97)
    done = 0
    while done < 8:
        I = random_monomial_ideal(rng, ring, max_gens=3, max_degree=3)
        if I.is_unit() or I.is_zero():
            continue
        R = free_module(ring)
        assert grade_via_ext(I, R) == grade_via_ext(monomial_radical(I), R)
        done += 1


def test_grade_equals_height_on_cm_squarefree_corpus():
    ring = PolyRing(QQ, ["x", "y", "z", "w"])
    rng = seeded(101)
    done = 0
    while done < 8:
        I = random_monomial_ideal(rng, ring, max_gens=3, squarefree=True)
        if I.is_unit() or I.is_zero():
            continue
        height = min(len(p) for p in associated_primes_monomial(I).minimal)
        # restrict to the CM subcorpus: pd == height by Auslander-Buchsbaum
        if hochster_pd(I) != height:
            continue
        assert grade_via_ext(I, free_module(ring)) == height
        done += 1
