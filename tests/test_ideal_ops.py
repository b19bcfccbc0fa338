import json
from pathlib import Path

import pytest

from conftest import random_monomial_ideal, random_polynomial, seeded
from liaison import ideal_ops
from liaison.cli import main
from liaison.fields import GF, QQ
from liaison.groebner import (
    Ideal,
    _reduce,
    buchberger,
    exp_divides,
    reduced_groebner_basis,
)
from liaison.ideal_ops import (
    _colon,
    _intersect,
    _quotient,
    ideal_contains,
    ideal_equal,
    ideal_quotient,
    intersect_ideals,
    radical_membership,
    radicals_equal,
    saturate,
)
from liaison.rings import PolyRing

FLAGSHIP = Path(__file__).resolve().parent.parent / "corpus" / "flagship.link"

# `liaison gen --seed 1 --profile geometric-links --count 1 --vars 4`
GEOMETRIC_LINK = """\
ring R = QQ[x1, x2, x3, x4] grevlex;
module M = quotient 0;
ideal a0 = x1, x3;
ideal b0 = x3, x4;
ideal I0 = x1*x4, x3;
regseq s0 = x1*x4, x3;
check L07(a = a0, b = b0, I = I0, M = M, seq = s0);
check L1(a = a0, b = b0, I = I0, M = M, seq = s0);
check T8_MV(a = a0, b = b0, I = I0, M = M, seq = s0);
check L5(a = a0, b = b0, I = I0, M = M, seq = s0);
check GRADE_FORMULA_T(a = a0, b = b0, I = I0, M = M, seq = s0);
check T5_CD(a = a0, b = b0, I = I0, M = M, seq = s0);
check C3_E3(a = a0, b = b0, I = I0, M = M, seq = s0);
check APRIME_T7(a = a0, b = b0, I = I0, M = M, seq = s0);
check C4(a = a0, b = b0, I = I0, M = M, seq = s0);
check S_REFLEX(a = a0, b = b0, I = I0, M = M, seq = s0);
check C11_GLOBAL();
check T1_GLOBAL();
check C1_WITNESS();
"""

FIELDS_AND_ORDERS = [(QQ, "lex"), (QQ, "grevlex"), (GF(7), "lex"), (GF(7), "grevlex")]


def _product(I, J):
    return Ideal(I.ring, tuple(g * h for g in I.gens for h in J.gens))


def _adjoin(ring):
    """R[t] under lex with t first, and the map that lifts a polynomial of
    ring into it."""
    ext = PolyRing(ring.field, ("t",) + ring.vars, "lex")
    return ext, ext.gen(0), lambda p: ext.from_dict({(0,) + e: c for e, c in p.terms})


def _intersect_by_elimination(I, J):
    """I cap J by eliminating t from t*I + (1-t)*J: the pair loop alone, no
    syzygies."""
    ring = I.ring
    ext, t, lift = _adjoin(ring)
    gens = [lift(g) * t for g in I.gens] + [lift(h) * (ext.one - t) for h in J.gens]
    kept = [g for g in reduced_groebner_basis(gens) if g.terms[0][0][0] == 0]
    return Ideal(ring, tuple(ring.from_dict({e[1:]: c for e, c in g.terms}) for g in kept))


def _radical_member_by_inversion(f, I):
    """f in sqrt(I) when 1 lies in I + (1 - t*f)."""
    ext, t, lift = _adjoin(I.ring)
    gens = [lift(g) for g in I.gens] + [ext.one - t * lift(f)]
    return reduced_groebner_basis(gens) == (ext.one,)


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
    # oracle shares no syzygy computation with the colon under test; and the
    # syzygy intersection against the same oracle
    ring = PolyRing(field, ["x", "y", "z"])
    rng = seeded(61)
    checked = 0
    while checked < 12:
        gens = [random_polynomial(rng, ring, max_degree=2, max_terms=3) for _ in range(2)]
        f = random_polynomial(rng, ring, max_degree=2, max_terms=2)
        if len(f.terms) < 2 or all(g.is_monomial() for g in gens):
            continue
        I, F = Ideal(ring, tuple(gens)), Ideal(ring, (f,))
        expected = _intersect_by_elimination(I, F)
        assert ideal_equal(_product(ideal_quotient(I, F), F), expected)
        assert ideal_equal(intersect_ideals(I, F), expected)
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


def _monomial_generators(rng, ring):
    """One to five single terms with coefficients in 1..6 and exponents up
    to 3, drawn from a pool of up to four so that generators repeat;
    sometimes the zero polynomial or a constant among them."""
    size, pool = rng.randrange(1, 5), []
    while len(pool) < size:
        exps = tuple(rng.randrange(1, 4) if rng.random() < 0.5 else 0 for _ in range(ring.nvars))
        if any(exps):
            pool.append(exps)
    gens = [
        ring.monomial(rng.choice(pool), ring.field.of(rng.randrange(1, 7)))
        for _ in range(rng.randrange(1, 6))
    ]
    if rng.random() < 0.2:
        gens.append(ring.zero)
    if rng.random() < 0.1:
        gens.append(ring.constant(rng.randrange(1, 7)))
    return gens


def _monomial_ideals(rng, ring, count):
    """The zero ideal (twice over), the unit ideal, then seeded ideals."""
    x = ring.gen(0)
    fixed = [(), (ring.zero,), (ring.constant(3),), (x**2, x**2, ring.constant(2) * x**3)]
    return [Ideal(ring, gens) for gens in fixed] + [
        Ideal(ring, tuple(_monomial_generators(rng, ring))) for _ in range(count)
    ]


@pytest.mark.parametrize("nvars", [3, 4])
@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_monomial_rules_match_the_general_routes(field, order, nvars):
    # each monomial rule against the route it bypasses: the pair loop for the
    # basis, the syzygy colon for intersection and quotient, and the
    # inverted-element trick for radical membership
    ring = PolyRing(field, [f"x{i}" for i in range(1, nvars + 1)], order)
    one = ring.one
    rng = seeded(71 + nvars)
    ideals = _monomial_ideals(rng, ring, 12)
    for I in ideals:
        nonzero = [g for g in I.gens if not g.is_zero()]
        general = ()
        if nonzero:
            G, _ = buchberger(ring, [(g,) for g in nonzero])
            general = tuple(row[0] for row in _reduce(ring, G))
        assert reduced_groebner_basis(I.gens) == general, I
    for I, J in zip(ideals, ideals[1:] + ideals[:1]):
        assert _intersect(I, J).gens == _colon(ring, (one, one), (I, J)).gens, (I, J)
        gens = list(dict.fromkeys(g for g in J.gens if not g.is_zero()))
        for g in gens:
            assert _quotient(I, [g]).gens == _colon(ring, (g,), (I,)).gens, (I, g)
        if gens:
            expected = _colon(ring, gens, (I,) * len(gens)).gens
            assert _quotient(I, gens).gens == expected, (I, J)
        for f in [*J.gens, random_polynomial(rng, ring, max_degree=3, max_terms=3)]:
            if not f.is_zero():
                expected = _radical_member_by_inversion(f, I)
                assert radical_membership(f, I) == expected, (f, I)


def _report(path, capsys):
    code = main(["run", str(path), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    for verdict in report["verdicts"]:
        del verdict["millis"]
    return code, report


@pytest.mark.parametrize("name", ["flagship", "geometric-links"])
def test_monomial_inputs_never_reach_the_general_routes(name, tmp_path, monkeypatch, capsys):
    path = FLAGSHIP
    if name == "geometric-links":
        path = tmp_path / "geometric.link"
        path.write_text(GEOMETRIC_LINK)
    expected = _report(path, capsys)
    reached = []

    def guard(route):
        def raising(*args):
            reached.append(route)
            raise AssertionError(f"monomial input reached {route}")

        return raising

    for route in ("_colon", "saturate"):
        monkeypatch.setattr(ideal_ops, route, guard(route))
    assert _report(path, capsys) == expected
    assert reached == []
