from itertools import product

import pytest

from conftest import CORPUS_DIR, random_polynomial, seeded
import liaison.checks as checks_mod
import liaison.linkage as linkage_mod
import liaison.resolutions as resolutions_mod
from liaison.checks import (
    FAILS,
    GLOBAL_CHECKS,
    HOLDS,
    INAPPLICABLE,
    CheckId,
    _radical_monomial_ideals_containing,
    run_check,
    run_suite,
)
from liaison.groebner import Ideal, minimalize_exponents
from liaison.instancefile import parse_instance
from liaison import limits
from liaison.linkage import CyclicModule, LinkageInstance, RegularSequenceWitness, free_module
from liaison.parse import parse_polynomial
from liaison.rings import PolyRing
from liaison.fields import GF, QQ
from liaison.ideal_ops import ideal_contains


@pytest.fixture(scope="module")
def flagship_parsed(corpus_files):
    return parse_instance(corpus_files["flagship.link"])


@pytest.fixture(scope="module")
def flagship_verdicts(flagship_parsed):
    return run_suite(flagship_parsed)


def test_flagship_suite_all_hold(flagship_verdicts):
    assert all(v.status == HOLDS for v in flagship_verdicts)
    assert [v.check for v in flagship_verdicts] == [
        CheckId.L07,
        CheckId.L1,
        CheckId.T8_MV,
        CheckId.L5,
        CheckId.GRADE_FORMULA_T,
        CheckId.T5_CD,
        CheckId.C3_E3,
        CheckId.APRIME_T7,
        CheckId.C4,
        CheckId.S_REFLEX,
        CheckId.C11_GLOBAL,
        CheckId.T1_GLOBAL,
        CheckId.C1_WITNESS,
    ]


def test_flagship_t5_details(flagship_verdicts):
    t5 = next(v for v in flagship_verdicts if v.check is CheckId.T5_CD)
    assert t5.details["grade_a"] == 2
    assert t5.details["cd_a"] == 3
    assert t5.details["implied_cd_of_H"] == 1
    assert t5.details["branch"] == "excluded primes present"
    # c = (x1,x4) cap (x2,x3)
    assert t5.details["excluded_primes"] == [[0, 3], [1, 2]]
    assert t5.details["geometric"] is True
    assert t5.details["excluded_eq_v_b"] is True


def test_flagship_t8_details(flagship_verdicts):
    t8 = next(v for v in flagship_verdicts if v.check is CheckId.T8_MV)
    assert t8.details["cd_a"] == 3
    assert t8.details["cd_b"] == 3
    assert t8.details["cd_a_plus_b"] == 3
    assert t8.details["t"] == 2
    assert t8.details["bound"] == 3


def test_flagship_grade_formula(flagship_verdicts):
    grade = next(v for v in flagship_verdicts if v.check is CheckId.GRADE_FORMULA_T)
    assert grade.details["grade_a_plus_b"] == 3
    assert grade.details["expected"] == 3


def test_flagship_c1_witness(flagship_verdicts):
    c1 = next(v for v in flagship_verdicts if v.check is CheckId.C1_WITNESS)
    assert c1.details["cd_b"] == 4
    assert c1.details["dim"] == 4


def test_embedded_prime_is_inapplicable(r2):
    x, y = r2.gens()
    inst = LinkageInstance(
        ring=r2,
        module=free_module(r2),
        a=Ideal(r2, (x, y)),
        I=Ideal(r2, (x**2, x * y)),
        witness=RegularSequenceWitness((x**2, x * y)),
    )
    verdict = run_check(CheckId.T5_CD, inst)
    assert verdict.status == INAPPLICABLE
    assert "hypothesis" in verdict.details


def test_not_linked_is_inapplicable(r4):
    x1, x2, x3, x4 = r4.gens()
    inst = LinkageInstance(
        ring=r4,
        module=free_module(r4),
        a=Ideal(r4, (x1, x2)),
        b=Ideal(r4, (x3, x4)),
        I=Ideal(r4, (x1 * x3, x2 * x4)),
        witness=RegularSequenceWitness((x1 * x3, x2 * x4)),
    )
    for check in (CheckId.L07, CheckId.T8_MV, CheckId.T5_CD):
        verdict = run_check(check, inst)
        assert verdict.status == INAPPLICABLE, check
    grade = run_check(CheckId.GRADE_FORMULA_T, inst)
    assert grade.status == INAPPLICABLE


def test_non_geometric_grade_formula_inapplicable(r2):
    x, y = r2.gens()
    inst = LinkageInstance(
        ring=r2,
        module=free_module(r2),
        a=Ideal(r2, (x, y)),
        b=Ideal(r2, (x, y)),
        I=Ideal(r2, (x**2, y)),
        witness=RegularSequenceWitness((x**2, y)),
    )
    verdict = run_check(CheckId.GRADE_FORMULA_T, inst)
    assert verdict.status == INAPPLICABLE
    assert run_check(CheckId.T5_CD, inst).status == HOLDS
    assert run_check(CheckId.T5_CD, inst).details["branch"] == (
        "every associated prime contains a"
    )


# T5_CD's gates over M = R/J, which no corpus file reaches: an embedded prime
# of M/IM (L07 holds there), and a J for which no cd oracle answers.
T5_GATES = [
    ("x^2, x*y", "x, z", "x, y, z", "z", "Ass(M/IM) has an embedded prime"),
    ("z", "x, y", "x, y", "x^2, y", "no cd oracle applies to this instance"),
]


@pytest.mark.parametrize("J, a, b, I, hypothesis", T5_GATES)
def test_t5_gates_over_a_quotient(J, a, b, I, hypothesis):
    args = "(a = a, b = b, I = I, M = M, seq = s);\n"
    text = (
        "ring R = QQ[x, y, z] grevlex;\n"
        f"ideal J = {J};\nideal a = {a};\nideal b = {b};\nideal I = {I};\n"
        f"module M = quotient J;\nregseq s = {I};\n"
        f"check L07{args}check T5_CD{args}"
    )
    l07, t5 = run_suite(parse_instance(text))
    assert l07.status == HOLDS
    assert (t5.status, t5.details) == (INAPPLICABLE, {"hypothesis": hypothesis})


def test_c11_needs_four_variables(r2):
    verdict = run_check(CheckId.C11_GLOBAL, r2, [])
    assert verdict.status == INAPPLICABLE


def test_run_suite_deterministic(flagship_parsed):
    first = run_suite(flagship_parsed)
    second = run_suite(flagship_parsed)
    strip = lambda vs: [(v.check, v.status, v.details, v.witness) for v in vs]
    assert strip(first) == strip(second)


def test_fails_verdict_carries_witness(monkeypatch):
    import liaison.checks as checks_mod

    def failing(ring, corpus):
        return False, {"note": "synthetic"}, {"because": "synthetic check"}

    monkeypatch.setitem(checks_mod.CHECK_RUNNERS, CheckId.C1_WITNESS, failing)
    ring = PolyRing(QQ, ["x", "y"])
    verdict = run_check(CheckId.C1_WITNESS, ring, [])
    assert verdict.status == FAILS
    assert verdict.witness["because"] == "synthetic check"
    assert "ring" in verdict.witness  # re-run data is always attached


def test_empty_file_empty_verdicts():
    parsed = parse_instance("ring R = QQ[x] grevlex;\n")
    assert run_suite(parsed) == []


def test_zero_link_suite(corpus_files):
    parsed = parse_instance(corpus_files["zero_link.link"])
    verdicts = run_suite(parsed)
    assert all(v.status == HOLDS for v in verdicts)
    mv = next(v for v in verdicts if v.check is CheckId.T8_MV)
    assert mv.details["cd_a_on_M"] == 1
    assert mv.details["cd_a_on_M_mod_bM"] == 1
    grade = next(v for v in verdicts if v.check is CheckId.GRADE_FORMULA_T)
    assert grade.details["grade_a_plus_b"] == 1
    assert grade.details["t"] == 0


def _radical_ideals_by_subset_scan(n):
    """Reference: minimalize every nonempty set of nonempty supports, keeping
    the first occurrence of each antichain (2^(2^n - 1) subsets)."""
    supports = [tuple(i for i in range(n) if mask >> i & 1) for mask in range(1, 1 << n)]
    seen = set()
    out = []
    for mask in range(1, 1 << len(supports)):
        chosen = [supports[i] for i in range(len(supports)) if mask >> i & 1]
        exps = [tuple(1 if i in supp else 0 for i in range(n)) for supp in chosen]
        canon = tuple(minimalize_exponents(exps))
        if canon not in seen:
            seen.add(canon)
            out.append(canon)
    return out


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_radical_ideals_match_subset_scan(n):
    ring = PolyRing(QQ, [f"x{i}" for i in range(1, n + 1)])
    ideals = _radical_monomial_ideals_containing(Ideal(ring, ()))
    gens = [_exponents(I) for I in ideals]
    assert gens == _radical_ideals_by_subset_scan(n)
    assert len(gens) == {1: 1, 2: 4, 3: 18, 4: 166}[n]


def _exponents(I):
    return tuple(g.terms[0][0] for g in I.gens)


def _support_filter_cases():
    """(ring, a) pairs: fixed monomial, non-monomial and mixed-degree a, then
    seeded random a, over QQ (grevlex) and GF(3) (lex)."""
    fixed = {
        1: ["x1", "x1^2", "x1 + 1"],
        2: ["x1*x2", "x1^2, x2", "x1 + x2", "x1^2 + x2"],
        3: ["x1 + x2*x3", "x1^2*x3 + x2, x3^2", "x1*x2*x3", "x2^3 + x1*x3 + x1"],
        4: ["x1*x3, x2*x4", "x1 + x2*x3", "x1*x4^2 + x2^2*x3 + x3, x4", "x1*x2 - x3*x4"],
    }
    rng = seeded(16)
    cases = []
    for n, texts in fixed.items():
        for field, order in ((QQ, "grevlex"), (GF(3), "lex")):
            ring = PolyRing(field, [f"x{i}" for i in range(1, n + 1)], order)
            for text in texts:
                gens = tuple(parse_polynomial(t, ring) for t in text.split(", "))
                cases.append((ring, Ideal(ring, gens)))
            for _ in range(6):
                gens = tuple(random_polynomial(rng, ring) for _ in range(rng.randrange(1, 3)))
                cases.append((ring, Ideal(ring, gens)))
    return cases


@pytest.mark.parametrize("ring, a", _support_filter_cases())
def test_support_filter_keeps_exactly_the_containing_candidates(ring, a):
    everything = _radical_monomial_ideals_containing(Ideal(ring, ()))
    expected = [_exponents(c) for c in everything if ideal_contains(c, a)]
    assert [_exponents(c) for c in _radical_monomial_ideals_containing(a)] == expected


def _flagship_aprime(parsed):
    directive = next(d for d in parsed.directives if d.check is CheckId.APRIME_T7)
    return run_check(CheckId.APRIME_T7, directive.instance)


def test_aprime_minimality_bites_on_a_wrong_aprime(monkeypatch, flagship_parsed):
    true_ass = linkage_mod.associated_primes_monomial

    def drop_largest(J):
        ass = true_ass(J)
        largest = max(ass.all_primes, key=lambda p: (len(p), sorted(p)))
        return type(ass)(ass.all_primes - {largest}, ass.minimal - {largest})

    monkeypatch.setattr(linkage_mod, "associated_primes_monomial", drop_largest)
    verdict = _flagship_aprime(flagship_parsed)
    assert verdict.details["brute_force_minimality"] is False


def test_aprime_runs_the_double_colon_only_for_aprime(monkeypatch, flagship_parsed):
    true_membership = checks_mod.s_membership
    calls = []

    def counting(*args):
        calls.append(args)
        return true_membership(*args)

    monkeypatch.setattr(checks_mod, "s_membership", counting)
    verdict = _flagship_aprime(flagship_parsed)
    assert verdict.status == HOLDS
    assert verdict.details["brute_force_minimality"] is True
    # a' = sqrt(a) lies in every radical candidate over a: only the a'
    # clause itself tests s-membership
    assert len(calls) == 1


def test_aprime_minimality_compares_modulo_ann_m():
    parsed = parse_instance(
        "ring R = FP(7)[x1, x2, x3, x4] lex;\n"
        "ideal J = x2;\n"
        "ideal a = x4;\n"
        "ideal I = x3^2*x4;\n"
        "module M = quotient J;\n"
        "regseq s = x3^2*x4;\n"
        "check APRIME_T7(a = a, I = I, M = M, seq = s);\n"
    )
    [verdict] = run_suite(parsed)
    # a' = (x2, x4) holds J's generator; cand = (x4) meets it only modulo J
    assert verdict.details["aprime"] == "x2, x4"
    assert verdict.details["brute_force_minimality"] is True
    assert verdict.status == HOLDS


def test_t1_skips_instances_with_an_invalid_witness():
    parsed = parse_instance(
        "ring R = FP(3)[x1, x2] lex;\n"
        "ideal a = x1, x2;\n"
        "ideal I = x1*x2^2, x1*x2;\n"
        "module M = quotient 0;\n"
        "regseq s = x1*x2^2, x1*x2;\n"
        "check L07(a = a, I = I, M = M, seq = s);\n"
        "check T1_GLOBAL();\n"
    )
    l07, t1 = run_suite(parsed)
    assert l07.status == INAPPLICABLE
    assert "not an M-regular sequence" in l07.details["hypothesis"]
    assert t1.status == HOLDS
    assert t1.details["ideals_examined"] == 0


def test_aprime_minimality_skipped_over_non_squarefree_ann_m():
    parsed = parse_instance(
        "ring R = QQ[x1, x2, x3] grevlex;\n"
        "ideal J = x2^2;\n"
        "ideal a = x1;\n"
        "ideal I = x1^2;\n"
        "module M = quotient J;\n"
        "regseq s = x1^2;\n"
        "check APRIME_T7(a = a, I = I, M = M, seq = s);\n"
    )
    [verdict] = run_suite(parsed)
    # a' = (x1, x2); cand + (x2^2) is not radical, so the clause's range of
    # radical ideals is undefined and the other clauses decide
    assert verdict.details["aprime"] == "x1, x2"
    assert verdict.details["brute_force_minimality"] == (
        "skipped (Ann M is not a squarefree monomial ideal)"
    )
    assert verdict.status == HOLDS


@pytest.mark.parametrize(
    "J, a, b, I, status, details",
    [
        # bM = M: no partner, so the sqrt(a + J) = a' clause is not asked
        ("0", "x", "1", "x*y", HOLDS, {
            "grade_a": 1, "aprime": "x", "a_contained": True, "s_membership": True,
            "radical": True, "brute_force_minimality": True,
        }),
        # aM = M: a's own precondition names the hypothesis, before any grade
        ("x", "x - 1", "y", "y", INAPPLICABLE, {"hypothesis": "aM = M: a+J is the unit ideal"}),
    ],
    ids=["partner-bM-equals-M", "aM-equals-M"],
)
def test_aprime_reads_a_partner_failing_a_precondition_as_no_partner(J, a, b, I, status, details):
    [verdict] = run_suite(parse_instance(
        "ring R = QQ[x, y] grevlex;\n"
        f"ideal J = {J};\nideal a = {a};\nideal b = {b};\nideal I = {I};\n"
        f"module M = quotient J;\nregseq s = {I};\n"
        "check APRIME_T7(a = a, b = b, I = I, M = M, seq = s);\n"
    ))
    assert (verdict.status, verdict.details) == (status, details)


def test_degenerate_inputs_never_fail_a_pair_check():
    """Every pair check over QQ[x, y] on each J in {0, xy, x^2}, a and b
    among the unit, zero, monomial and non-monomial ideals below (b also
    undeclared) and I in {0, xy, x}: no verdict fails, and nothing but a
    hypothesis or a cap is raised (run_check lets anything else escape)."""
    ring = PolyRing(QQ, ["x", "y"])
    x, y = ring.gens()
    ideals = [(ring.one,), (), (x,), (x * y,), (x, y), (x + ring.one,)]
    pair_checks = [c for c in CheckId if c not in GLOBAL_CHECKS]
    verdicts = {}
    with limits.run_context():
        for J, a, b, I in product([(), (x * y,), (x**2,)], ideals, ideals + [None], [(), (x * y,), (x,)]):
            inst = LinkageInstance(
                ring=ring,
                module=CyclicModule(ring, Ideal(ring, J)),
                a=Ideal(ring, a),
                b=None if b is None else Ideal(ring, b),
                I=Ideal(ring, I),
                witness=RegularSequenceWitness(I),
            )
            for check in pair_checks:
                verdicts[J, a, b, I, check] = run_check(check, inst)
    assert len(verdicts) == 3780
    assert [key for key, v in verdicts.items() if v.status == FAILS] == []
    # a = (1) and I = 0 over M = R: the double-colon candidate is 0 and a is
    # fixed by the double colon, but aM = M rules out linking a at all
    for b in ideals + [None]:
        verdict = verdicts[(), (ring.one,), b, (), CheckId.S_REFLEX]
        assert (verdict.status, verdict.details) == (
            INAPPLICABLE, {"hypothesis": "aM = M: a+J is the unit ideal"}
        )


# Each mutant below wraps one oracle of the checks and turns exactly these
# corpus verdicts (check: files) to fails.
CD_TEETH = {
    CheckId.T1_GLOBAL: {"flagship.link", "principal_pair.link"},
    CheckId.C1_WITNESS: {
        "flagship.link",
        "fp_selflink.link",
        "principal_pair.link",
        "selflink.link",
    },
    CheckId.T5_CD: {"fp_selflink.link", "selflink.link"},
    CheckId.T8_MV: {"principal_pair.link"},
}
# grade + 1 also closes grade gates without a fails: APRIME_T7 and C4 turn
# inapplicable, T1_GLOBAL examines no ideal, and T8_MV and L5 drop the
# vanishing pattern, whose gate is cd(a + b) = grade(a + b)
GRADE_TEETH = {
    CheckId.GRADE_FORMULA_T: {"flagship.link", "principal_pair.link", "zero_link.link"},
    CheckId.T5_CD: {"fp_selflink.link", "principal_pair.link", "selflink.link"},
}
# degree 0 added to every Ext: over M = R the grades come from heights, so
# the vanishing pattern of T8_MV and L5 sees it; over zero_link's M = R/(x*y)
# the grade is the least Ext degree and drops to 0
EXT_TEETH = {
    CheckId.T8_MV: {"flagship.link", "principal_pair.link", "selflink.link"},
    CheckId.L5: {"flagship.link"},
    CheckId.GRADE_FORMULA_T: {"zero_link.link"},
}


def _corpus_verdicts():
    out = {}
    for path in sorted(CORPUS_DIR.glob("*.link")):
        for v in run_suite(parse_instance(path.read_text())):
            out.setdefault(v.check, {}).setdefault(path.name, []).append(v.status)
    return out


def _flipped_to_fails(monkeypatch, patches):
    """{check: corpus files} whose verdicts turn to fails once every
    (module, name, value) of patches is set."""
    before = _corpus_verdicts()
    for module, name, value in patches:
        monkeypatch.setattr(module, name, value)
    flipped = {}
    for check, files in _corpus_verdicts().items():
        for name, statuses in files.items():
            if any(s == FAILS and b != FAILS for b, s in zip(before[check][name], statuses)):
                flipped.setdefault(check, set()).add(name)
    return flipped


def test_every_cd_in_the_checks_comes_from_cd_oracle(monkeypatch):
    true_oracle = checks_mod.cd_oracle

    def plus_one(a, M):
        cd = true_oracle(a, M)
        return None if cd is None else cd + 1

    assert _flipped_to_fails(monkeypatch, [(checks_mod, "cd_oracle", plus_one)]) == CD_TEETH


def test_every_grade_in_the_checks_comes_from_grade_oracle(monkeypatch):
    true_oracle = checks_mod.grade_oracle

    def plus_one(a, M):
        return true_oracle(a, M) + 1

    assert _flipped_to_fails(monkeypatch, [(checks_mod, "grade_oracle", plus_one)]) == GRADE_TEETH


def test_a_spurious_ext_degree_fails_the_vanishing_pattern(monkeypatch):
    true_degrees = resolutions_mod.nonzero_ext_degrees

    def with_zero(a, M):
        yield 0
        yield from (i for i in true_degrees(a, M) if i)

    patches = [(resolutions_mod, "nonzero_ext_degrees", with_zero),
               (checks_mod, "nonzero_ext_degrees", with_zero)]
    assert _flipped_to_fails(monkeypatch, patches) == EXT_TEETH


# Each view with its parent, the parent's keys for the clauses the view runs
# alone, and the least number of instances of the reference-seed workload
# files and the fuzz files on which the two are compared: 428, 297, 410 and
# 421 are compared today, and the floors leave a margin.
VIEWS = {
    CheckId.L1: (CheckId.L07, ("ass_containment",), 380),
    CheckId.L5: (CheckId.T8_MV, ("vanishing_pattern_holds", "zero_link_cd_equal"), 260),
    CheckId.C3_E3: (CheckId.T5_CD, ("excluded_eq_v_b",), 360),
    CheckId.C4: (CheckId.APRIME_T7, ("sqrt_a_equals_aprime",), 380),
}


def test_every_view_decides_as_the_clauses_of_its_parent(workload_pass):
    compared = dict.fromkeys(VIEWS, 0)
    for directives, verdicts in workload_pass["runs"]:
        # the verdicts that reached a decision, neither inapplicable nor
        # stopped by a resource limit, by instance: APRIME_T7's alternate is
        # no part of the instance its view shares
        ran = {}
        for d, v in zip(directives, verdicts):
            if d.instance is not None and v.status != INAPPLICABLE and "reason" not in v.details:
                args = tuple(sorted(kv for kv in d.args.items() if not kv[0].startswith("alt_")))
                ran.setdefault(args, {})[v.check] = v
        for checks in ran.values():
            for view, (parent, keys, _) in VIEWS.items():
                if view not in checks or parent not in checks:
                    continue
                details = checks[parent].details
                clauses = [details[k] for k in keys if isinstance(details.get(k), bool)]
                if clauses:
                    compared[view] += 1
                    assert (checks[view].status == HOLDS) == all(clauses), (view, details)
    assert all(compared[view] >= floor for view, (_, _, floor) in VIEWS.items()), compared
