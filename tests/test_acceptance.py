"""Acceptance suite: one test per criterion, each printing its verdict line.

Everything here is exact (integer or ideal equality); there are no numeric
tolerances to tune.  Corpus means the shipped instance files plus pinned-seed
generated files.
"""

import json
from pathlib import Path

import jsonschema
import pytest

import liaison.checks as checks_mod
from conftest import random_monomial_ideal, random_polynomial, seeded
from liaison.checks import CheckId, run_check
from liaison.cli import main, report_schema
from liaison.fields import QQ
from liaison.generate import generate_instances
from liaison.groebner import Ideal, ideal_sum, reduced_groebner_basis
from liaison.ideal_ops import ideal_equal, intersect_ideals, radicals_equal
from liaison.instancefile import parse_instance
from liaison.linkage import (
    LinkageInstance,
    RegularSequenceWitness,
    aprime_construct,
    candidate_link,
    cd_oracle,
    free_module,
    is_geometrically_linked,
    is_linked,
    s_membership,
)
from liaison.monomials import (
    associated_primes_monomial,
    cd_monomial,
    hochster_pd,
    intersect_primes,
    is_monomial_ideal,
    monomial_radical,
    prime_ideal,
)
from liaison.resolutions import grade_via_ext, pd_via_resolution
from liaison.rings import PolyRing

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


def _criterion(number, description, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}")
    assert ok, f"criterion {number} failed: {description}"


@pytest.fixture(scope="module")
def full_corpus(corpus_instances):
    """Shipped instances plus pinned-seed generated geometric links."""
    out = list(corpus_instances)
    for seed, nvars in ((101, 5), (202, 6)):
        text = generate_instances(seed, "geometric-links", 5, nvars)
        parsed = parse_instance(text)
        for inst in parsed.instances():
            out.append((f"geometric-links seed={seed}", inst))
    return out


def _linked(corpus):
    out = []
    for name, inst in corpus:
        b = inst.partner()
        if is_linked(inst.a, b, inst.I, inst.module, inst.witness):
            out.append((name, inst, b))
    return out


def test_criterion_1_groebner_soundness():
    ring = PolyRing(QQ, ["x", "y", "z"])
    rng = seeded(1001)
    failures = 0
    for _ in range(100):
        n_gens = rng.randrange(1, 5)
        gens = [
            random_polynomial(rng, ring, max_degree=3, max_terms=3)
            for _ in range(n_gens)
        ]
        reference = reduced_groebner_basis(gens)
        I = Ideal(ring, tuple(gens))
        views = [list(reversed(gens))]
        for _ in range(2):
            shuffled = gens[:]
            for i in range(len(shuffled) - 1, 0, -1):
                j = rng.randrange(i + 1)
                shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
            views.append(shuffled)
        for view in views:
            if reduced_groebner_basis(view) != reference:
                failures += 1
        for g in gens:
            if not I.contains(g):
                failures += 1
    _criterion(
        1,
        "reduced bases permutation-invariant and generators members "
        "(100 seeded ideals, 0 failures)",
        failures == 0,
    )


def test_criterion_2_dual_oracle_pd():
    ring = PolyRing(QQ, [f"x{i}" for i in range(1, 7)])
    rng = seeded(2002)
    checked = 0
    ok = True
    while checked < 25:
        I = random_monomial_ideal(rng, ring, max_gens=4, squarefree=True)
        if I.is_unit() or I.is_zero():
            continue
        if hochster_pd(I) != pd_via_resolution(I):
            ok = False
        checked += 1
    _criterion(
        2,
        "hochster_pd equals pd_via_resolution on 25 seeded squarefree "
        "ideals in 6 variables",
        ok,
    )


def test_criterion_3_flagship(r4):
    x1, x2, x3, x4 = r4.gens()
    a = Ideal(r4, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))
    I = Ideal(r4, (x1 * x3, x2 * x4))
    w = RegularSequenceWitness((x1 * x3, x2 * x4))
    M = free_module(r4)
    grade = grade_via_ext(a, M)
    cd = cd_monomial(a)
    b = candidate_link(a, I, M, w)
    expected_b = Ideal(r4, (x1 * x2, x1 * x3, x2 * x4, x3 * x4))
    geometric = is_geometrically_linked(a, b, I, M, w)
    _criterion(
        3,
        "flagship: grade 2, cd 3, candidate link (x1x2, x1x3, x2x4, x3x4), "
        "geometrically linked",
        grade == 2 and cd == 3 and ideal_equal(b, expected_b) and geometric,
    )


def test_criterion_4_grade_formula(full_corpus):
    ok = True
    seen = 0
    for name, inst in full_corpus:
        b = inst.partner()
        if not is_geometrically_linked(inst.a, b, inst.I, inst.module, inst.witness):
            continue
        seen += 1
        grade_ab = grade_via_ext(ideal_sum(inst.a, b), inst.module)
        if grade_ab != inst.witness.length + 1:
            ok = False
    # the three named shapes must all be present in the corpus
    has_flagship = any("flagship" in name for name, _ in full_corpus)
    has_principal = any("principal_pair" in name for name, _ in full_corpus)
    has_zero = any("zero_link" in name for name, _ in full_corpus)
    _criterion(
        4,
        f"grade(a+b) = t+1 on every geometrically linked corpus instance "
        f"({seen} instances incl. flagship, principal pair, zero link)",
        ok and seen >= 10 and has_flagship and has_principal and has_zero,
    )


def test_criterion_5_mv_equality(r4):
    text = generate_instances(101, "geometric-links", 10, 5)
    parsed = parse_instance(text)
    instances = parsed.instances()
    ok = len(instances) >= 10
    for inst in instances:
        b = inst.b
        ab = ideal_sum(inst.a, b)
        cd_a = cd_monomial(inst.a)
        cd_b = cd_monomial(b)
        cd_ab = cd_monomial(ab)
        if cd_ab != max(cd_a, cd_b, inst.witness.length + 1):
            ok = False
    x1, x2, x3, x4 = r4.gens()
    a = Ideal(r4, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))
    b = Ideal(r4, (x1 * x2, x1 * x3, x2 * x4, x3 * x4))
    flagship_ok = (
        cd_monomial(ideal_sum(a, b)) == 3
        and max(cd_monomial(a), cd_monomial(b), 3) == 3
    )
    _criterion(
        5,
        f"cd(a+b) = max(cd a, cd b, t+1) on {len(instances)} generated "
        "geometric links and the flagship",
        ok and flagship_ok,
    )


def test_criterion_6_t5_shadow(full_corpus):
    ok = True
    examined = 0
    for name, inst, b in _linked(full_corpus):
        J = inst.module.defining_ideal
        IJ = ideal_sum(inst.I, J)
        if not is_monomial_ideal(IJ):
            continue
        ass = associated_primes_monomial(IJ)
        if not ass.is_unmixed():
            continue
        examined += 1
        ring = inst.ring
        grade_a = grade_via_ext(inst.a, inst.module)
        in_v_a = set()
        for p in ass.all_primes:
            pid = prime_ideal(ring, p)
            if all(pid.contains(g) for g in inst.a.gens):
                in_v_a.add(p)
        excluded = set(ass.all_primes) - in_v_a
        cd_a = cd_oracle(inst.a, inst.module)
        if excluded:
            c = intersect_primes(ring, excluded)
            if not radicals_equal(IJ, ideal_sum(intersect_ideals(inst.a, c), J)):
                ok = False
            if grade_via_ext(ideal_sum(inst.a, c), inst.module) < grade_a + 1:
                ok = False
        else:
            # branch cd = grade taken exactly when Ass(M/IM) lies in V(a)
            if cd_a is not None and cd_a != grade_a:
                ok = False
        if cd_a is not None and cd_a != grade_a and cd_a - grade_a < 1:
            ok = False
    _criterion(
        6,
        f"cd-formula shadow identities on {examined} linked unmixed corpus "
        "instances",
        ok and examined >= 10,
    )


def test_criterion_7_c11(r4):
    x1, x2, x3, x4 = r4.gens()
    M = free_module(r4)
    a = Ideal(r4, (x1, x2))
    b = Ideal(r4, (x3, x4))
    results = []
    for gens in ((x1 * x3, x2 * x4), (x1 * x4, x2 * x3)):
        I = Ideal(r4, gens)
        w = RegularSequenceWitness(gens)
        results.append(is_linked(a, b, I, M, w))
    _criterion(
        7,
        "(x1,x2) and (x3,x4) are not linked by either monomial complete "
        "intersection",
        results == [False, False],
    )


def test_criterion_8_aprime(r4, full_corpus):
    x1, x2, x3, x4 = r4.gens()
    a = Ideal(r4, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))
    M = free_module(r4)
    I1 = Ideal(r4, (x1 * x3, x2 * x4))
    w1 = RegularSequenceWitness((x1 * x3, x2 * x4))
    I2 = Ideal(r4, (x1 * x4, x2 * x3))
    w2 = RegularSequenceWitness((x1 * x4, x2 * x3))
    ap1 = aprime_construct(a, I1, M, w1)
    ap2 = aprime_construct(a, I2, M, w2)
    same = ideal_equal(ap1, ap2)
    member = s_membership(ap1, I1, M, w1)

    verdict = run_check(CheckId.APRIME_T7, LinkageInstance(r4, M, a, I1, w1, alternate=(I2, w2)))
    brute = verdict.status == "holds" and verdict.details["brute_force_minimality"]

    radical_ok = True
    for name, inst, b in _linked(full_corpus):
        J = inst.module.defining_ideal
        aJ = ideal_sum(inst.a, J)
        IJ = ideal_sum(inst.I, J)
        if not is_monomial_ideal(aJ) or not is_monomial_ideal(IJ):
            continue
        if not ideal_equal(aJ, monomial_radical(aJ)):
            continue
        if ideal_equal(IJ, aJ):
            continue
        if grade_via_ext(inst.a, inst.module) != inst.witness.length:
            continue
        ap = aprime_construct(inst.a, inst.I, inst.module, inst.witness)
        if not ideal_equal(aJ, ideal_sum(ap, J)):
            radical_ok = False
    _criterion(
        8,
        "a' independent of the sequence, double-colon fixed, brute-force "
        "minimal (4 vars), and sqrt(a) = a' on linked radical instances",
        same and member and brute and radical_ok,
    )


def test_criterion_9_c1_witness(r2):
    verdict = run_check(CheckId.C1_WITNESS, r2, [])
    ok = (
        verdict.status == "holds"
        and verdict.details["b"] == "x, y"
        and verdict.details["I"] == "x^2, y"
        and verdict.details["cd_b"] == 2
        and verdict.details["dim"] == 2
    )
    _criterion(
        9,
        "witness search finds (x, y) self-linked by (x^2, y) with cd = dim = 2",
        ok,
    )


def test_criterion_10_structure(full_corpus):
    ok = True
    examined = 0
    for name, inst, b in _linked(full_corpus):
        examined += 1
        J = inst.module.defining_ideal
        IJ = ideal_sum(inst.I, J)
        abJ = ideal_sum(intersect_ideals(inst.a, b), J)
        if not radicals_equal(IJ, abJ):
            ok = False
        if inst.I.is_zero() and not J.is_zero():
            from liaison.ideal_ops import ideal_quotient

            if not radicals_equal(ideal_quotient(J, inst.a), ideal_sum(b, J)):
                ok = False
        aJ = ideal_sum(inst.a, J)
        if is_monomial_ideal(aJ) and is_monomial_ideal(IJ):
            ass_a = associated_primes_monomial(aJ).all_primes
            ass_i = associated_primes_monomial(IJ).all_primes
            if not ass_a <= ass_i:
                ok = False
    _criterion(
        10,
        f"radical identities and Ass containment on 100% of {examined} "
        "linked corpus instances",
        ok and examined >= 10,
    )


def test_criterion_11_cli(tmp_path, capsys, monkeypatch):
    schema = report_schema()
    exit_ok = main(["run", str(CORPUS / "flagship.link"), "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    jsonschema.validate(report, schema)
    schema_ok = True

    def failing(ring, corpus):
        return False, {"note": "synthetic"}, {"because": "deliberate failure"}

    with monkeypatch.context() as patch:
        patch.setitem(checks_mod.CHECK_RUNNERS, CheckId.C1_WITNESS, failing)
        exit_fail = main(["run", str(CORPUS / "selflink.link")]) == 1
    capsys.readouterr()

    bad = tmp_path / "malformed.link"
    bad.write_text("ring R = QQ[x, y] grevlex;\nideal a = x ++ y;\n")
    exit_parse = main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    has_position = "line 2" in err and "col" in err

    _criterion(
        11,
        "CLI contract: corpus exit 0, synthetic failure exit 1, malformed "
        "exit 2 with position, JSON schema valid",
        exit_ok and schema_ok and exit_fail and exit_parse and has_position,
    )
