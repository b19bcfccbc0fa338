import pytest

import liaison.linkage as linkage_mod
from liaison.checks import INAPPLICABLE, CheckId, run_check
from liaison.errors import RingMismatchError, WitnessError
from liaison.fields import GF
from liaison.groebner import Ideal, ideal_sum
from liaison.ideal_ops import ideal_contains, ideal_equal
from liaison.linkage import (
    EMPTY_WITNESS,
    CyclicModule,
    LinkageInstance,
    RegularSequenceWitness,
    aprime_construct,
    candidate_link,
    cd_oracle,
    cd_principal_cyclic,
    free_module,
    grade_oracle,
    is_geometrically_linked,
    is_linked,
    is_regular_sequence,
    s_membership,
)
from liaison.monomials import associated_primes_monomial, height, monomial_radical
from liaison.resolutions import grade_via_ext
from liaison.rings import PolyRing


@pytest.fixture(scope="module")
def flag(r4):
    x1, x2, x3, x4 = r4.gens()
    a = Ideal(r4, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))
    I = Ideal(r4, (x1 * x3, x2 * x4))
    w = RegularSequenceWitness((x1 * x3, x2 * x4))
    return a, I, w, free_module(r4)


def test_regular_sequence_examples(r2):
    x, y = r2.gens()
    M = free_module(r2)
    assert is_regular_sequence([x, y], M)
    assert not is_regular_sequence([x, x], M)
    quotient = CyclicModule(r2, Ideal(r2, (x,)))
    assert not is_regular_sequence([x * y], quotient)
    # anything that drives (xs) + J to the unit ideal fails
    assert not is_regular_sequence([x, y, r2.one], M)


@pytest.mark.parametrize(
    "case, expected",
    [
        ("empty sequence", ValueError("the empty sequence is not tested here")),
        ("foreign element", RingMismatchError("sequence element from a different ring")),
        ("zero element", False),
        ("zero a", WitnessError("a must be a nonzero ideal")),
        ("(f) + J is the unit ideal", ValueError(
            "(f) + J is the unit ideal and f is not nilpotent on M"
        )),
        ("candidate_link with aM = M", WitnessError("aM = M: a+J is the unit ideal")),
    ],
)
def test_degenerate_linkage_inputs(r2, case, expected):
    x, _ = r2.gens()
    R = free_module(r2)
    I, witness = Ideal(r2, (x,)), RegularSequenceWitness((x,))
    calls = {
        "empty sequence": lambda: is_regular_sequence([], R),
        "foreign element": lambda: is_regular_sequence([PolyRing(GF(7), ["x"]).gen(0)], R),
        "zero element": lambda: is_regular_sequence([x, r2.zero], R),
        "zero a": lambda: is_linked(Ideal(r2, ()), I, I, R, witness),
        "candidate_link with aM = M": lambda: candidate_link(Ideal(r2, (r2.one,)), I, R, witness),
        "(f) + J is the unit ideal": lambda: cd_principal_cyclic(
            x, CyclicModule(r2, Ideal(r2, (x - r2.one,)))
        ),
    }
    if isinstance(expected, Exception):
        with pytest.raises(type(expected)) as err:
            calls[case]()
        assert str(err.value) == str(expected)
    else:
        assert calls[case]() is expected


@pytest.mark.parametrize(
    "case, hypothesis",
    [
        ("witness does not generate I",
         "regular-sequence witness: witness elements do not generate the linking ideal"),
        ("zero a", "a must be a nonzero ideal"),
        ("aM = M", "aM = M: a+J is the unit ideal"),
        ("I not in a + J", "I is not contained in a modulo J"),
    ],
)
def test_candidate_link_and_aprime_name_the_same_failure_of_a(r2, case, hypothesis):
    """Each failure on a's side of the linkage preconditions reads the same
    from candidate_link and from APRIME_T7, with and without a declared b."""
    x, y = r2.gens()
    J, a, I, sequence = {
        "witness does not generate I": ((), (x,), (x * y,), (x,)),
        "zero a": ((), (), (x * y,), (x * y,)),
        "aM = M": ((x,), (x - r2.one,), (y,), (y,)),
        "I not in a + J": ((), (x,), (y,), (y,)),
    }[case]
    M = CyclicModule(r2, Ideal(r2, J))
    a, I, witness = Ideal(r2, a), Ideal(r2, I), RegularSequenceWitness(sequence)
    with pytest.raises(WitnessError) as err:
        candidate_link(a, I, M, witness)
    assert str(err.value) == hypothesis
    for b in (None, Ideal(r2, (y,))):
        verdict = run_check(CheckId.APRIME_T7, LinkageInstance(r2, M, a, I, witness, b=b))
        assert (verdict.status, verdict.details) == (INAPPLICABLE, {"hypothesis": hypothesis})


def test_module_colon_examples(r2):
    x, y = r2.gens()
    M = free_module(r2)
    assert ideal_equal(
        M.colon(Ideal(r2, (x * y,)), Ideal(r2, (x,))), Ideal(r2, (y,))
    )
    torsion = CyclicModule(r2, Ideal(r2, (x * y,)))
    assert ideal_equal(
        torsion.colon(Ideal(r2, ()), Ideal(r2, (x,))), Ideal(r2, (y,))
    )
    # a inside I + J gives the unit ideal
    assert M.colon(Ideal(r2, (x,)), Ideal(r2, (x**2,))).is_unit()
    with pytest.raises(ValueError):
        M.colon(Ideal(r2, (x,)), Ideal(r2, ()))


def test_plus_ann_and_kills(r2):
    x, y = r2.gens()
    torsion = CyclicModule(r2, Ideal(r2, (x * y,)))
    assert ideal_equal(torsion.plus_ann(Ideal(r2, (x,))), Ideal(r2, (x,)))
    assert ideal_equal(torsion.plus_ann(Ideal(r2, (y**2,))), Ideal(r2, (x * y, y**2)))
    assert ideal_equal(torsion.plus_ann(Ideal(r2, ())), Ideal(r2, (x * y,)))
    # (x - 1)M = M on M = R/(x), though x - 1 is not a unit of R
    line = CyclicModule(r2, Ideal(r2, (x,)))
    assert line.kills(Ideal(r2, (x - r2.one,)))
    assert not line.kills(Ideal(r2, (y,)))
    assert not free_module(r2).kills(Ideal(r2, (x - r2.one,)))


def test_is_linked_examples(r2, r4, flag):
    x, y = r2.gens()
    M2 = free_module(r2)
    w_xy = RegularSequenceWitness((x * y,))
    assert is_linked(Ideal(r2, (x,)), Ideal(r2, (y,)), Ideal(r2, (x * y,)), M2, w_xy)

    m = Ideal(r2, (x, y))
    w_m = RegularSequenceWitness((x**2, y))
    assert is_linked(m, m, Ideal(r2, (x**2, y)), M2, w_m)

    x1, x2, x3, x4 = r4.gens()
    a12 = Ideal(r4, (x1, x2))
    a34 = Ideal(r4, (x3, x4))
    I = Ideal(r4, (x1 * x3, x2 * x4))
    w = RegularSequenceWitness((x1 * x3, x2 * x4))
    assert not is_linked(a12, a34, I, free_module(r4), w)


def test_invalid_witness_rejected(r2):
    x, y = r2.gens()
    M = free_module(r2)
    bad = RegularSequenceWitness((x**2, x * y))
    with pytest.raises(WitnessError, match="^regular-sequence witness: witness is not an M-"):
        is_linked(Ideal(r2, (x, y)), Ideal(r2, (x, y)), Ideal(r2, (x**2, x * y)), M, bad)
    # witness must generate I
    with pytest.raises(WitnessError, match="^regular-sequence witness: witness elements do not"):
        is_linked(
            Ideal(r2, (x,)),
            Ideal(r2, (y,)),
            Ideal(r2, (x * y,)),
            M,
            RegularSequenceWitness((x,)),
        )


def test_geometric_examples(r2, flag):
    x, y = r2.gens()
    M2 = free_module(r2)
    w_xy = RegularSequenceWitness((x * y,))
    assert is_geometrically_linked(
        Ideal(r2, (x,)), Ideal(r2, (y,)), Ideal(r2, (x * y,)), M2, w_xy
    )
    m = Ideal(r2, (x, y))
    w_m = RegularSequenceWitness((x**2, y))
    assert not is_geometrically_linked(m, m, Ideal(r2, (x**2, y)), M2, w_m)
    torsion = CyclicModule(r2, Ideal(r2, (x * y,)))
    assert is_geometrically_linked(
        Ideal(r2, (x,)), Ideal(r2, (y,)), Ideal(r2, ()), torsion, EMPTY_WITNESS
    )


def test_candidate_link_examples(r2, flag):
    a, I, w, M4 = flag
    r4 = a.ring
    x1, x2, x3, x4 = r4.gens()
    cand = candidate_link(a, I, M4, w)
    assert ideal_equal(cand, Ideal(r4, (x1 * x2, x1 * x3, x2 * x4, x3 * x4)))

    x, y = r2.gens()
    M2 = free_module(r2)
    assert ideal_equal(
        candidate_link(
            Ideal(r2, (x, y)), Ideal(r2, (x**2, y)), M2, RegularSequenceWitness((x**2, y))
        ),
        Ideal(r2, (x, y)),
    )
    assert ideal_equal(
        candidate_link(
            Ideal(r2, (x,)), Ideal(r2, (x * y,)), M2, RegularSequenceWitness((x * y,))
        ),
        Ideal(r2, (y,)),
    )


def test_s_membership_examples(r2):
    x, y = r2.gens()
    M2 = free_module(r2)
    w_m = RegularSequenceWitness((x**2, y))
    assert s_membership(Ideal(r2, (x, y)), Ideal(r2, (x**2, y)), M2, w_m)
    w_xy = RegularSequenceWitness((x * y,))
    assert s_membership(Ideal(r2, (x,)), Ideal(r2, (x * y,)), M2, w_xy)
    assert not s_membership(Ideal(r2, (x, y**2)), Ideal(r2, (x * y,)), M2, w_xy)
    with pytest.raises(ValueError):
        s_membership(Ideal(r2, (x * y,)), Ideal(r2, (x * y,)), M2, w_xy)


def test_aprime_examples(r2, flag):
    a, I, w, M4 = flag
    r4 = a.ring
    x1, x2, x3, x4 = r4.gens()
    ap = aprime_construct(a, I, M4, w)
    assert ideal_equal(ap, a)
    alt_I = Ideal(r4, (x1 * x4, x2 * x3))
    alt_w = RegularSequenceWitness((x1 * x4, x2 * x3))
    assert ideal_equal(aprime_construct(a, alt_I, M4, alt_w), ap)

    x, y = r2.gens()
    M2 = free_module(r2)
    assert ideal_equal(
        aprime_construct(
            Ideal(r2, (x,)), Ideal(r2, (x * y,)), M2, RegularSequenceWitness((x * y,))
        ),
        Ideal(r2, (x,)),
    )
    assert ideal_equal(
        aprime_construct(
            Ideal(r2, (x, y)), Ideal(r2, (x**2, y)), M2, RegularSequenceWitness((x**2, y))
        ),
        Ideal(r2, (x, y)),
    )


def test_aprime_contains_a_and_is_radical(flag):
    a, I, w, M4 = flag
    ap = aprime_construct(a, I, M4, w)
    assert ideal_contains(ap, a)
    assert ideal_equal(ap, monomial_radical(ap))


def test_cd_principal_examples(r2):
    x, y = r2.gens()
    assert cd_principal_cyclic(x, CyclicModule(r2, Ideal(r2, (x * y,)))) == 1
    assert cd_principal_cyclic(x, CyclicModule(r2, Ideal(r2, (x**2,)))) == 0
    assert cd_principal_cyclic(x, free_module(r2)) == 1
    with pytest.raises(ValueError):
        cd_principal_cyclic(r2.zero, free_module(r2))


def test_cd_oracle_examples(r2, flag):
    a, I, w, M4 = flag
    assert grade_via_ext(a, M4) == 2
    assert cd_oracle(a, M4) == 3

    x, y = r2.gens()
    M2 = free_module(r2)
    principal = Ideal(r2, (x**2 - y,))
    assert grade_via_ext(principal, M2) == 1
    assert cd_oracle(principal, M2) == 1


# -- corpus-wide invariants -------------------------------------------------------


def _linked_instances(corpus_instances):
    out = []
    for name, inst in corpus_instances:
        b = inst.partner()
        if is_linked(inst.a, b, inst.I, inst.module, inst.witness):
            out.append((name, inst, b))
    return out


def test_linkage_symmetry_on_corpus(corpus_instances):
    for name, inst, b in _linked_instances(corpus_instances):
        assert is_linked(b, inst.a, inst.I, inst.module, inst.witness), name


def test_reflexivity_criterion_on_corpus(corpus_instances):
    for name, inst in corpus_instances:
        J = inst.module.defining_ideal
        if ideal_equal(ideal_sum(inst.I, J), ideal_sum(inst.a, J)):
            continue
        cand = candidate_link(inst.a, inst.I, inst.module, inst.witness)
        unit = Ideal(inst.ring, cand.gens + J.gens).is_unit()
        linked = (
            False
            if unit or cand.is_zero()
            else is_linked(inst.a, cand, inst.I, inst.module, inst.witness)
        )
        member = s_membership(inst.a, inst.I, inst.module, inst.witness)
        assert linked == member, name


def test_geometric_implies_linked_on_corpus(corpus_instances):
    for name, inst in corpus_instances:
        b = inst.partner()
        if is_geometrically_linked(inst.a, b, inst.I, inst.module, inst.witness):
            assert is_linked(inst.a, b, inst.I, inst.module, inst.witness), name


def test_linked_grade_agrees_with_witness_length(corpus_instances):
    for name, inst, b in _linked_instances(corpus_instances):
        assert grade_via_ext(inst.a, inst.module) == inst.witness.length, name


def test_ass_containment_on_linked_monomial_corpus(corpus_instances):
    for name, inst, b in _linked_instances(corpus_instances):
        J = inst.module.defining_ideal
        aJ = ideal_sum(inst.a, J)
        IJ = ideal_sum(inst.I, J)
        try:
            ass_a = associated_primes_monomial(aJ).all_primes
            ass_i = associated_primes_monomial(IJ).all_primes
        except ValueError:
            continue
        assert ass_a <= ass_i, name


# -- the two grade routes -----------------------------------------------------------


def test_grade_oracle_routes(r3, monkeypatch):
    x, y, z = r3.gens()
    R = free_module(r3)
    assert height(Ideal(r3, ())) == grade_oracle(Ideal(r3, ()), R) == 0
    # the reduced basis adds x^2*z - y*z^2, so in(a) = (x^2*z, x*y, y^2),
    # whose radical (y, x*z) has the minimal primes (x, y) and (y, z)
    a = Ideal(r3, (x * y - z**2, x * z - y**2))
    assert height(a) == grade_oracle(a, R) == grade_via_ext(a, R) == 2
    # minimal primes of two sizes: the height is the least of them
    for a in (Ideal(r3, (x * y, x * z)), Ideal(r3, (x * y - x, x * z))):
        assert height(a) == grade_oracle(a, R) == grade_via_ext(a, R) == 1
    for unit in (Ideal(r3, (r3.one,)), Ideal(r3, (x, x - r3.one))):
        with pytest.raises(ValueError, match="the ideal acts as the unit on M"):
            grade_oracle(unit, R)
        with pytest.raises(ValueError, match="the unit ideal has no height"):
            height(unit)
    # over R/J the grade is read off Ext, never off a height
    monkeypatch.setattr(linkage_mod, "height", None)
    xy = CyclicModule(r3, Ideal(r3, (x * y,)))
    assert grade_oracle(Ideal(r3, (x, y)), xy) == 1
    assert grade_oracle(Ideal(r3, (x, z)), xy) == 1
    assert grade_oracle(Ideal(r3, (z,)), xy) == 1
    with pytest.raises(ValueError, match="the ideal acts as the unit on M"):
        grade_oracle(Ideal(r3, (x - r3.one,)), CyclicModule(r3, Ideal(r3, (x,))))


def test_height_equals_the_ext_grade_on_every_ideal_the_checks_ask(workload_pass):
    # 901 ideals, 449 of them over lex and 36 with an inhomogeneous
    # generator; the floors leave a margin for gates that later close
    ideals = list(workload_pass["grades"].values())
    assert len(ideals) >= 850
    assert sum(a.ring.order == "lex" for a in ideals) >= 400
    assert sum(not all(g.is_homogeneous() for g in a.gens) for a in ideals) >= 30
    for a in ideals:
        assert height(a) == grade_via_ext(a, free_module(a.ring)), a
