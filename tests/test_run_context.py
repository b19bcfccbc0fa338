"""The per-run context: caps and memo live exactly as long as one run, and
the memo returns what a fresh computation would."""

import json
from contextlib import contextmanager
from pathlib import Path

import pytest

from liaison import limits
from liaison.checks import run_suite
from liaison.cli import main
from liaison.errors import ResourceLimitError, WitnessError
from liaison.groebner import Ideal, reduced_groebner_basis
from liaison.ideal_ops import ideal_contains, ideal_quotient, intersect_ideals
from liaison.instancefile import parse_instance
from liaison.linkage import (
    CyclicModule,
    RegularSequenceWitness,
    is_linked,
    validate_witness,
)
from liaison.monomials import cd_monomial
from liaison.resolutions import nonzero_ext_degrees

FLAGSHIP = Path(__file__).resolve().parent.parent / "corpus" / "flagship.link"

# `liaison gen --seed 1 --profile geometric-links --count 1 --vars 4` under
# the change of coordinates x1 -> x1 + 2*x2, so that a and I are not monomial.
NONMONOMIAL = """\
ring R = QQ[x1, x2, x3, x4] grevlex;
module M = quotient 0;
ideal a0 = x1 + 2*x2, x3;
ideal b0 = x3, x4;
ideal I0 = x1*x4 + 2*x2*x4, x3;
regseq s0 = x1*x4 + 2*x2*x4, x3;
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


def _without_millis(text):
    report = json.loads(text)
    for verdict in report["verdicts"]:
        del verdict["millis"]
    return report


def test_cli_runs_leave_no_context(capsys, degree_four_file):
    reports = []
    for cap, code in ((None, 0), ("3", 3), (None, 0)):
        argv = ["run", str(degree_four_file), "--format", "json"]
        if cap is not None:
            argv += ["--degree-cap", cap]
        assert main(argv) == code
        assert limits._RUN.get() is None
        reports.append(capsys.readouterr().out)
    # the capped run in between changed nothing for the third
    assert _without_millis(reports[0]) == _without_millis(reports[2])


def test_aborted_run_leaves_no_context_or_memo():
    calls = []

    def compute():
        calls.append(1)
        return "value"

    def abort():
        raise ResourceLimitError("over the cap")

    with pytest.raises(ResourceLimitError):
        with limits.run_context(degree=3) as run:
            with pytest.raises(ResourceLimitError):
                limits.memo("kind", "key", abort)
            assert run.memo == {}  # an aborted computation stores nothing
            assert limits.memo("kind", "key", compute) == "value"
            assert limits.memo("kind", "key", compute) == "value"
            assert len(calls) == 1
            abort()
    assert limits._RUN.get() is None
    limits.memo("kind", "key", compute)
    limits.memo("kind", "key", compute)
    assert len(calls) == 3  # outside a run nothing is cached


def test_nested_run_inherits_caps_with_a_fresh_memo():
    with limits.run_context(degree=5) as outer:
        limits.memo("kind", "key", lambda: 1)
        with limits.run_context() as inner:
            assert inner.degree_cap == 5
            assert inner.memo == {}
        assert limits._RUN.get() is outer
    with pytest.raises(ValueError, match="degree cap must be positive"):
        with limits.run_context(degree=0):
            pass
    assert limits._RUN.get() is None


def _recorded_runs(monkeypatch, texts):
    """The memo of the run of each text, captured as run_suite closes it."""
    runs = []
    opened = limits.run_context

    @contextmanager
    def recording(**caps):
        with opened(**caps) as run:
            yield run
            runs.append(run)

    monkeypatch.setattr(limits, "run_context", recording)
    for text in texts:
        run_suite(parse_instance(text))
    monkeypatch.undo()
    assert limits._RUN.get() is None
    return [run.memo for run in runs]


def _fresh(kind, key):
    """The memoized computation, made again with no run open."""
    if kind == "gb":
        _, gens = key
        return reduced_groebner_basis(list(gens))
    if kind == "intersect":
        ring, I, J = key
        return intersect_ideals(Ideal(ring, I), Ideal(ring, J)).gens
    if kind == "quotient":
        ring, I, J = key
        return ideal_quotient(Ideal(ring, I), Ideal(ring, J)).gens
    if kind == "ext":
        ring, a, J = key
        return nonzero_ext_degrees(Ideal(ring, a), CyclicModule(ring, Ideal(ring, J)))
    if kind == "cd":
        ring, gens = key
        return cd_monomial(Ideal(ring, gens))
    if kind == "contains":
        ring, I, J = key
        return ideal_contains(Ideal(ring, I), Ideal(ring, J))
    if kind == "linked":
        ring, a, b, I, J, elements = key
        try:
            return is_linked(
                Ideal(ring, a),
                Ideal(ring, b),
                Ideal(ring, I),
                CyclicModule(ring, Ideal(ring, J)),
                RegularSequenceWitness(elements),
            )
        except WitnessError as exc:
            return str(exc)
    ring, elements, I, J = key
    try:
        validate_witness(
            RegularSequenceWitness(elements),
            Ideal(ring, I),
            CyclicModule(ring, Ideal(ring, J)),
        )
    except WitnessError as exc:
        return str(exc)
    return None


def test_memo_is_transparent_and_deterministic(monkeypatch):
    texts = [FLAGSHIP.read_text(), NONMONOMIAL]
    memos = _recorded_runs(monkeypatch, texts + texts)
    assert [list(m) for m in memos[:2]] == [list(m) for m in memos[2:]]
    kinds = set()
    for memo in memos[:2]:
        for (kind, key), value in memo.items():
            kinds.add(kind)
            if kind in ("intersect", "quotient"):
                value = value.gens
            assert value == _fresh(kind, key), (kind, key)
    assert kinds == {
        "gb",
        "intersect",
        "quotient",
        "witness",
        "ext",
        "cd",
        "contains",
        "linked",
    }


def _entries(run, kind):
    return [slot for slot in run.memo if slot[0] == kind]


def test_memo_keys_keep_apart_what_computation_does(r3):
    x, y, z = r3.gens()
    I, f = Ideal(r3, (x**2,)), x.scale(r3.field.of(2))
    # one key for I : (2x) and I : (2x, 2x), and one reduced basis (x)
    fresh = [ideal_quotient(I, Ideal(r3, J)).gens for J in ((f,), (f, f))]
    assert fresh[0] == fresh[1] == (x,)
    # x, y(1-x), z(1-x) is R-regular; in the order y(1-x), z(1-x), x it is not
    one = r3.one
    seq = (x, y * (one - x), z * (one - x))
    M = CyclicModule(r3, Ideal(r3, ()))
    with limits.run_context() as run:
        assert [ideal_quotient(I, Ideal(r3, J)).gens for J in ((f,), (f, f))] == fresh
        assert len(_entries(run, "quotient")) == 1
        # (x) is the same ideal, so the same entry answers
        assert ideal_quotient(I, Ideal(r3, (x,))).gens == fresh[0]
        assert len(_entries(run, "quotient")) == 1
        validate_witness(RegularSequenceWitness(seq), Ideal(r3, seq), M)
        with pytest.raises(WitnessError, match="not an M-regular sequence"):
            permuted = seq[1:] + seq[:1]
            validate_witness(RegularSequenceWitness(permuted), Ideal(r3, seq), M)


def test_colon_and_intersection_answer_by_ideal_not_generators(r3):
    x, y, z = r3.gens()
    I = Ideal(r3, (x**2 - y * z, y**2))
    # two generating sets of the one ideal (x + y, z)
    gensets = ((x + y, z), (x + y + z, z, (x + y) * z))
    Js = [Ideal(r3, gens) for gens in gensets]
    fresh = {op: op(I, Js[0]).gens for op in (ideal_quotient, intersect_ideals)}
    assert all(op(I, J).gens == gens for J in Js for op, gens in fresh.items())
    with limits.run_context() as run:
        for op, gens in fresh.items():
            first, second = (op(I, J) for J in Js)
            assert first.gens == gens
            assert second is first  # the second generating set hits the entry
        assert len(_entries(run, "quotient")) == len(_entries(run, "intersect")) == 1


def test_linkage_memo_keeps_witnesses_apart(r4):
    x, y, z, w = r4.gens()
    one = r4.one
    # x, y(1-x), z(1-x), w^2 is R-regular and generates (x, y, z, w^2);
    # in the order y(1-x), z(1-x), w^2, x it is not regular
    seq = (x, y * (one - x), z * (one - x), w**2)
    valid = RegularSequenceWitness(seq)
    invalid = RegularSequenceWitness(seq[1:] + seq[:1])
    I = Ideal(r4, seq)
    a = b = Ideal(r4, (x, y, z, w))  # self-linked by I
    M = CyclicModule(r4, Ideal(r4, ()))
    assert is_linked(a, b, I, M, valid) is True
    with pytest.raises(WitnessError) as outside:
        is_linked(a, b, I, M, invalid)
    message = str(outside.value)
    assert "not an M-regular sequence" in message
    for order in ((valid, invalid), (invalid, valid)):
        with limits.run_context() as run:
            for witness in order + order:  # a miss, then a hit, for each
                if witness is valid:
                    assert is_linked(a, b, I, M, witness) is True
                else:
                    with pytest.raises(WitnessError) as inside:
                        is_linked(a, b, I, M, witness)
                    assert str(inside.value) == message
            assert len(_entries(run, "linked")) == 2
