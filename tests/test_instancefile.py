import hashlib
import json
import random
import sys

import pytest

from conftest import CORPUS_DIR
from liaison.checks import GLOBAL_CHECKS, CheckId
from liaison.errors import ParseError, ResourceLimitError
from liaison.instancefile import PROFILES, instance_digest, parse_instance, print_instance
from liaison.linkage import RegularSequenceWitness

FLAGSHIP_MIN = """\
ring R = QQ[x1, x2, x3, x4] grevlex;
ideal a = x1*x3, x1*x4, x2*x3, x2*x4;
ideal I = x1*x3, x2*x4;
module M = quotient 0;
regseq s = x1*x3, x2*x4;
check T5_CD(a = a, I = I, M = M, seq = s);
"""


def test_flagship_minimal_parses():
    parsed = parse_instance(FLAGSHIP_MIN)
    assert parsed.ring.nvars == 4
    assert set(parsed.ideals) == {"a", "I"}
    assert len(parsed.directives) == 1
    assert parsed.directives[0].check is CheckId.T5_CD


def test_ideal_before_ring_rejected():
    with pytest.raises(ParseError) as err:
        parse_instance("ideal a = x*y;\n")
    assert "no ring in scope" in str(err.value)


def test_duplicate_variable_rejected():
    with pytest.raises(ParseError) as err:
        parse_instance("ring R = QQ[x, x] grevlex;\n")
    assert "duplicate variable" in str(err.value)


def test_duplicate_names_rejected():
    text = "ring R = QQ[x] grevlex;\nideal a = x;\nideal a = x;\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "duplicate ideal" in str(err.value)


def test_unresolved_reference_rejected():
    text = "ring R = QQ[x] grevlex;\nmodule M = quotient nope;\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "unresolved" in str(err.value)


def test_nonprime_modulus_rejected():
    with pytest.raises(ParseError) as err:
        parse_instance("ring R = FP(6)[x] grevlex;\n")
    assert "not prime" in str(err.value)
    # composite, yet a strong probable prime to every Miller-Rabin base 2..37
    with pytest.raises(ParseError) as err:
        parse_instance("ring R = FP(3317044064679887385961981)[x] grevlex;\n")
    assert "must be below" in str(err.value)


def test_unknown_check_rejected():
    text = "ring R = QQ[x] grevlex;\nideal a = x;\nmodule M = quotient 0;\ncheck NOPE(a = a, I = a, M = M);\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "unknown check" in str(err.value)


def test_missing_seq_for_nonzero_I_rejected():
    text = (
        "ring R = QQ[x, y] grevlex;\n"
        "ideal a = x, y;\nideal I = x^2, y;\nmodule M = quotient 0;\n"
        "check T5_CD(a = a, I = I, M = M);\n"
    )
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "seq" in str(err.value)


def test_missing_alt_seq_for_nonzero_alt_I_rejected_at_the_check_id():
    text = FLAGSHIP_MIN.replace(
        "check T5_CD(a = a, I = I, M = M, seq = s);\n",
        "ideal I2 = x1*x4, x2*x3;\n"
        "check APRIME_T7(a = a, I = I, M = M, seq = s, alt_I = I2);\n",
    )
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert "needs alt_seq=" in str(err.value)
    assert (err.value.line, err.value.col) == (7, 7)


ALTERNATE_DECLS = FLAGSHIP_MIN.replace(
    "check T5_CD(a = a, I = I, M = M, seq = s);\n",
    "ideal I2 = x1*x4, x2*x3;\nregseq s2 = x1*x4, x2*x3;\n",
)


@pytest.mark.parametrize(
    "check, message",
    [
        (
            "L07(a = a, I = I, M = M, seq = s, alt_I = I2, alt_seq = s2)",
            "only APRIME_T7 takes alt_I or alt_seq",
        ),
        ("APRIME_T7(a = a, I = I, M = M, seq = s, alt_seq = s2)", "alt_seq needs alt_I"),
    ],
    ids=["alternate-on-another-check", "alt_seq-without-alt_I"],
)
def test_stray_alternate_rejected_at_the_check_id(check, message):
    with pytest.raises(ParseError) as err:
        parse_instance(f"{ALTERNATE_DECLS}check {check};\n")
    assert (err.value.message, err.value.line, err.value.col) == (message, 8, 7)


def test_zero_ideal_literal_and_empty_witness():
    text = (
        "ring R = QQ[x, y] grevlex;\n"
        "ideal J0 = x*y;\nideal a = x;\nideal Z = 0;\n"
        "module M = quotient J0;\n"
        "check S_REFLEX(a = a, I = Z, M = M);\n"
    )
    parsed = parse_instance(text)
    assert parsed.ideals["Z"].gens == ()
    inst = parsed.directives[0].instance
    assert inst.witness.length == 0


@pytest.mark.parametrize("zero", ["x - x", "0, 0"])
def test_zero_linking_ideal_written_with_zero_generators_needs_no_seq(zero):
    text = (
        "ring R = QQ[x, y] grevlex;\n"
        f"ideal a = x;\nideal Z = {zero};\nmodule M = quotient 0;\n"
        "check L07(a = a, I = Z, M = M);\n"
    )
    inst = parse_instance(text).directives[0].instance
    assert inst.I.gens and not any(inst.I.gens)
    assert inst.witness.length == 0
    assert inst.I._gb is None  # zero generators are seen without a basis


def test_module_quotient_unit_rejected():
    text = "ring R = QQ[x] grevlex;\nideal u = 1;\nmodule M = quotient u;\n"
    with pytest.raises(ParseError):
        parse_instance(text)


def test_error_carries_line_and_col():
    text = "ring R = QQ[x, y] grevlex;\nideal a = x ++ y;\n"
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line == 2
    assert err.value.col == 14


def test_round_trip_on_corpus(corpus_files):
    for name, text in corpus_files.items():
        parsed = parse_instance(text)
        printed = print_instance(parsed)
        reparsed = parse_instance(printed)
        assert print_instance(reparsed) == printed, name
        assert instance_digest(reparsed) == instance_digest(parsed), name


def test_digest_is_the_sha256_of_the_canonical_text(monkeypatch):
    from liaison.generate import generate_instances

    corpus = sorted(CORPUS_DIR.glob("*.link"))
    texts = [path.read_text() for path in corpus]
    texts += [generate_instances(1, profile, 2, 4) for profile in PROFILES]
    parsed = [parse_instance(text) for text in texts]
    expected = [hashlib.sha256(print_instance(p).encode()).hexdigest() for p in parsed]
    assert [instance_digest(p) for p in parsed] == expected
    # without the interpreter's builtin sha256 modules the digest falls back
    # to hashlib and stays the same
    calls = []
    monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or hashlib.new("sha256", data))
    monkeypatch.setitem(sys.modules, "_sha2", None)
    monkeypatch.setitem(sys.modules, "_sha256", None)
    assert [instance_digest(p) for p in parsed] == expected
    assert len(calls) == len(parsed) == len(corpus) + len(PROFILES) == 9


def test_comments_do_not_change_digest():
    base = parse_instance(FLAGSHIP_MIN)
    commented = parse_instance("# preamble\n" + FLAGSHIP_MIN + "# trailing\n")
    assert instance_digest(base) == instance_digest(commented)


def test_instances_deduplicated(corpus_files):
    parsed = parse_instance(corpus_files["flagship.link"])
    instances = parsed.instances()
    by_check = {d.check: d for d in parsed.directives}
    # ten instance-level directives with three argument signatures: the
    # (a, b, I, M, seq) of eight checks, APRIME_T7's alternates, and S_REFLEX
    # without b; each is the first such directive's own instance
    firsts = [by_check[c].instance for c in (CheckId.L07, CheckId.APRIME_T7, CheckId.S_REFLEX)]
    assert len(instances) == 3
    assert all(inst is first for inst, first in zip(instances, firsts))
    assert len(instances) < sum(1 for d in parsed.directives if d.check not in GLOBAL_CHECKS)

    aprime = by_check[CheckId.APRIME_T7].instance
    assert aprime.alternate == (parsed.ideals["I2"], RegularSequenceWitness(parsed.regseqs["s2"]))
    assert aprime.b is None
    assert by_check[CheckId.L07].instance.b is parsed.ideals["b"]
    assert by_check[CheckId.L07].instance.alternate is None
    s_reflex = by_check[CheckId.S_REFLEX].instance
    assert s_reflex.b is None
    assert (s_reflex.a, s_reflex.I) == (parsed.ideals["a"], parsed.ideals["I"])
    assert s_reflex.witness == RegularSequenceWitness(parsed.regseqs["s"])
    assert all(by_check[c].instance is None for c in GLOBAL_CHECKS)


RING = "ring R = QQ[x, y] grevlex;\n"
DECLS = RING + "ideal a = x, y;\nmodule M = quotient 0;\n"

# (text, message, line, col) of every ParseError path that no other test
# reaches, the two orderings where a statement has two errors (a missing ';'
# is reported before a unit J or a missing argument), and a global check
# given arguments.
PARSE_ERRORS = [
    ("", "no ring in scope", 1, 1),
    ("# only a comment\n", "no ring in scope", 2, 1),
    (RING + "ring S = QQ[x] lex;\n", "second ring declaration", 2, 1),
    (RING + "module M = quot 0;\n", "expected 'quotient'", 2, 12),
    (DECLS + "check L07(a = a, z = a);\n", "unknown argument 'z'", 4, 18),
    (DECLS + "check L07(a = a, a = a);\n", "duplicate argument 'a'", 4, 18),
    (DECLS + "check L07(a = nope);\n", "unresolved reference 'nope'", 4, 15),
    (DECLS + "check L07(a = M);\n", "unresolved reference 'M'", 4, 15),
    (DECLS + "check L07(a = a, M = M);\n", "check L07 needs argument 'I'", 4, 7),
    (RING + "poly f = x;\n", "unknown statement 'poly'", 2, 1),
    (RING + "ideal u = 1;\nmodule M = quotient u\nideal b = x;\n", "expected ';'", 4, 1),
    (DECLS + "check L07(a = a, M = M)\n", "expected ';'", 5, 1),
    (DECLS + "check C11_GLOBAL(a = a);\n", "check C11_GLOBAL takes no arguments", 4, 7),
]


@pytest.mark.parametrize("text, message, line, col", PARSE_ERRORS)
def test_parse_error_message_and_position(text, message, line, col):
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (err.value.message, err.value.line, err.value.col) == (message, line, col)


# Seeded text mutations: every outcome must be a ParseError located inside the
# text, a ResourceLimitError, or a parse whose printed form re-parses to the
# same text.  The digest pins every outcome, so a parser refactor that changes
# a message, a position or which error wins shows up here.
MUTANTS_PER_TEXT = 150
MUTATION_SEED = 19
MUTATION_DIGEST = "76704e8c8b4c338ed484bd8051f40958e3264358ffb114c6817b9717c2c211d5"
_SNIPPETS = (
    ";", ",", "=", "(", ")", "0", "1", "7", "^", "^300", "*", "+", "-", "/",
    " ", "\n", "#", "x", "y", "a", "b", "I", "M", "s", "s2", "quotient",
    "ideal ", "module ", "regseq ", "check ", "ring ", "a = a, ", "seq = s",
    "L07", "C11_GLOBAL", "FP(", "QQ", "lex", "\u00e9", "\u00b9",
)


def _mutate(rng, text):
    for _ in range(rng.randint(1, 4)):
        pos = rng.randrange(len(text) + 1)
        kind = rng.randrange(3)
        if kind == 0:
            text = text[:pos] + text[pos + rng.randint(1, 3):]
        elif kind == 1:
            text = text[:pos] + rng.choice(_SNIPPETS) + text[pos:]
        else:
            lines = text.split("\n")
            lines.insert(rng.randrange(len(lines) + 1), rng.choice(lines))
            text = "\n".join(lines)
    return text


def _outcome(text):
    try:
        parsed = parse_instance(text)
    except ParseError as exc:
        lines = text.split("\n")
        assert 1 <= exc.line <= len(lines), (text, exc)
        assert 1 <= exc.col <= len(lines[exc.line - 1]) + 1, (text, exc)
        return ["error", exc.message, exc.line, exc.col]
    except ResourceLimitError as exc:
        return ["limit", str(exc)]
    printed = print_instance(parsed)
    assert print_instance(parse_instance(printed)) == printed, text
    return ["parsed", instance_digest(parsed)]


def test_mutated_texts_end_in_a_parse_or_a_located_error():
    bases = [path.read_text() for path in sorted(CORPUS_DIR.glob("*.link"))]
    bases += [FLAGSHIP_MIN] + [text for text, *_ in PARSE_ERRORS]
    rng = random.Random(MUTATION_SEED)
    outcomes = [_outcome(text) for text in bases]
    for base in bases:
        outcomes += [_outcome(_mutate(rng, base)) for _ in range(MUTANTS_PER_TEXT)]
    kinds = [o[0] for o in outcomes]
    assert kinds.count("parsed") >= 50
    digest = hashlib.sha256(json.dumps(outcomes).encode()).hexdigest()
    assert digest == MUTATION_DIGEST
