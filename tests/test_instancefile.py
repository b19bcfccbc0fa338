import pytest

from liaison.checks import CheckId
from liaison.errors import ParseError
from liaison.instancefile import instance_digest, parse_instance, print_instance

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


def test_zero_ideal_literal_and_empty_witness():
    text = (
        "ring R = QQ[x, y] grevlex;\n"
        "ideal J0 = x*y;\nideal a = x;\nideal Z = 0;\n"
        "module M = quotient J0;\n"
        "check S_REFLEX(a = a, I = Z, M = M);\n"
    )
    parsed = parse_instance(text)
    assert parsed.ideals["Z"].gens == ()
    inst = parsed.instance_for(parsed.directives[0])
    assert inst.witness.length == 0


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


def test_comments_do_not_change_digest():
    base = parse_instance(FLAGSHIP_MIN)
    commented = parse_instance("# preamble\n" + FLAGSHIP_MIN + "# trailing\n")
    assert instance_digest(base) == instance_digest(commented)


def test_instances_deduplicated(corpus_files):
    parsed = parse_instance(corpus_files["flagship.link"])
    instances = parsed.instances()
    # ten instance-level directives, all over the same (a, b, I, M) data or
    # the aprime variant: two distinct argument signatures
    assert len(instances) == {len(instances)}.pop()
    assert len(instances) < sum(
        1 for d in parsed.directives if d.check.value not in
        ("C11_GLOBAL", "T1_GLOBAL", "C1_WITNESS")
    )
