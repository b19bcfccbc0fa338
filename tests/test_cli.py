import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

from conftest import load_perfbench
import liaison.checks as checks_mod
from liaison.checks import CheckId, run_suite
from liaison.cli import main, report_schema
from liaison.instancefile import parse_instance

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


def test_run_corpus_exit_zero(capsys):
    code = main(["run", str(CORPUS / "principal_pair.link"), "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(v["status"] in ("holds", "inapplicable") for v in report["verdicts"])


def test_json_report_matches_schema(capsys):
    schema = report_schema()
    for name in ("principal_pair.link", "selflink.link", "fp_selflink.link"):
        code = main(["run", str(CORPUS / name), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        jsonschema.validate(json.loads(out), schema)


def test_report_fields_exact(capsys):
    main(["run", str(CORPUS / "fp_selflink.link"), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    assert list(report.keys()) == ["version", "digest", "characteristic", "verdicts"]
    assert report["characteristic"] == 7
    assert len(report["digest"]) == 64
    for v in report["verdicts"]:
        assert list(v.keys()) == ["check", "status", "details", "witness", "millis"]


def test_markdown_has_one_section_per_verdict(capsys):
    code = main(["run", str(CORPUS / "zero_link.link"), "--format", "md"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.count("## ") == 4


def test_synthetic_failing_check_exit_one(monkeypatch, capsys):
    def failing(ring, corpus):
        return False, {"note": "synthetic"}, {"because": "deliberate failure"}

    monkeypatch.setitem(checks_mod.CHECK_RUNNERS, CheckId.C1_WITNESS, failing)
    code = main(["run", str(CORPUS / "selflink.link"), "--format", "json"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    failed = [v for v in report["verdicts"] if v["status"] == "fails"]
    assert len(failed) == 1
    assert failed[0]["witness"]["because"] == "deliberate failure"


def test_malformed_file_exit_two(tmp_path, capsys):
    bad = tmp_path / "bad.link"
    bad.write_text("ring R = QQ[x, x] grevlex;\n")
    code = main(["run", str(bad)])
    assert code == 2
    err = capsys.readouterr().err
    assert "line 1" in err and "col" in err


def test_missing_file_exit_two(tmp_path, capsys):
    missing = tmp_path / "does_not_exist.link"
    assert main(["run", str(missing)]) == 2
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{missing}'\n"


# (arguments after `run`, the one stderr line, the exit code); {tmp} is the
# test's directory, which holds bad.link (a parse error) and deg.link
# (a degree past the default cap while parsing)
RUN_ERRORS = {
    "directory": (["{tmp}"], "error: [Errno 21] Is a directory: '{tmp}'", 2),
    "parse": (["{tmp}/bad.link"], "error: {tmp}/bad.link: line 2 col 13: expected ';'", 2),
    "degree": (
        ["{tmp}/deg.link"],
        "error: resource limit: polynomial degree 300 exceeds cap 128",
        3,
    ),
    "out": (
        [str(CORPUS / "zero_link.link"), "--out", "{tmp}/missing/report.json"],
        "error: [Errno 2] No such file or directory: '{tmp}/missing/report.json'",
        2,
    ),
}


@pytest.mark.parametrize("case", RUN_ERRORS)
def test_run_error_line_and_exit_code(case, tmp_path, capsys):
    (tmp_path / "bad.link").write_text("ring R = QQ[x, y] grevlex;\nideal a = x y;\n")
    (tmp_path / "deg.link").write_text("ring R = QQ[x] grevlex;\nideal a = x^300;\n")
    argv, line, code = RUN_ERRORS[case]
    assert main(["run", *(arg.format(tmp=tmp_path) for arg in argv)]) == code
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", line.format(tmp=tmp_path) + "\n")


def test_unwritable_out_fails_before_any_check(tmp_path, capsys, monkeypatch):
    import liaison.cli as cli_mod

    suites = []
    monkeypatch.setattr(cli_mod, "run_suite", lambda parsed: suites.append(parsed) or [])
    out = tmp_path / "missing" / "report.json"
    assert main(["run", str(CORPUS / "flagship.link"), "--out", str(out)]) == 2
    assert suites == []
    assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"


# Each option of `liaison compute` that is parsed, with a value that does not
# parse: the error names the option, as `liaison run` names the file.
COMPUTE_PARSE_ERRORS = {
    "--ring": (["--ring", "QQ[x,y", "--ideal", "x"], "line 1 col 7: expected ']'"),
    "--ideal": (["--ring", "QQ[x,y]", "--ideal", "x^2, y 1"], "line 1 col 8: unexpected trailing input"),
    "--by": (["--ring", "QQ[x,y]", "--ideal", "x", "--by", "y +"], "line 1 col 4: expected a term"),
    "--module": (["--ring", "QQ[x,y]", "--ideal", "x", "--module", "x*"], "line 1 col 3: expected variable"),
}


@pytest.mark.parametrize("option", COMPUTE_PARSE_ERRORS)
def test_compute_parse_error_names_the_option(option, capsys):
    argv, message = COMPUTE_PARSE_ERRORS[option]
    assert main(["compute", "colon", *argv]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {option}: {message}\n")


def test_usage_error_exit_two(capsys):
    assert main(["frobnicate"]) == 2


def test_degree_cap_exit_three(capsys, degree_four_file):
    code = main(["run", str(degree_four_file), "--degree-cap", "3"])
    assert code == 3
    from liaison.errors import ResourceLimitError
    from liaison.fields import QQ
    from liaison.limits import _RUN, DEFAULT_DEGREE_CAP
    from liaison.rings import PolyRing

    # outside a run the caps are the defaults again
    assert _RUN.get() is None
    x = PolyRing(QQ, ["x"]).gens()[0]
    assert sum((x**DEFAULT_DEGREE_CAP).terms[0][0]) == DEFAULT_DEGREE_CAP
    with pytest.raises(ResourceLimitError):
        x ** (DEFAULT_DEGREE_CAP + 1)


def test_degree_cap_zero_exit_two(capsys):
    code = main(["run", str(CORPUS / "selflink.link"), "--degree-cap", "0"])
    assert code == 2
    assert "degree cap must be positive" in capsys.readouterr().err


def test_jobs_flag_removed(capsys):
    assert main(["run", str(CORPUS / "selflink.link"), "--jobs", "2"]) == 2


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        [
            "run",
            str(CORPUS / "zero_link.link"),
            "--format",
            "json",
            "--out",
            str(target),
        ]
    )
    assert code == 0
    jsonschema.validate(json.loads(target.read_text()), report_schema())


def test_compute_colon(capsys):
    code = main(
        [
            "compute",
            "colon",
            "--ring",
            "QQ[x,y] grevlex",
            "--ideal",
            "x*y",
            "--by",
            "x",
        ]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "y"


def test_compute_gb_lex(capsys):
    main(
        [
            "compute",
            "gb",
            "--ring",
            "QQ[x,y] lex",
            "--ideal",
            "x^2 + y^2 - 1, x - y",
        ]
    )
    assert capsys.readouterr().out.strip() == "x - y, y^2 - 1/2"


def test_compute_grade_cd_pd(capsys):
    flagship = "x1*x3, x1*x4, x2*x3, x2*x4"
    main(["compute", "grade", "--ring", "QQ[x1,x2,x3,x4] grevlex", "--ideal", flagship])
    assert capsys.readouterr().out.strip() == "2"
    main(["compute", "cd", "--ring", "QQ[x1,x2,x3,x4] grevlex", "--ideal", flagship])
    assert capsys.readouterr().out.strip() == "3"
    main(["compute", "pd", "--ring", "QQ[x1,x2,x3,x4] grevlex", "--ideal", flagship])
    assert capsys.readouterr().out.strip() == "3"


@pytest.mark.parametrize(
    "ring, ideal, module, expected",
    [
        # no exact oracle: [grade, min(#generators, dim R)]
        pytest.param("QQ[x,y,z]", "x*y, x*z", "y - z", "[1, 2]", id="interval"),
        pytest.param("QQ[x,y,z]", "x*y, y*z, x*y*z", "x^2", "[1, 2]", id="interval-over-x^2"),
        # grade 2 = dim R closes the interval
        pytest.param("QQ[x,y]", "x^2 - y, y^2 - 1, x + y", None, "2", id="interval-closes-at-dim"),
        pytest.param("QQ[x,y]", "0", None, "0", id="zero-ideal"),
    ],
)
def test_compute_cd_exact_or_interval(capsys, ring, ideal, module, expected):
    argv = ["compute", "cd", "--ring", ring, "--ideal", ideal]
    if module is not None:
        argv += ["--module", module]
    assert main(argv) == 0
    assert capsys.readouterr().out.strip() == expected


@pytest.mark.parametrize(
    "ideal, module, message",
    [
        pytest.param("1", None, "cd of the unit ideal is undefined", id="unit-ideal"),
        pytest.param("x", "x - 1", "aM = M: cd is undefined", id="aM-equals-M"),
    ],
)
def test_compute_cd_undefined_exit_two(capsys, ideal, module, message):
    argv = ["compute", "cd", "--ring", "QQ[x,y]", "--ideal", ideal]
    if module is not None:
        argv += ["--module", module]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == f"error: {message}"


@pytest.mark.parametrize("op", ["colon", "intersect", "aprime"])
def test_compute_without_by_exit_two(capsys, op):
    assert main(["compute", op, "--ring", "QQ[x,y]", "--ideal", "x"]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == f"error: {op} needs --by"


def test_compute_cd_rejects_an_oracle_below_grade(capsys, monkeypatch):
    import liaison.cli as cli_mod

    monkeypatch.setattr(cli_mod, "cd_oracle", lambda a, M: 1)
    flagship = "x1*x3, x1*x4, x2*x3, x2*x4"
    assert main(["compute", "cd", "--ring", "QQ[x1,x2,x3,x4]", "--ideal", flagship]) == 2
    assert "grade exceeds the cd lower bound" in capsys.readouterr().err


def test_compute_intersect_and_module(capsys):
    main(
        [
            "compute",
            "intersect",
            "--ring",
            "QQ[x,y] grevlex",
            "--ideal",
            "x",
            "--by",
            "y",
        ]
    )
    assert capsys.readouterr().out.strip() == "x*y"
    main(
        [
            "compute",
            "colon",
            "--ring",
            "QQ[x,y] grevlex",
            "--ideal",
            "0",
            "--by",
            "x",
            "--module",
            "x*y",
        ]
    )
    assert capsys.readouterr().out.strip() == "y"


def test_compute_aprime(capsys):
    main(
        [
            "compute",
            "aprime",
            "--ring",
            "QQ[x1,x2,x3,x4] grevlex",
            "--ideal",
            "x1*x3, x1*x4, x2*x3, x2*x4",
            "--by",
            "x1*x3, x2*x4",
        ]
    )
    out = capsys.readouterr().out.strip()
    assert out == "x1*x3, x2*x3, x1*x4, x2*x4"


@pytest.mark.parametrize(
    "ideal, by, message",
    [
        ("x, y", "x + y", "associated primes need monomial I + J"),
        ("x", "y", "no associated prime of M/IM contains a"),
    ],
    ids=["non-monomial-I", "no-prime-contains-a"],
)
def test_compute_aprime_outside_its_hypotheses_exit_two(capsys, ideal, by, message):
    argv = ["compute", "aprime", "--ring", "QQ[x,y]", "--ideal", ideal, "--by", by]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.strip() == f"error: {message}"


def test_compute_bad_ring_exit_two(capsys):
    assert (
        main(["compute", "gb", "--ring", "ZZ[x]", "--ideal", "x"]) == 2
    )


def test_gen_round_trips(capsys, tmp_path):
    out = tmp_path / "gen.link"
    code = main(
        [
            "gen",
            "--seed",
            "3",
            "--profile",
            "self-links",
            "--count",
            "2",
            "--vars",
            "3",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    code = main(["run", str(out), "--format", "json"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(v["status"] in ("holds", "inapplicable") for v in report["verdicts"])


def test_gen_unknown_profile_is_a_usage_error(capsys):
    code = main(["gen", "--seed", "1", "--profile", "bogus"])
    assert code == 2
    err = capsys.readouterr().err
    assert "argument --profile: invalid choice: 'bogus'" in err
    assert "'self-links', 'geometric-links', 'monomial-ci'" in err


def test_compute_rejects_internal_order(capsys):
    assert main(["compute", "gb", "--ring", "QQ[x,y] elim_last", "--ideal", "x"]) == 2
    assert "unknown order 'elim_last'" in capsys.readouterr().err
    assert main(["compute", "gb", "--ring", "QQ[x,y]", "--ideal", "0"]) == 0
    assert capsys.readouterr().out.strip() == "0"


UNIT_SUM = """\
ring R = QQ[x, y] grevlex;
ideal J = x^2 - x;
ideal a = x;
ideal b = x - 1;
ideal I = 0;
module M = quotient J;
check L07(a = a, b = b, I = I, M = M);
check T8_MV(a = a, b = b, I = I, M = M);
check L5(a = a, b = b, I = I, M = M);
check GRADE_FORMULA_T(a = a, b = b, I = I, M = M);
check S_REFLEX(a = a, I = I, M = M);
"""


def test_unit_sum_pair_is_inapplicable_not_an_abort(tmp_path, capsys):
    # a = (x) and b = (x - 1) are linked by 0 over R/(x^2 - x), but a + b = R
    path = tmp_path / "unit_sum.link"
    path.write_text(UNIT_SUM)
    assert main(["run", str(path), "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["check"], v["status"]) for v in verdicts] == [
        ("L07", "holds"),
        ("T8_MV", "inapplicable"),
        ("L5", "inapplicable"),
        ("GRADE_FORMULA_T", "inapplicable"),
        ("S_REFLEX", "holds"),
    ]
    for v in verdicts[1:4]:
        assert v["details"] == {"hypothesis": "a + b acts as the unit ideal on M"}


UNIT_IDEAL_HEAD = "ring R = QQ[x, y] grevlex;\nmodule M = quotient 0;\n"
UNIT_IDEAL_TAIL = "check L07(a = a, I = I, M = M, seq = s);\ncheck T1_GLOBAL();\n"


@pytest.mark.parametrize(
    "ideals, t1_status",
    [
        ("ideal a = x;\nideal I = 1;\nregseq s = 1;\n", "inapplicable"),
        ("ideal a = 1;\nideal I = x;\nregseq s = x;\n", "holds"),
    ],
    ids=["unit_I", "unit_a"],
)
def test_t1_global_skips_unit_ideals(ideals, t1_status, tmp_path, capsys):
    # a unit I has no associated primes and a unit candidate no grade
    path = tmp_path / "unit_ideal.link"
    path.write_text(UNIT_IDEAL_HEAD + ideals + UNIT_IDEAL_TAIL)
    assert main(["run", str(path), "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    assert [(v["check"], v["status"]) for v in verdicts] == [
        ("L07", "inapplicable"),
        ("T1_GLOBAL", t1_status),
    ]


LINK_CHECKS = (
    "L07", "L1", "T8_MV", "L5", "GRADE_FORMULA_T", "T5_CD", "C3_E3", "APRIME_T7", "C4",
)


def _statuses(text, tmp_path, capsys):
    path = tmp_path / "instance.link"
    path.write_text(text)
    assert main(["run", str(path), "--format", "json"]) == 0
    verdicts = json.loads(capsys.readouterr().out)["verdicts"]
    return [(v["check"], v["status"], v["details"]) for v in verdicts]


def test_zero_a_is_inapplicable_not_an_abort(tmp_path, capsys):
    # no partner is computed for a = 0: the colon by it is undefined
    text = UNIT_IDEAL_HEAD + "ideal a = 0;\nideal I = x*y;\nregseq s = x*y;\n" + "".join(
        f"check {name}(a = a, I = I, M = M, seq = s);\n" for name in LINK_CHECKS + ("S_REFLEX",)
    ) + "check T1_GLOBAL();\n"
    verdicts = _statuses(text, tmp_path, capsys)
    hypothesis = {"hypothesis": "a must be a nonzero ideal"}
    assert verdicts[:-1] == [
        (name, "inapplicable", hypothesis) for name in LINK_CHECKS + ("S_REFLEX",)
    ]
    assert verdicts[-1][:2] == ("T1_GLOBAL", "holds")


def test_s_reflex_with_a_zero_candidate(tmp_path, capsys):
    # over M = R with I = 0, the candidate 0 : a is 0, and 0 : 0 = R is not a
    text = UNIT_IDEAL_HEAD + "ideal a = x;\nideal I = 0;\ncheck S_REFLEX(a = a, I = I, M = M);\n"
    assert _statuses(text, tmp_path, capsys) == [
        ("S_REFLEX", "holds", {"candidate": "0", "linked": False, "s_member": False})
    ]


APRIME_HEAD = """\
ring R = QQ[x1, x2, x3, x4] grevlex;
ideal a = x1*x3, x1*x4, x2*x3, x2*x4;
ideal I = x1*x3, x2*x4;
module M = quotient 0;
regseq s = x1*x3, x2*x4;
"""


@pytest.mark.parametrize(
    "alt, alt_seq, reason",
    [
        ("x1*x3 + x2*x4, x1*x4 + x2*x3", None, "non-monomial data: associated primes unavailable"),
        ("x1, x3", None, "the linking ideal is not contained in a modulo J"),
        ("x1*x3", None, "witness is not a maximal regular sequence in a"),
        (
            "x1*x4, x2*x3",
            "x1*x4, x1*x4",
            "regular-sequence witness: witness elements do not generate the linking ideal",
        ),
    ],
    ids=["non_monomial", "not_in_a", "not_maximal", "bad_witness"],
)
def test_aprime_alternate_outside_its_hypotheses_is_skipped(alt, alt_seq, reason, tmp_path, capsys):
    # a' of the flagship is checked; only the alternate linking ideal is skipped
    text = APRIME_HEAD + f"ideal I2 = {alt};\nregseq s2 = {alt_seq or alt};\n" + (
        "check APRIME_T7(a = a, I = I, M = M, seq = s, alt_I = I2, alt_seq = s2);\n"
    )
    [(check, status, details)] = _statuses(text, tmp_path, capsys)
    assert (check, status) == ("APRIME_T7", "holds")
    assert details["alternate_I_same_aprime"] == f"skipped ({reason})"
    assert details["s_membership"] is True


PINNED = json.loads((ROOT / "perfbench" / "reference.json").read_text())["corpus"]


def test_pinned_corpus_covers_every_file():
    assert sorted(PINNED) == sorted(p.name for p in CORPUS.glob("*.link"))


@pytest.mark.parametrize("name", sorted(PINNED))
def test_corpus_report_matches_pinned_digest(name, capsys):
    code = main(["run", str(CORPUS / name), "--format", "json"])
    report = json.loads(capsys.readouterr().out)
    for verdict in report["verdicts"]:
        del verdict["millis"]
    digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
    assert (code, digest) == (PINNED[name]["exit"], PINNED[name]["report"])


@pytest.mark.parametrize("workload", ["gen-wide", "nonmonomial"])
def test_generated_reports_match_pinned_digests(
    workload, reference_workload_files, monkeypatch, capsys
):
    run = load_perfbench("run", monkeypatch)
    files = reference_workload_files[workload]
    pinned = run.load_reference()[workload]
    assert sorted(p.name for p in files) == sorted(pinned)
    for path in files:
        code = main(["run", str(path), "--format", "json"])
        digest = run.sha(run.normalized(json.loads(capsys.readouterr().out)))
        assert (code, digest) == (pinned[path.name]["exit"], pinned[path.name]["report"]), path.name


def _json_native(value):
    return json.loads(json.dumps(value)) == value


@pytest.mark.parametrize("workload", ["corpus", "gen-wide", "nonmonomial"])
def test_details_and_witnesses_are_json_native(workload, reference_workload_files):
    # reports write details and witnesses as the checks record them: a tuple
    # would print differently in markdown, and a set would not serialize
    for path in reference_workload_files[workload]:
        for v in run_suite(parse_instance(path.read_text())):
            assert _json_native(v.details), (path.name, v.check, v.details)
            assert v.witness is None or _json_native(v.witness), (path.name, v.check, v.witness)


def test_failing_witnesses_are_json_native(monkeypatch):
    # the workloads hold, so their witnesses are None; radicals that never
    # agree turn L07, T5_CD and C4 to fails on the flagship pair
    monkeypatch.setattr(checks_mod, "radicals_equal", lambda I, J: False)
    verdicts = run_suite(parse_instance((CORPUS / "flagship.link").read_text()))
    failed = [v for v in verdicts if v.status == "fails"]
    assert {v.check for v in failed} >= {CheckId.L07, CheckId.T5_CD, CheckId.C4}
    for v in failed:
        assert v.witness["instance"]["sequence"]
        assert _json_native(v.details) and _json_native(v.witness), v.check
