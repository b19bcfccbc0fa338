import hashlib
import json
from pathlib import Path

import jsonschema
import pytest

import liaison.checks as checks_mod
from liaison.checks import CheckId
from liaison.cli import main, report_schema

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


def test_missing_file_exit_two(capsys):
    assert main(["run", str(CORPUS / "does_not_exist.link")]) == 2
    assert "error" in capsys.readouterr().err


def test_usage_error_exit_two(capsys):
    assert main(["frobnicate"]) == 2


def test_degree_cap_exit_three(capsys):
    code = main(["run", str(CORPUS / "flagship.link"), "--degree-cap", "3"])
    assert code == 3
    from liaison.errors import ResourceLimitError
    from liaison.fields import QQ
    from liaison.limits import DEFAULT_DEGREE_CAP, current_run
    from liaison.rings import PolyRing

    # outside a run the caps are the defaults again
    assert current_run() is None
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
