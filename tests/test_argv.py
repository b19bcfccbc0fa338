"""The table-driven argv reader against the argparse parser it replaced.

`reference_parser` is the argparse parser `liaison` used before
`cli.COMMANDS`, copied unchanged.  On every valid vector below the reader
gives the same values; on every invalid one both refuse it, and `main`
prints one `usage:` line and one `error:` line and returns 2.
"""

import argparse

import pytest

from liaison.cli import main, read_argv
from liaison.instancefile import PROFILES


def reference_parser():
    parser = argparse.ArgumentParser(
        prog="liaison",
        description="Linkage calculus over polynomial rings: run instance "
        "files, compute single invariants, generate corpora.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run every check in an instance file")
    run_p.add_argument("file")
    run_p.add_argument("--format", choices=("json", "md"), default="md")
    run_p.add_argument("--out", default=None)
    run_p.add_argument("--degree-cap", type=int, default=None)

    compute_p = sub.add_parser("compute", help="one-off computations")
    compute_p.add_argument(
        "operation",
        choices=("gb", "colon", "intersect", "grade", "cd", "pd", "aprime"),
    )
    compute_p.add_argument(
        "--ring", required=True, help='e.g. "QQ[x,y] lex" (order lex or grevlex, default grevlex)'
    )
    compute_p.add_argument("--ideal", required=True, help="comma-separated generators")
    compute_p.add_argument("--by", default=None, help="second ideal / sequence")
    compute_p.add_argument(
        "--module", default=None, help="generators of J for M = R/J (default M = R)"
    )

    gen_p = sub.add_parser("gen", help="emit a deterministic instance file")
    gen_p.add_argument("--seed", type=int, required=True)
    gen_p.add_argument("--profile", choices=PROFILES, required=True)
    gen_p.add_argument("--count", type=int, default=5)
    gen_p.add_argument("--vars", type=int, default=4)
    gen_p.add_argument("--out", default=None)
    return parser


def reference(argv):
    """argparse's values for argv, or its exit code."""
    try:
        return vars(reference_parser().parse_args(argv))
    except SystemExit as exc:
        return exc.code


VALID = [
    ["run", "f.link"],
    ["run", "f.link", "--format", "json"],
    ["run", "--format", "json", "f.link"],
    ["run", "f.link", "--format=md", "--out", "r.md", "--degree-cap", "7"],
    ["run", "f.link", "--form", "json", "--o=r.json", "--degree", "12"],
    ["run", "f.link", "--degree-cap=-3"],
    ["run", "f.link", "--format", "md", "--format", "json"],
    ["run", "f=g.link", "--out="],
    ["compute", "gb", "--ring", "QQ[x,y] lex", "--ideal", "x*y, y^2"],
    ["compute", "colon", "--ring=QQ[x,y]", "--ideal=x*y", "--by=x", "--module=y^2"],
    ["compute", "--ring", "QQ[x]", "aprime", "--i", "x^2", "--b", "x", "--m", "0"],
    ["compute", "cd", "--ri", "FP(7)[x,y]", "--id", "x, y"],
    ["compute", "pd", "--ring", "QQ[x]", "--ideal", "x", "--by", "x", "--by", "x^2"],
    ["gen", "--seed", "1", "--profile", "self-links"],
    ["gen", "--seed=-4", "--profile=monomial-ci", "--count", "2", "--vars", "6", "--out", "g.link"],
    ["gen", "--pro", "geometric-links", "--se", "0", "--c=9", "--v", "3"],
    ["gen", "--profile", "self-links", "--seed", "007", "--out", "a", "--out", "b"],
]


@pytest.mark.parametrize("argv", VALID, ids=" ".join)
def test_valid_argv_reads_as_argparse_read_it(argv):
    assert vars(read_argv(argv)) == reference(argv)


INVALID = [
    [],
    ["frobnicate"],
    ["-"],
    ["--"],
    ["--format", "json", "run", "f.link"],
    ["run"],
    ["run", "f.link", "extra.link"],
    ["run", "f.link", "--jobs", "2"],
    ["run", "f.link", "-x"],
    ["run", "f.link", "--format"],
    ["run", "f.link", "--format", "xml"],
    ["run", "f.link", "--format=xml"],
    ["run", "f.link", "--degree-cap", "three"],
    ["run", "f.link", "--degree-cap", "1.5"],
    ["compute", "--ring", "QQ[x]", "--ideal", "x"],
    ["compute", "solve", "--ring", "QQ[x]", "--ideal", "x"],
    ["compute", "gb", "--ring", "QQ[x]"],
    ["compute", "gb", "--ideal", "x"],
    ["compute", "gb", "gb", "--ring", "QQ[x]", "--ideal", "x"],
    ["gen"],
    ["gen", "--seed", "1"],
    ["gen", "--profile", "self-links"],
    ["gen", "--seed", "one", "--profile", "self-links"],
    ["gen", "--seed", "1", "--profile", "bogus"],
    ["gen", "--seed", "1", "--profile", "self-links", "--count"],
    ["gen", "--seed", "1", "--profile", "self-links", "extra"],
]


@pytest.mark.parametrize("argv", INVALID, ids=lambda argv: " ".join(argv) or "(empty)")
def test_invalid_argv_is_a_usage_error(argv, capsys):
    assert reference(argv) == 2
    capsys.readouterr()
    assert main(argv) == 2
    captured = capsys.readouterr()
    usage, error = captured.err.splitlines()
    assert captured.out == ""
    assert usage.startswith("usage: liaison")
    assert error.startswith("liaison") and ": error: " in error


@pytest.mark.parametrize(
    "argv", [["-h"], ["--help"], ["--he"], ["run", "-h"], ["gen", "--seed", "1", "--help"]]
)
def test_help_prints_the_synopsis_and_returns_zero(argv, capsys):
    assert reference(argv) == 0
    capsys.readouterr()
    assert main(argv) == 0
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert captured.err == ""
    assert [line.split()[:2] for line in lines] == [
        ["usage:", "liaison"],
        ["liaison", "compute"],
        ["liaison", "gen"],
    ]
    assert lines[0].startswith("usage: liaison run FILE [--format {json,md}]")
    assert "--profile {self-links,geometric-links,monomial-ci}" in lines[2]


def test_the_synopsis_marks_required_keys(capsys):
    main(["--help"])
    run, compute, gen = capsys.readouterr().out.splitlines()
    assert run.endswith("liaison run FILE [--format {json,md}] [--out OUT] [--degree-cap DEGREE-CAP]")
    assert compute.endswith("--ring RING --ideal IDEAL [--by BY] [--module MODULE]")
    assert gen.endswith("[--count COUNT] [--vars VARS] [--out OUT]")


# Where the reader means to differ from argparse: an option's value is the
# next word even when it begins with "-" (argparse reads "-x" as an unknown
# option and "--ideal" as lacking its value), and a word that begins with "-"
# is never a positional: "--" is no end-of-options marker, and "-" and "-5"
# are no file names (argparse reads all three as positionals).
DIFFERENT = {
    "value starting with a dash": (
        ["compute", "gb", "--ring", "QQ[x]", "--ideal", "-x"],
        {"ideal": "-x"},
    ),
    "value that is an option name": (
        ["run", "f.link", "--out", "--format"],
        {"out": "--format", "format": "md"},
    ),
}


@pytest.mark.parametrize("case", DIFFERENT)
def test_intended_differences_from_argparse(case):
    argv, values = DIFFERENT[case]
    assert reference(argv) == 2
    args = vars(read_argv(argv))
    assert {key: args[key] for key in values} == values


@pytest.mark.parametrize("argv", [["run", "--", "f.link"], ["run", "-"], ["run", "-5"]])
def test_a_word_beginning_with_a_dash_is_no_positional(argv, capsys):
    assert reference(argv)["file"] == argv[-1]
    assert main(argv) == 2
    assert f"option: {argv[1]}" in capsys.readouterr().err


def test_main_reads_sys_argv_without_arguments(monkeypatch, capsys):
    monkeypatch.setattr("sys.argv", ["liaison", "frobnicate"])
    assert main() == 2
    monkeypatch.setattr("sys.argv", ["liaison", "--help"])
    assert main() == 0
