"""Command-line interface: run instance files, compute single operations,
generate corpora.

Exit codes: 0 every check holds (or is inapplicable), 1 some check fails,
2 usage or parse error, 3 resource limit exceeded.
"""

import argparse
import json
import sys
from contextlib import contextmanager

from . import __version__, limits
from .checks import FAILS, gens_str, run_suite
from .errors import LiaisonError, ParseError, ResourceLimitError
from .groebner import Ideal
from .ideal_ops import intersect_ideals
from .instancefile import (
    PROFILES,
    instance_digest,
    parse_instance,
    parse_poly_list,
    parse_ring_spec,
)
from .linkage import (
    CyclicModule,
    RegularSequenceWitness,
    aprime_construct,
    cd_oracle,
    grade_oracle,
)
from .monomials import is_monomial_ideal
from .parse import parse_text
from .resolutions import pd_via_resolution


def report_schema():
    """The shipped JSON schema for reports."""
    from importlib import resources

    text = resources.files("liaison").joinpath("report_schema.json").read_text()
    return json.loads(text)


def build_report(parsed, verdicts):
    return {
        "version": __version__,
        "digest": instance_digest(parsed),
        "characteristic": parsed.ring.field.characteristic,
        "verdicts": [
            {
                "check": v.check.value,
                "status": v.status,
                "details": v.details,
                "witness": v.witness,
                "millis": round(v.millis, 3),
            }
            for v in verdicts
        ],
    }


def render_markdown(report):
    lines = [
        "# Check report",
        "",
        f"- version: {report['version']}",
        f"- digest: {report['digest']}",
        f"- characteristic: {report['characteristic']}",
        "",
    ]
    for v in report["verdicts"]:
        lines.append(f"## {v['check']} — {v['status']}")
        lines.append("")
        for key, value in v["details"].items():
            lines.append(f"- {key}: {value}")
        if v["witness"] is not None:
            lines.append(f"- witness: {v['witness']}")
        lines.append(f"- millis: {v['millis']}")
        lines.append("")
    return "\n".join(lines)


def exit_code_for(verdicts):
    code = 0
    for v in verdicts:
        if v.status == FAILS:
            if v.details.get("reason") == "resource limit exceeded":
                return 3
            code = 1
    return code


@contextmanager
def _output(out_path):
    """The --out file, opened for writing, or standard output without one."""
    if out_path:
        with open(out_path, "w") as handle:
            yield handle
    else:
        yield sys.stdout


def _write(handle, text):
    handle.write(text)
    if handle is sys.stdout and not text.endswith("\n"):
        handle.write("\n")


def _cmd_run(args):
    with open(args.file) as handle:
        text = handle.read()
    with limits.run_context(degree=args.degree_cap):
        try:
            parsed = parse_instance(text)
        except ParseError as exc:
            print(f"error: {args.file}: {exc}", file=sys.stderr)
            return 2
        # opened before the checks run, so an unwritable --out fails at once
        with _output(args.out) as out:
            verdicts = run_suite(parsed)
            report = build_report(parsed, verdicts)
            if args.format == "json":
                _write(out, json.dumps(report, indent=2) + "\n")
            else:
                _write(out, render_markdown(report))
    return exit_code_for(verdicts)


def _parse_option(name, text, parse_item, *args):
    """parse_text over the value of option name; a parse error names the
    option, as `liaison run` names the file."""
    try:
        return parse_text(text, parse_item, *args)
    except ParseError as exc:
        raise LiaisonError(f"{name}: {exc}") from exc


def _cmd_compute(args):
    ring = _parse_option("--ring", args.ring, parse_ring_spec, "grevlex")

    def ideal_option(name, text):
        return Ideal(ring, tuple(_parse_option(name, text, parse_poly_list, ring)))

    ideal = ideal_option("--ideal", args.ideal)
    by = None if args.by is None else ideal_option("--by", args.by)
    J = Ideal(ring, ()) if args.module is None else ideal_option("--module", args.module)
    module = CyclicModule(ring, J)

    op = args.operation
    if by is None and op in ("colon", "intersect", "aprime"):
        raise ValueError(f"{op} needs --by")
    if op == "gb":
        print(gens_str(ideal))
    elif op == "colon":
        print(gens_str(module.colon(ideal, by)))
    elif op == "intersect":
        print(gens_str(intersect_ideals(ideal, by)))
    elif op == "grade":
        print(grade_oracle(ideal, module))
    elif op == "cd":
        if ideal.is_unit():
            raise ValueError("cd of the unit ideal is undefined")
        if module.kills(ideal):
            raise ValueError("aM = M: cd is undefined")
        grade = grade_oracle(ideal, module)
        lo = hi = cd_oracle(ideal, module)
        if lo is None:  # no exact oracle: [grade, min(#generators, dim R)]
            gens = ideal.groebner() if is_monomial_ideal(ideal) else set(ideal.gens) - {ring.zero}
            lo, hi = grade, min(len(gens), ring.nvars)
        if grade > lo:
            raise ValueError("grade exceeds the cd lower bound")
        print(lo if lo == hi else f"[{lo}, {hi}]")
    elif op == "pd":
        print(pd_via_resolution(ideal))
    else:  # aprime: argparse restricts the choices
        witness = RegularSequenceWitness(tuple(by.gens))
        print(gens_str(aprime_construct(ideal, by, module, witness)))
    return 0


def _cmd_gen(args):
    from .generate import generate_instances

    text = generate_instances(args.seed, args.profile, args.count, args.vars)
    with _output(args.out) as out:
        _write(out, text)
    return 0


def build_parser():
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


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "compute":
            with limits.run_context():
                return _cmd_compute(args)
        return _cmd_gen(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    except (LiaisonError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
