"""Command-line interface: run instance files, compute single operations,
generate corpora.

Exit codes: 0 every check holds (or is inapplicable), 1 some check fails,
2 usage or parse error, 3 resource limit exceeded.
"""

import argparse
import json
import sys

from . import __version__, limits
from .checks import FAILS, run_suite
from .errors import LiaisonError, ParseError, ResourceLimitError
from .groebner import Ideal
from .ideal_ops import ideal_quotient, intersect_ideals
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
    cd_bounds,
)
from .parse import TokenStream, tokenize
from .resolutions import grade_via_ext, pd_via_resolution
from .rings import poly_str


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
                "details": _plain(v.details),
                "witness": _plain(v.witness) if v.witness is not None else None,
                "millis": round(v.millis, 3),
            }
            for v in verdicts
        ],
    }


def _plain(value):
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = list(value)
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return [_plain(v) for v in items]
    if isinstance(value, (bool, int, float, str)) or value is None:
        return value
    return str(value)


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


def _write_output(text, out_path):
    if out_path:
        with open(out_path, "w") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _cmd_run(args):
    try:
        with open(args.file) as handle:
            text = handle.read()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with limits.run_context(degree=args.degree_cap):
            parsed = parse_instance(text)
            verdicts = run_suite(parsed)
    except ParseError as exc:
        print(f"error: {args.file}: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"error: resource limit: {exc}", file=sys.stderr)
        return 3
    report = build_report(parsed, verdicts)
    if args.format == "json":
        _write_output(json.dumps(report, indent=2) + "\n", args.out)
    else:
        _write_output(render_markdown(report), args.out)
    return exit_code_for(verdicts)


def _parse_arg(text, parser, *args):
    """One whole command-line argument through an instance-file parser."""
    ts = TokenStream(tokenize(text))
    out = parser(ts, *args)
    ts.expect_eof()
    return out


def _cmd_compute(args):
    ring = _parse_arg(args.ring, parse_ring_spec, "grevlex")
    ideal = Ideal(ring, tuple(_parse_arg(args.ideal, parse_poly_list, ring)))
    by = None
    if args.by is not None:
        by = Ideal(ring, tuple(_parse_arg(args.by, parse_poly_list, ring)))
    module_ideal = Ideal(ring, ())
    if args.module is not None:
        module_ideal = Ideal(ring, tuple(_parse_arg(args.module, parse_poly_list, ring)))
    module = CyclicModule(ring, module_ideal)

    def show_ideal(I):
        gb = I.groebner()
        return ", ".join(poly_str(g) for g in gb) if gb else "0"

    op = args.operation
    if op == "gb":
        print(show_ideal(ideal))
    elif op == "colon":
        if by is None:
            raise ValueError("colon needs --by")
        shifted = Ideal(ring, ideal.gens + module_ideal.gens)
        print(show_ideal(ideal_quotient(shifted, by)))
    elif op == "intersect":
        if by is None:
            raise ValueError("intersect needs --by")
        print(show_ideal(intersect_ideals(ideal, by)))
    elif op == "grade":
        print(grade_via_ext(ideal, module))
    elif op == "cd":
        record = cd_bounds(ideal, module)
        if record.cd_exact is not None:
            print(record.cd_exact)
        else:
            print(f"[{record.cd_lower}, {record.cd_upper}]")
    elif op == "pd":
        print(pd_via_resolution(ideal))
    elif op == "aprime":
        if by is None:
            raise ValueError("aprime needs --by (the linking regular sequence)")
        witness = RegularSequenceWitness(tuple(by.gens))
        print(show_ideal(aprime_construct(ideal, by, module, witness)))
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(f"unknown operation {op}")
    return 0


def _cmd_gen(args):
    from .generate import generate_instances

    text = generate_instances(args.seed, args.profile, args.count, args.vars)
    _write_output(text, args.out)
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
