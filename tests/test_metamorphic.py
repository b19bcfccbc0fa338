"""Metamorphic checks: rewrites of an instance file that leave its ideals
alone must leave its verdicts alone.

Reversing the ring's variable list, or swapping lex and grevlex, changes the
monomial order and with it every Groebner basis, leading term and printed
polynomial, but not one ideal, module or regular sequence.  So every
verdict keeps its check, its status and, when inapplicable, the hypothesis
it names.
"""

import re

from conftest import CORPUS_DIR, load_perfbench
from liaison.checks import run_suite
from liaison.instancefile import parse_instance

RING_LINE = re.compile(r"^(ring \w+ = .*)\[(.*)\] (lex|grevlex);$", re.M)


def _reverse_variables(match):
    variables = [v.strip() for v in match[2].split(",")]
    return f"{match[1]}[{', '.join(reversed(variables))}] {match[3]};"


def _swap_order(match):
    order = "lex" if match[3] == "grevlex" else "grevlex"
    return f"{match[1]}[{match[2]}] {order};"


def _verdicts(text):
    verdicts = run_suite(parse_instance(text))
    return [(v.check, v.status, v.details.get("hypothesis")) for v in verdicts]


def test_ring_rewrites_keep_every_verdict(tmp_path, monkeypatch):
    # the corpus and the benchmark's reference-seed generated files, built
    # the way the benchmark builds them
    run = load_perfbench("run", monkeypatch)
    files = sorted(CORPUS_DIR.glob("*.link"))
    for workload in ("gen-wide", "nonmonomial"):
        built = run.workloads.build(
            workload, run.REFERENCE_SEED, CORPUS_DIR.parent, tmp_path / workload, run.child_env()
        )
        files += built.files
    assert len(files) == 13
    for path in files:
        text = path.read_text()
        expected = _verdicts(text)
        for rewrite in (_reverse_variables, _swap_order):
            rewritten, count = RING_LINE.subn(rewrite, text)
            assert count == 1 and rewritten != text, (path.name, rewrite.__name__)
            assert _verdicts(rewritten) == expected, (path.name, rewrite.__name__)
