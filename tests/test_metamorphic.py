"""Metamorphic checks: rewrites of an instance file that leave its ideals
alone, or move them by a ring automorphism, must leave its verdicts alone.

Reversing the ring's variable list, or swapping lex and grevlex, changes the
monomial order and with it every Groebner basis, leading term and printed
polynomial, but not one ideal, module or regular sequence.  So every
verdict keeps its check, its status and, when inapplicable, the hypothesis
it names.

Permuting the variables inside every ideal and regular sequence keeps the
ring line, and so the order, but moves each ideal by an automorphism of R:
every grade, cd, length and clause is the same, while the initial ideals,
from which grades over M = R are read, change.  So every verdict also keeps
its integer and boolean details.
"""

import random
import re

from liaison.checks import run_suite
from liaison.instancefile import parse_instance

RING_LINE = re.compile(r"^(ring \w+ = .*)\[(.*)\] (lex|grevlex);$", re.M)
DECLARATION = re.compile(r"^((?:ideal|regseq)\s+\w+\s*=)(.*);", re.M)
PERMUTATIONS = 3


def _reverse_variables(match):
    variables = [v.strip() for v in match[2].split(",")]
    return f"{match[1]}[{', '.join(reversed(variables))}] {match[3]};"


def _swap_order(match):
    order = "lex" if match[3] == "grevlex" else "grevlex"
    return f"{match[1]}[{match[2]}] {order};"


def _verdicts(text):
    verdicts = run_suite(parse_instance(text))
    return [(v.check, v.status, v.details.get("hypothesis")) for v in verdicts]


def _all_files(reference_workload_files):
    files = [path for paths in reference_workload_files.values() for path in paths]
    assert len(files) == 13
    return files


def test_ring_rewrites_keep_every_verdict(reference_workload_files):
    for path in _all_files(reference_workload_files):
        text = path.read_text()
        expected = _verdicts(text)
        for rewrite in (_reverse_variables, _swap_order):
            rewritten, count = RING_LINE.subn(rewrite, text)
            assert count == 1 and rewritten != text, (path.name, rewrite.__name__)
            assert _verdicts(rewritten) == expected, (path.name, rewrite.__name__)


def _permute_variables(text, rng):
    """text with the ring's variables renamed inside every ideal and regseq
    declaration by a seeded permutation other than the identity."""
    variables = [v.strip() for v in RING_LINE.search(text)[2].split(",")]
    image = variables[:]
    while image == variables:
        rng.shuffle(image)
    rename = dict(zip(variables, image))
    word = re.compile(r"\b(?:" + "|".join(map(re.escape, variables)) + r")\b")
    return DECLARATION.sub(
        lambda m: m[1] + word.sub(lambda v: rename[v[0]], m[2]) + ";", text
    )


def _invariants(text):
    return [
        (v.check, v.status, v.details.get("hypothesis"),
         {k: x for k, x in v.details.items() if isinstance(x, int)})
        for v in run_suite(parse_instance(text))
    ]


def test_variable_permutations_keep_every_verdict_and_its_numbers(reference_workload_files):
    for path in _all_files(reference_workload_files):
        text = path.read_text()
        expected = _invariants(text)
        rng = random.Random(path.name)
        for k in range(PERMUTATIONS):
            permuted = _permute_variables(text, rng)
            assert permuted != text, (path.name, k)
            assert _invariants(permuted) == expected, (path.name, k)
