"""Seeded random instance files as an oracle for the harness.

Each check states a proven result under its gates, so on a valid file a
`fails` verdict is a defect of the harness or of an oracle, never of the
paper.  The generator writes small files over QQ and GF(p), in both orders,
with M = R or M = R/J (J non-radical too), and witnesses that are often
invalid; every file runs all 13 checks through `liaison run`.

A `fails` whose reason is "resource limit exceeded" (exit 3) is a cap
tripping, not a wrong verdict: it is counted apart from the wrong verdicts.
"""

import json
import random
import time

import pytest

from liaison.checks import CheckId, GLOBAL_CHECKS
from liaison.cli import main

FILES_PER_SEED = 100
SEEDS = (3, 5, 11)
CPU_BOUND_S = 2.0
# the seeded files are fixed, so these are exact counts less a margin for
# gates that later turn a verdict inapplicable
MIN_HOLDS_PER_SEED = 180
MIN_HOLDS_OVER_QUOTIENTS = 30

FIELDS = (("QQ", 0), ("FP(2)", 2), ("FP(3)", 3), ("FP(7)", 7))
PAIR_CHECKS = [c.value for c in CheckId if c not in GLOBAL_CHECKS]
GLOBAL = [c.value for c in CheckId if c in GLOBAL_CHECKS]


# Polynomials are dicts {exponent tuple: nonzero int coefficient}, reduced
# mod p over GF(p), so the generator uses none of the arithmetic under test.


def _monomial(rng, n, max_degree):
    exps = [0] * n
    for _ in range(rng.randint(1, max_degree)):
        exps[rng.randrange(n)] += 1
    return tuple(exps)


def _polynomial(rng, n, p, max_degree=2):
    """One or two terms; the second may be a constant, so the data are not
    always homogeneous."""
    terms = [_monomial(rng, n, max_degree)]
    if rng.random() < 0.5:
        terms.append((0,) * n if rng.random() < 0.25 else _monomial(rng, n, max_degree))
    out = {}
    for m in terms:
        out[m] = rng.randrange(1, p) if p else rng.choice((-3, -2, -1, 1, 2, 3))
    return out


def _times(f, g, p):
    out = {}
    for m, c in f.items():
        for k, d in g.items():
            e = tuple(x + y for x, y in zip(m, k))
            out[e] = out.get(e, 0) + c * d
    return {e: c % p if p else c for e, c in out.items() if (c % p if p else c)}


def _render(f):
    text = ""
    for m, c in sorted(f.items(), reverse=True):
        body = "*".join(f"x{i + 1}" + (f"^{e}" if e > 1 else "") for i, e in enumerate(m) if e)
        body = str(abs(c)) if not body else body if abs(c) == 1 else f"{abs(c)}*{body}"
        sign = "-" if c < 0 else "+"
        text = f"{'-' if c < 0 else ''}{body}" if not text else f"{text} {sign} {body}"
    return text


def _linking_element(rng, n, p, a_gens):
    """A generator of a, its square, a generator times a variable, or a
    random polynomial; the witness then says nothing of regularity."""
    g = rng.choice(a_gens)
    kind = rng.randrange(4)
    if kind == 0:
        return g
    if kind == 1:
        return _times(g, g, p)
    if kind == 2:
        return _times(g, {_monomial(rng, n, 1): 1}, p)
    return _polynomial(rng, n, p)


def random_instance(rng):
    n = rng.randint(2, 4)
    field, p = rng.choice(FIELDS)
    order = rng.choice(("lex", "grevlex"))
    a_gens = [_polynomial(rng, n, p) for _ in range(rng.randint(1, 3))]
    I_gens = [_linking_element(rng, n, p, a_gens) for _ in range(rng.randint(1, min(3, n)))]
    I_text = ", ".join(dict.fromkeys(_render(g) for g in I_gens))
    variables = ", ".join(f"x{i + 1}" for i in range(n))
    lines = [
        f"ring R = {field}[{variables}] {order};",
        f"ideal a = {', '.join(_render(g) for g in a_gens)};",
        f"ideal I = {I_text};",
    ]
    if rng.random() < 0.3:
        # a monomial J (x1*x4^2 and other non-squarefree ones) or a
        # polynomial with a non-constant leading term, never a unit
        J = {_monomial(rng, n, 3): 1}
        if rng.random() < 0.5:
            J = _times(J, _polynomial(rng, n, p, 1), p)
        lines += [f"ideal J = {_render(J)};", "module M = quotient J;"]
    else:
        lines.append("module M = quotient 0;")
    lines.append(f"regseq s = {I_text};")
    lines += [f"check {c}(a = a, I = I, M = M, seq = s);" for c in PAIR_CHECKS]
    lines += [f"check {c}();" for c in GLOBAL]
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("seed", SEEDS)
def test_random_valid_files_never_fail(seed, tmp_path):
    rng = random.Random(seed)
    wrong, resource, slow = [], [], []
    holds = holds_over_quotients = 0
    for k in range(FILES_PER_SEED):
        text = random_instance(rng)
        path = tmp_path / f"fuzz-{seed}-{k}.link"
        path.write_text(text)
        out = tmp_path / f"fuzz-{seed}-{k}.json"
        start = time.process_time()
        code = main(["run", str(path), "--format", "json", "--out", str(out)])
        cpu = time.process_time() - start
        if cpu > CPU_BOUND_S:
            slow.append((cpu, text))
        if code == 3 and not out.exists():  # a cap tripped before any check
            resource.append(text)
            continue
        assert code in (0, 1, 3), f"exit {code} on\n{text}"
        for v in json.loads(out.read_text())["verdicts"]:
            if v["details"].get("reason") == "resource limit exceeded":
                resource.append(text)  # a finding for the work budget
            elif v["status"] == "fails":
                wrong.append((v["check"], v["details"], text))
            elif v["status"] == "holds":
                holds += 1
                holds_over_quotients += "quotient J" in text
    assert not wrong, wrong[0]
    assert not slow, max(slow)
    assert holds >= MIN_HOLDS_PER_SEED, f"{len(resource)} files tripped a resource cap"
    assert holds_over_quotients >= MIN_HOLDS_OVER_QUOTIENTS
