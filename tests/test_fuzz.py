"""Seeded random instance files as an oracle for the harness.

Each check states a proven result under its gates, so on a valid file a
`fails` verdict is a defect of the harness or of an oracle, never of the
paper.  The generator writes small files over QQ and GF(p), in both orders,
with M = R or M = R/J (J non-radical too), and witnesses that are often
invalid; every file runs all 13 checks through `liaison run`.  Files from
seeds of their own also name a partner b and an APRIME_T7 alternate.  Each
seed's reports are pinned by digest, since no benchmark workload reaches
these inputs.  A random b is never linked to a, so files from further seeds
declare a partner that is: b and a split the primes of a squarefree monomial
complete intersection I.  Such files from two more seeds also give APRIME_T7
an alternate that its hypotheses admit, so that its comparison of a' over
two linking ideals is reached.

A `fails` whose reason is "resource limit exceeded" (exit 3) is a cap
tripping, not a wrong verdict: it is counted apart from the wrong verdicts.
"""

import json
import random
import time
from itertools import combinations, product

import pytest

from conftest import load_perfbench
from liaison.checks import CheckId, GLOBAL_CHECKS
from liaison.cli import main

FILES_PER_SEED = 100
SEEDS = (3, 5, 11)
CPU_BOUND_S = 2.0
# the seeded files are fixed, so these are exact counts less a margin for
# gates that later turn a verdict inapplicable
MIN_HOLDS_PER_SEED = 180
MIN_HOLDS_OVER_QUOTIENTS = 30
# Files whose checks name a partner b and an APRIME_T7 alternate, from seeds
# of their own so that the files above do not change.
PARTNER_SEEDS = (1, 2)
MIN_HOLDS_WITH_PARTNERS = 160
# Files whose declared b is linked to a by I (see linked_instance), from
# seeds of their own as well.
LINKED_SEEDS = (4, 6)
MIN_PAIR_HOLDS_WITH_LINKED_PARTNERS = 900
# Linked files whose APRIME_T7 also names an alternate (see linked_instance),
# and how many of each seed's files must compare a' against it.
ALTERNATE_SEEDS = (8, 9)
MIN_ALTERNATES_COMPARED = 90
# sha256 of each seed's exit codes and millis-free reports (see
# outcomes_digest): the reports must stay byte-identical on M = R/J, GF(p),
# lex and invalid witnesses, which no benchmark workload reaches.
REPORT_DIGESTS = {
    3: "87d715d1f99fe49b951ed6f0c1c623ae329ee5de44ade4727c3dfe4712610556",
    5: "39ce958813ba365ff62c2ab7b6805e9b640f90aa49bb318861582504a451f8a0",
    11: "17a6ad1f62bf22ab8c6ca5b474a138b52d9ff01dae679fb9a5c0259d41ead507",
    1: "e6ad4585037a3089d63cbea9deabd7f091523e517b9a47b403487fcac842de49",
    2: "6b606ce34e916d6dd561e0274889e3df9ce90d559a0998b205aef4bfe86cb5df",
    4: "0bc893e775a2835946f6c6aefac133c53d55deea626d4fdcd9acc6c8664d318b",
    6: "d2fb2b2a02236512f03025abc260b92d6ee885bce015e16af776e303a5b5606f",
    8: "f6237062fe09ecd569289ee4022767f019c6f82707230312af079f3df58528e8",
    9: "6fa55fbdb3a180f30d31f5fd081c01a59dd24557d392b84ea5cb80730a697c36",
}

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


def _linking_text(rng, n, p, a_gens):
    gens = [_linking_element(rng, n, p, a_gens) for _ in range(rng.randint(1, min(3, n)))]
    return ", ".join(dict.fromkeys(_render(g) for g in gens))


def random_instance(rng, partners=False):
    """One file; with partners, every pair check also names a partner b (a
    itself or a random ideal) and APRIME_T7 an alternate linking ideal."""
    n = rng.randint(2, 4)
    field, p = rng.choice(FIELDS)
    order = rng.choice(("lex", "grevlex"))
    a_gens = [_polynomial(rng, n, p) for _ in range(rng.randint(1, 3))]
    I_text = _linking_text(rng, n, p, a_gens)
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
    args = alt = ""
    if partners:
        args = "b = a, "
        if rng.random() < 0.5:
            b_gens = [_polynomial(rng, n, p) for _ in range(rng.randint(1, 3))]
            lines.append(f"ideal b = {', '.join(_render(g) for g in b_gens)};")
            args = "b = b, "
        K_text = _linking_text(rng, n, p, a_gens)
        lines += [f"ideal K = {K_text};", f"regseq t = {K_text};"]
        alt = ", alt_I = K, alt_seq = t"
    for c in PAIR_CHECKS:
        tail = alt if c == CheckId.APRIME_T7.value else ""
        lines.append(f"check {c}(a = a, {args}I = I, M = M, seq = s{tail});")
    lines += [f"check {c}();" for c in GLOBAL]
    return "\n".join(lines) + "\n"


def _transversals(primes):
    """The minimal sets of variables that meet every prime of primes (sets
    of variables): the supports of the minimal monomial generators of the
    intersection of the primes."""
    variables = sorted(set().union(*primes))
    hitting = [
        set(T)
        for k in range(1, len(variables) + 1)
        for T in combinations(variables, k)
        if all(p.intersection(T) for p in primes)
    ]
    return [T for T in hitting if not any(U < T for U in hitting)]


def _monomial_ideal_text(supports):
    return ", ".join("*".join(f"x{i + 1}" for i in sorted(T)) for T in supports)


def linked_instance(rng, alternate=False):
    """One file whose declared b is linked to a by I, built without liaison.

    I is generated by squarefree monomials on disjoint supports, so it is a
    radical complete intersection whose primes choose one variable per
    generator; a is the intersection of a random nonempty proper subset of
    those primes and b that of the rest, so I : a = b and I : b = a.  M is R
    or R/(x_k) for a variable x_k outside every support, on which I stays a
    regular sequence.  With alternate, APRIME_T7 also names alt_I = K, I's
    sequence with its first generator squared: inside a, of the same length,
    still regular, and with the same associated primes as I.  The random
    draws do not depend on alternate."""
    n = rng.randint(3, 6)
    field, _ = rng.choice(FIELDS)
    order = rng.choice(("lex", "grevlex"))
    while True:
        sizes = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        if max(sizes) >= 2 and sum(sizes) <= n:
            break
    free = list(range(n))
    rng.shuffle(free)
    blocks = []
    for size in sizes:
        blocks.append(free[:size])
        free = free[size:]
    primes = [set(p) for p in product(*blocks)]
    rng.shuffle(primes)
    k = rng.randint(1, len(primes) - 1)
    I_text = _monomial_ideal_text(blocks)
    variables = ", ".join(f"x{i + 1}" for i in range(n))
    lines = [
        f"ring R = {field}[{variables}] {order};",
        f"ideal a = {_monomial_ideal_text(_transversals(primes[:k]))};",
        f"ideal b = {_monomial_ideal_text(_transversals(primes[k:]))};",
        f"ideal I = {I_text};",
    ]
    if free and rng.random() < 0.5:
        lines += [f"ideal J = x{rng.choice(free) + 1};", "module M = quotient J;"]
    else:
        lines.append("module M = quotient 0;")
    lines.append(f"regseq s = {I_text};")
    tail = ""
    if alternate:
        squared = "*".join(f"x{i + 1}^2" for i in sorted(blocks[0]))
        K_text = ", ".join([squared] + I_text.split(", ")[1:])
        lines += [f"ideal K = {K_text};", f"regseq t = {K_text};"]
        tail = ", alt_I = K, alt_seq = t"
    for c in PAIR_CHECKS:
        alt = tail if c == CheckId.APRIME_T7.value else ""
        lines.append(f"check {c}(a = a, b = b, I = I, M = M, seq = s{alt});")
    lines += [f"check {c}();" for c in GLOBAL]
    return "\n".join(lines) + "\n"


def run_files(texts, tmp_path):
    """Run each file through `liaison run`; return the wrong verdicts, the
    files that tripped a cap, the slow files, the `holds` count, the `holds`
    count over M = R/J, and each file's exit code with its millis-free
    report (None when a cap tripped before any check)."""
    wrong, resource, slow, outcomes = [], [], [], []
    holds = holds_over_quotients = 0
    for k, text in enumerate(texts):
        path = tmp_path / f"fuzz-{k}.link"
        path.write_text(text)
        out = tmp_path / f"fuzz-{k}.json"
        start = time.process_time()
        code = main(["run", str(path), "--format", "json", "--out", str(out)])
        cpu = time.process_time() - start
        if cpu > CPU_BOUND_S:
            slow.append((cpu, text))
        if code == 3 and not out.exists():  # a cap tripped before any check
            resource.append(text)
            outcomes.append((code, None))
            continue
        assert code in (0, 1, 3), f"exit {code} on\n{text}"
        report = json.loads(out.read_text())
        outcomes.append((code, report))
        for v in report["verdicts"]:
            if v["details"].get("reason") == "resource limit exceeded":
                resource.append(text)  # a finding for the work budget
            elif v["status"] == "fails":
                wrong.append((v["check"], v["details"], text))
            elif v["status"] == "holds":
                holds += 1
                holds_over_quotients += "quotient J" in text
    return wrong, resource, slow, holds, holds_over_quotients, outcomes


def outcomes_digest(outcomes, run):
    """One sha256 over every file's exit code and millis-free report."""
    return run.sha("\n".join(
        f"{code} {run.normalized(report) if report else ''}" for code, report in outcomes
    ))


@pytest.mark.parametrize("seed", SEEDS)
def test_random_valid_files_never_fail(seed, tmp_path, monkeypatch):
    rng = random.Random(seed)
    texts = [random_instance(rng) for _ in range(FILES_PER_SEED)]
    wrong, resource, slow, holds, holds_over_quotients, outcomes = run_files(texts, tmp_path)
    assert not wrong, wrong[0]
    assert not slow, max(slow)
    assert holds >= MIN_HOLDS_PER_SEED, f"{len(resource)} files tripped a resource cap"
    assert holds_over_quotients >= MIN_HOLDS_OVER_QUOTIENTS
    run = load_perfbench("run", monkeypatch)
    assert outcomes_digest(outcomes, run) == REPORT_DIGESTS[seed]


@pytest.mark.parametrize("seed", PARTNER_SEEDS)
def test_random_files_with_partners_never_fail(seed, tmp_path, monkeypatch):
    rng = random.Random(seed)
    texts = [random_instance(rng, partners=True) for _ in range(FILES_PER_SEED)]
    wrong, resource, slow, holds, _, outcomes = run_files(texts, tmp_path)
    assert not wrong, wrong[0]
    assert not slow, max(slow)
    assert holds >= MIN_HOLDS_WITH_PARTNERS, f"{len(resource)} files tripped a resource cap"
    run = load_perfbench("run", monkeypatch)
    assert outcomes_digest(outcomes, run) == REPORT_DIGESTS[seed]


@pytest.mark.parametrize("seed", LINKED_SEEDS + ALTERNATE_SEEDS)
def test_random_files_with_linked_partners_never_fail(seed, tmp_path, monkeypatch):
    rng = random.Random(seed)
    alternate = seed in ALTERNATE_SEEDS
    texts = [linked_instance(rng, alternate) for _ in range(FILES_PER_SEED)]
    wrong, resource, slow, _, _, outcomes = run_files(texts, tmp_path)
    assert not wrong, wrong[0]
    assert not slow, max(slow)
    verdicts = [v for _, report in outcomes if report for v in report["verdicts"]]
    pair_holds = sum(v["status"] == "holds" and v["check"] in PAIR_CHECKS for v in verdicts)
    assert pair_holds >= MIN_PAIR_HOLDS_WITH_LINKED_PARTNERS, (
        f"{len(resource)} files tripped a resource cap"
    )
    # APRIME_T7 compares a' over the alternate only where one is named
    compared = sum(isinstance(v["details"].get("alternate_I_same_aprime"), bool) for v in verdicts)
    assert compared >= MIN_ALTERNATES_COMPARED if alternate else compared == 0
    run = load_perfbench("run", monkeypatch)
    assert outcomes_digest(outcomes, run) == REPORT_DIGESTS[seed]
