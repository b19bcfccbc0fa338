"""Seeded benchmark inputs for the liaison CLI.

Every workload starts from fixed base files, so the amount of work per run
does not depend on the seed; the seed picks a cost-neutral transform of the
base files, so each seed is still a different input:

- ``corpus``: the shipped ``corpus/*.link`` files, unchanged.  The seed only
  fixes the order in which the files run.
- ``gen-wide``: ``liaison gen --vars 8 --count 3``, one file per profile, from
  generator seed ``GEN_SEED``.  The seed draws a permutation of the eight
  variables, applied to every generator.  Permuting the variables of a
  monomial ideal keeps every check verdict and, within a few percent, the
  cost.
- ``nonmonomial``: ``liaison gen`` files at 4 and 6 variables, rewritten by
  the triangular change of coordinates ``x_i -> x_i + c_i*x_{i+1}`` with
  seeded ``c_i`` in {1, 2, 3}.  The map is unipotent, hence invertible, so
  linkage and regularity survive it while monomiality does not.

The rewrites here are plain text and integer arithmetic: they never import
liaison, so no change to the program under test can change its inputs.  The
base files themselves come from the program's own ``gen`` subcommand, which
is deterministic for fixed arguments.
"""

import random
import re
import subprocess
import sys

GEN_SEED = 1
GEN_WIDE = [("self-links", 8), ("geometric-links", 8), ("monomial-ci", 8)]
NONMONOMIAL = [("geometric-links", 4), ("self-links", 6), ("geometric-links", 6), ("monomial-ci", 6)]
COUNT = 3

WORKLOADS = ("corpus", "gen-wide", "nonmonomial")

_VAR = re.compile(r"\bx(\d+)\b")
_LIST_LINE = re.compile(r"^(ideal|regseq)\s+(\w+)\s*=\s*(.*);\s*$")
_FACTOR = re.compile(r"^x(\d+)(?:\^(\d+))?$")


class Workload:
    """The files of one workload and the parameters that produced them."""

    def __init__(self, name, seed, files, params):
        self.name = name
        self.seed = seed
        self.files = files
        self.params = params


def build(name, seed, repo, workdir, env):
    """Write the inputs of workload ``name`` for ``seed`` into ``workdir``."""
    rng = random.Random(f"{name}:{seed}")
    workdir.mkdir(parents=True, exist_ok=True)
    if name == "corpus":
        files = sorted((repo / "corpus").glob("*.link"))
        rng.shuffle(files)
        return Workload(name, seed, files, {"order": [f.name for f in files]})
    if name == "gen-wide":
        nvars = 8
        perm = list(range(1, nvars + 1))
        rng.shuffle(perm)
        files = []
        for profile, n in GEN_WIDE:
            text = permute_variables(_gen(profile, n, env), perm)
            header = f"# perfbench: workload=gen-wide seed={seed} permutation={perm}\n"
            files.append(_write(workdir, f"{profile}-{n}.link", header + text))
        return Workload(name, seed, files, {"gen_seed": GEN_SEED, "permutation": perm})
    if name == "nonmonomial":
        files = []
        coeffs = {}
        for profile, n in NONMONOMIAL:
            c = [rng.choice((1, 2, 3)) for _ in range(n - 1)]
            coeffs[f"{profile}-{n}"] = c
            text = triangular_rewrite(_gen(profile, n, env), c)
            header = f"# perfbench: workload=nonmonomial seed={seed} coefficients={c}\n"
            files.append(_write(workdir, f"{profile}-{n}.link", header + text))
        return Workload(name, seed, files, {"gen_seed": GEN_SEED, "coefficients": coeffs})
    raise ValueError(f"unknown workload {name!r}")


def _gen(profile, nvars, env):
    out = subprocess.run(
        [sys.executable, "-m", "liaison.cli", "gen", "--seed", str(GEN_SEED),
         "--profile", profile, "--count", str(COUNT), "--vars", str(nvars)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    return out.stdout


def _write(workdir, name, text):
    path = workdir / name
    path.write_text(text)
    return path


def permute_variables(text, perm):
    """Rename x_i to x_{perm[i-1]} in every ideal and regseq line."""
    def rename(match):
        return f"x{perm[int(match.group(1)) - 1]}"

    return "".join(
        _VAR.sub(rename, line) if _LIST_LINE.match(line) else line
        for line in text.splitlines(keepends=True)
    )


def triangular_rewrite(text, coeffs):
    """Apply x_i -> x_i + c_i*x_{i+1} (i < n) to every ideal and regseq line.

    The generator emits monomials with unit coefficients, which is all this
    parser accepts; anything else raises, rather than rewriting wrongly.
    """
    nvars = len(coeffs) + 1
    out = []
    for line in text.splitlines(keepends=True):
        match = _LIST_LINE.match(line)
        if not match or match.group(3).strip() == "0":
            out.append(line)
            continue
        kind, name, body = match.groups()
        polys = [_substitute(_parse_monomial(m, nvars), coeffs) for m in body.split(",")]
        out.append(f"{kind} {name} = {', '.join(_poly_text(p) for p in polys)};\n")
    return "".join(out)


def _parse_monomial(text, nvars):
    exps = [0] * nvars
    for factor in text.strip().split("*"):
        match = _FACTOR.match(factor)
        if not match:
            raise ValueError(f"not a unit-coefficient monomial: {text.strip()!r}")
        exps[int(match.group(1)) - 1] += int(match.group(2) or 1)
    return tuple(exps)


def _substitute(exps, coeffs):
    """Expand prod_i (x_i + c_i*x_{i+1})^{e_i} as {exponent tuple: int}."""
    n = len(exps)
    poly = {(0,) * n: 1}
    for i, e in enumerate(exps):
        image = {_unit(n, i): 1}
        if i + 1 < n:
            image[_unit(n, i + 1)] = coeffs[i]
        for _ in range(e):
            poly = _mul(poly, image)
    return poly


def _unit(n, i):
    return tuple(1 if k == i else 0 for k in range(n))


def _mul(p, q):
    acc = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            acc[e] = acc.get(e, 0) + c1 * c2
    return {e: c for e, c in acc.items() if c}


def _poly_text(poly):
    terms = []
    for exps, c in sorted(poly.items(), reverse=True):
        factors = [f"x{i + 1}" if e == 1 else f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
        body = "*".join(factors) or "1"
        terms.append(body if c == 1 else f"{c}*{body}")
    return " + ".join(terms)
