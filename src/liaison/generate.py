"""Deterministic random instance files for the property suites.

Randomness comes from one stdlib Mersenne-Twister stream seeded from the CLI
flag, consumed only through randrange/sample in a fixed statement order, so a
given (seed, profile, count, nvars) always produces byte-identical text.

Profiles
--------
self-links      a = (x_i, x_j) self-linked by the complete intersection with
                one squared variable.
geometric-links I a squarefree monomial complete intersection; a and b are the
                intersections of complementary halves of the associated primes
                of R/I, which makes the pair geometrically linked by I.
monomial-ci     monomial complete intersections with their regular sequences,
                exercising the fixed-ideal and reflexivity checks.
"""

import random

from .checks import CheckId
from .fields import QQ
from .groebner import Ideal
from .instancefile import PROFILES, parse_instance
from .linkage import CyclicModule, RegularSequenceWitness, is_geometrically_linked
from .monomials import (
    associated_primes_monomial,
    intersect_primes,
    monomial_radical,
)
from .rings import PolyRing, poly_str

_PER_INSTANCE_CHECKS = {
    "self-links": (
        CheckId.L07,
        CheckId.L1,
        CheckId.T8_MV,
        CheckId.T5_CD,
        CheckId.APRIME_T7,
        CheckId.C4,
        CheckId.S_REFLEX,
    ),
    "geometric-links": (
        CheckId.L07,
        CheckId.L1,
        CheckId.T8_MV,
        CheckId.L5,
        CheckId.GRADE_FORMULA_T,
        CheckId.T5_CD,
        CheckId.C3_E3,
        CheckId.APRIME_T7,
        CheckId.C4,
        CheckId.S_REFLEX,
    ),
    "monomial-ci": (CheckId.T5_CD, CheckId.APRIME_T7, CheckId.S_REFLEX),
}


def _ring(nvars):
    return PolyRing(QQ, [f"x{i + 1}" for i in range(nvars)], "grevlex")


def _random_partition(rng, nvars, parts):
    """Disjoint nonempty variable index blocks covering a random subset."""
    indices = list(range(nvars))
    # Fisher-Yates driven by randrange keeps the stream reproducible
    for i in range(len(indices) - 1, 0, -1):
        j = rng.randrange(i + 1)
        indices[i], indices[j] = indices[j], indices[i]
    blocks = []
    pos = 0
    remaining = parts
    left = nvars
    for k in range(parts):
        max_take = left - (remaining - 1)
        take = 1 + rng.randrange(max(1, min(2, max_take)))
        take = min(take, max_take)
        blocks.append(sorted(indices[pos : pos + take]))
        pos += take
        left -= take
        remaining -= 1
    return blocks


def _monomial_ci(rng, ring, squarefree):
    """A monomial complete intersection: coprime monomials on disjoint blocks."""
    nvars = ring.nvars
    if nvars < 4:
        t = 1
    elif nvars < 6:
        t = 2
    else:
        t = 2 + rng.randrange(2)
    blocks = _random_partition(rng, nvars, t)
    gens = []
    squared = False
    for block in blocks:
        exps = [0] * nvars
        for i in block:
            e = 1 if squarefree else 1 + rng.randrange(2)
            squared = squared or e > 1
            exps[i] = e
        gens.append(ring.monomial(exps))
    if not squarefree and not squared:
        # force a genuinely non-reduced generator so the radical moves
        first = blocks[0][0]
        exps = list(gens[0].terms[0][0])
        exps[first] += 1
        gens[0] = ring.monomial(exps)
    return gens


def _emit_ideal(lines, name, ideal_gens):
    if not ideal_gens:
        lines.append(f"ideal {name} = 0;")
    else:
        lines.append(f"ideal {name} = {', '.join(poly_str(g) for g in ideal_gens)};")


def generate_instances(seed, profile, count, nvars):
    """Deterministic instance-file text for the given profile.

    The emitted text re-parses and re-verifies: every check it declares holds
    (or is inapplicable) on its own instances.
    """
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}")
    if nvars > 8:
        raise ValueError("at most 8 variables")
    if count < 1:
        raise ValueError("count must be at least 1")
    if nvars < 2:
        raise ValueError(f"profile {profile} needs at least 2 variables")

    rng = random.Random(seed)
    ring = _ring(nvars)
    M = CyclicModule(ring, Ideal(ring, ()))
    lines = [
        f"# generated: profile={profile} seed={seed} count={count} vars={nvars}",
        f"ring R = QQ[{', '.join(ring.vars)}] grevlex;",
        "module M = quotient 0;",
    ]
    checks = []

    for idx in range(count):
        if profile == "self-links":
            i, j = sorted(rng.sample(range(nvars), 2))
            square_first = rng.randrange(2) == 0
            xi, xj = ring.gen(i), ring.gen(j)
            a_gens = (xi, xj)
            i_gens = (xi * xi, xj) if square_first else (xi, xj * xj)
            _emit_ideal(lines, f"a{idx}", a_gens)
            _emit_ideal(lines, f"I{idx}", i_gens)
            lines.append(
                f"regseq s{idx} = {', '.join(poly_str(g) for g in i_gens)};"
            )
            args = f"a = a{idx}, b = a{idx}, I = I{idx}, M = M, seq = s{idx}"
        elif profile == "geometric-links":
            while True:
                gens = _monomial_ci(rng, ring, squarefree=True)
                I = Ideal(ring, tuple(gens))
                primes = sorted(
                    associated_primes_monomial(I).all_primes,
                    key=lambda p: (len(p), sorted(p)),
                )
                if len(primes) < 2:
                    continue
                cut = 1 + rng.randrange(len(primes) - 1)
                side = primes[:cut]
                other = primes[cut:]
                a = intersect_primes(ring, side)
                b = intersect_primes(ring, other)
                w = RegularSequenceWitness(tuple(gens))
                if is_geometrically_linked(a, b, I, M, w):
                    break
            _emit_ideal(lines, f"a{idx}", a.groebner())
            _emit_ideal(lines, f"b{idx}", b.groebner())
            _emit_ideal(lines, f"I{idx}", I.gens)
            lines.append(f"regseq s{idx} = {', '.join(poly_str(g) for g in I.gens)};")
            args = (
                f"a = a{idx}, b = b{idx}, I = I{idx}, M = M, seq = s{idx}"
            )
        else:  # monomial-ci
            gens = _monomial_ci(rng, ring, squarefree=False)
            I = Ideal(ring, tuple(gens))
            # a := sqrt(I), which sits strictly over I and is linked by it
            a = monomial_radical(I)
            _emit_ideal(lines, f"a{idx}", a.gens)
            _emit_ideal(lines, f"I{idx}", I.gens)
            lines.append(f"regseq s{idx} = {', '.join(poly_str(g) for g in I.gens)};")
            args = f"a = a{idx}, I = I{idx}, M = M, seq = s{idx}"
        for check in _PER_INSTANCE_CHECKS[profile]:
            checks.append(f"check {check.value}({args});")

    lines.extend(checks)
    if nvars >= 4:
        lines.append("check C11_GLOBAL();")
    lines.append("check T1_GLOBAL();")
    lines.append("check C1_WITNESS();")
    text = "\n".join(lines) + "\n"
    parse_instance(text)  # guarantee the round trip before handing it out
    return text
