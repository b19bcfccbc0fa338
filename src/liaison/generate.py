"""Deterministic random instance files for the property suites.

Randomness comes from one stdlib Mersenne-Twister stream seeded from the CLI
flag and drawn from in a fixed statement order, so a given (seed, profile,
count, nvars) always produces byte-identical text.

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
from .instancefile import PROFILES, format_check, format_declaration, parse_instance
from .linkage import RegularSequenceWitness, free_module, is_geometrically_linked
from .monomials import (
    associated_primes_monomial,
    intersect_primes,
    monomial_radical,
)
from .rings import PolyRing

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
    """Disjoint blocks of one or two random variable indices; parts <= nvars // 2."""
    indices = list(range(nvars))
    rng.shuffle(indices)
    blocks = []
    for _ in range(parts):
        take = 1 + rng.randrange(2)
        blocks.append(sorted(indices[:take]))
        del indices[:take]
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
    M = free_module(ring)
    lines = [
        f"# generated: profile={profile} seed={seed} count={count} vars={nvars}",
        f"ring R = {ring!r};",
        "module M = quotient 0;",
    ]
    checks = []

    for idx in range(count):
        if profile == "self-links":
            i, j = sorted(rng.sample(range(nvars), 2))
            square_first = rng.randrange(2) == 0
            xi, xj = ring.gen(i), ring.gen(j)
            ideals = {"a": (xi, xj), "I": (xi * xi, xj) if square_first else (xi, xj * xj)}
            partner = "a"
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
            ideals = {"a": a.groebner(), "b": b.groebner(), "I": I.gens}
            partner = "b"
        else:  # monomial-ci
            gens = _monomial_ci(rng, ring, squarefree=False)
            I = Ideal(ring, tuple(gens))
            # a := sqrt(I), which sits strictly over I and is linked by it
            ideals = {"a": monomial_radical(I).gens, "I": I.gens}
            partner = None
        lines += [format_declaration("ideal", f"{n}{idx}", g) for n, g in ideals.items()]
        lines.append(format_declaration("regseq", f"s{idx}", ideals["I"]))
        args = {"a": f"a{idx}", "I": f"I{idx}", "M": "M", "seq": f"s{idx}"}
        if partner:
            args["b"] = f"{partner}{idx}"
        checks += [format_check(check, args) for check in _PER_INSTANCE_CHECKS[profile]]

    lines.extend(checks)
    if nvars >= 4:
        lines.append("check C11_GLOBAL();")
    lines.append("check T1_GLOBAL();")
    lines.append("check C1_WITNESS();")
    text = "\n".join(lines) + "\n"
    parse_instance(text)  # guarantee the round trip before handing it out
    return text
