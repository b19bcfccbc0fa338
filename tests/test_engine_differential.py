"""Differential and property tests for the row engine in groebner.py: reduced
bases against sympy, module bases under shuffled generators, syzygies of
rank-1 and rank-2 rows against an elimination oracle, and syzygies relative
to ideals against the full syzygies of the rows and the ideals' generators."""

from itertools import product

import pytest

from conftest import from_sympy, random_polynomial, seeded, syzygy_oracle, to_sympy
from liaison.fields import GF, QQ
from liaison.groebner import (
    Ideal,
    module_groebner_basis,
    reduced_groebner_basis,
    syzygy_module,
    unit_vector,
)
from liaison.rings import PolyRing

FIELDS_AND_ORDERS = [(QQ, "lex"), (QQ, "grevlex"), (GF(7), "lex"), (GF(7), "grevlex")]


def _ring(field, order):
    return PolyRing(field, ["x", "y", "z"], order)


def _nonconstant_polynomial(rng, ring):
    """Up to three terms of degree 1..3 with coefficients in [-3, 3]: the
    ideals these generate are proper, so their bases are not just (1)."""
    items = []
    for _ in range(rng.randrange(1, 4)):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(1, 4)):
            exps[rng.randrange(ring.nvars)] += 1
        items.append((exps, ring.field.of(rng.randrange(-3, 4))))
    p = ring.poly(items)
    return p if p else ring.gen(0)


def _term(rng, ring):
    """One term of degree 1..4 with a coefficient in 1..6."""
    exps = [0] * ring.nvars
    for _ in range(rng.randrange(1, 5)):
        exps[rng.randrange(ring.nvars)] += 1
    return ring.monomial(exps, ring.field.of(rng.randrange(1, 7)))


@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_reduced_basis_matches_sympy(field, order):
    sympy = pytest.importorskip("sympy")
    ring = _ring(field, order)
    symbols = sympy.symbols("x y z")
    modulus = field.characteristic or None
    rng = seeded(31)
    cases = [
        [_nonconstant_polynomial(rng, ring) for _ in range(rng.randrange(2, 4))]
        for _ in range(12)
    ]
    # all single terms: the reduced basis skips the pair loop
    cases += [[_term(rng, ring) for _ in range(rng.randrange(1, 6))] for _ in range(12)]
    for gens in cases:
        ours = {g.monic() for g in reduced_groebner_basis(gens)}
        options = {"order": order}
        if modulus:
            options["modulus"] = modulus
        exprs = [to_sympy(sympy, g, symbols, modulus) for g in gens]
        basis = sympy.groebner(exprs, *symbols, **options)
        theirs = {from_sympy(p, ring) for p in basis.polys}
        assert ours == theirs, gens


def _random_vector(rng, ring, rank=2):
    return tuple(
        random_polynomial(rng, ring, max_degree=2, max_terms=3, zero_ok=True)
        for _ in range(rank)
    )


@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_module_basis_independent_of_generator_order(field, order):
    ring = _ring(field, order)
    rng = seeded(47)
    for _ in range(8):
        gens = [_random_vector(rng, ring) for _ in range(rng.randrange(2, 4))]
        reference = module_groebner_basis(gens)
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert module_groebner_basis(shuffled) == reference
        assert module_groebner_basis(list(reversed(gens))) == reference


@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_rank_two_syzygies_are_exact_relations(field, order):
    ring = _ring(field, order)
    rng = seeded(53)
    for _ in range(6):
        gens = [_random_vector(rng, ring) for _ in range(3)]
        for syz in syzygy_module(gens):
            assert len(syz) == len(gens)
            for pos in range(2):
                total = ring.zero
                for coeff, g in zip(syz, gens):
                    total = total + coeff * g[pos]
                assert total.is_zero()


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_syzygies_generate_the_oracle_module(field, order, rank):
    ring = PolyRing(field, ["x", "y"], order)
    rng = seeded(59 + rank)
    for _ in range(5):
        gens = [_random_vector(rng, ring, rank) for _ in range(3)]
        ours = module_groebner_basis(syzygy_module(gens))
        assert ours == module_groebner_basis(syzygy_oracle(gens)), gens



def _cut_full_syzygies(rows, ideals):
    """The syzygies relative to ideals the long way: all syzygies of the rows
    and the rows g*e_j, g a generator (not a basis element) of ideals[j], cut
    to their first len(rows) coordinates."""
    ring, rank = rows[0][0].ring, len(ideals)
    extra = [unit_vector(ring, rank, j, g) for j, I in enumerate(ideals) for g in I.gens]
    return [syz[: len(rows)] for syz in syzygy_module(rows + extra)]


@pytest.mark.parametrize("rank", [1, 2])
@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_relative_syzygies_match_the_cut_full_syzygies(field, order, rank):
    ring = PolyRing(field, ["x", "y"], order)
    x, y = ring.gens()
    rng = seeded(67 + rank)
    proper = Ideal(ring, [_nonconstant_polynomial(rng, ring) for _ in range(2)])
    not_a_basis = Ideal(ring, (x**2 - y, x * y))
    unit = Ideal(ring, (x + ring.one, x))
    zero = Ideal(ring, ())
    # a reduced basis longer than the generators: they are no Groebner basis
    assert len(not_a_basis.groebner()) > len(not_a_basis.gens)
    assert unit.is_unit()
    for case, ideals in enumerate(product([proper, not_a_basis, unit, zero], repeat=rank)):
        rows = [_random_vector(rng, ring, rank) for _ in range(2)]
        if case % 2:
            rows.insert(1, (ring.zero,) * rank)
        ours = syzygy_module(rows, ideals)
        assert all(len(syz) == len(rows) for syz in ours)
        if all(I is zero for I in ideals):
            assert ours == syzygy_module(rows)
        expected = module_groebner_basis(_cut_full_syzygies(rows, ideals))
        assert module_groebner_basis(ours) == expected, (rows, ideals)
