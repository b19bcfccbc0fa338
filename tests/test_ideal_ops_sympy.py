"""The general routes of ideal_ops against sympy on non-monomial ideals:
intersection and quotient share one syzygy computation, and saturation and
radical membership iterate the quotient, so the oracle here is elimination
and the inverted-element trick, with sympy's Groebner bases."""

import pytest

from conftest import from_sympy, seeded, to_sympy
from liaison.fields import GF, QQ
from liaison.groebner import Ideal
from liaison.ideal_ops import (
    ideal_quotient,
    intersect_ideals,
    radical_membership,
    saturate,
)
from liaison.rings import PolyRing

FIELDS_AND_ORDERS = [(QQ, "lex"), (QQ, "grevlex"), (GF(7), "lex"), (GF(7), "grevlex")]


class Oracle:
    """sympy over the ring's field, in the variables x, y, z and an extra t."""

    def __init__(self, sympy, ring):
        self.sympy = sympy
        self.ring = ring
        self.t, *self.symbols = sympy.symbols("t x y z")
        modulus = ring.field.characteristic or None
        self.modulus = modulus
        self.options = {"modulus": modulus} if modulus else {}

    def exprs(self, polys):
        return [to_sympy(self.sympy, p, self.symbols, self.modulus) for p in polys]

    def basis(self, exprs):
        """The reduced basis in the ring's order, as polynomials of the ring."""
        gb = self.sympy.groebner(exprs, *self.symbols, order=self.ring.order, **self.options)
        return {from_sympy(p, self.ring) for p in gb.polys}

    def intersect(self, A, B):
        """A cap B: the t-free part of the lex basis of t*A + (1-t)*B."""
        t = self.t
        gens = [t * a for a in A] + [(1 - t) * b for b in B]
        gb = self.sympy.groebner(gens, t, *self.symbols, order="lex", **self.options)
        return [p for p in gb.exprs if not p.has(t)]

    def colon(self, A, g):
        """A : (g), as (A cap (g)) / g."""
        out = []
        for p in self.intersect(A, [g]):
            q, r = self.sympy.div(p, g, *self.symbols, **self.options)
            assert r == 0
            out.append(q)
        return out

    def saturate(self, A, f):
        """A : f^infinity: the t-free part of the lex basis of A + (1 - t*f)."""
        gens = A + [1 - self.t * f]
        gb = self.sympy.groebner(gens, self.t, *self.symbols, order="lex", **self.options)
        return [p for p in gb.exprs if not p.has(self.t)]

    def radical_member(self, f, A):
        """f in sqrt(A): 1 lies in A + (1 - t*f)."""
        gens = A + [1 - self.t * f]
        gb = self.sympy.groebner(gens, self.t, *self.symbols, order="grevlex", **self.options)
        return list(gb.exprs) == [1]


def _polynomial(rng, ring, max_terms=3):
    """Up to max_terms terms of degree 1..2 with coefficients in 1..6: a
    proper ideal, whatever the generators."""
    items = []
    for _ in range(rng.randrange(1, max_terms + 1)):
        exps = [0] * ring.nvars
        for _ in range(rng.randrange(1, 3)):
            exps[rng.randrange(ring.nvars)] += 1
        items.append((exps, ring.field.of(rng.randrange(1, 7))))
    return ring.poly(items)


def _binomial(rng, ring):
    """A polynomial with at least two terms, so the monomial rules do not
    apply."""
    while True:
        p = _polynomial(rng, ring)
        if len(p.terms) > 1:
            return p


def _ideal(rng, ring):
    gens = [_binomial(rng, ring)] + [_polynomial(rng, ring) for _ in range(rng.randrange(2))]
    rng.shuffle(gens)
    return Ideal(ring, tuple(gens))


def _setup(field, order):
    sympy = pytest.importorskip("sympy")
    ring = PolyRing(field, ["x", "y", "z"], order)
    return ring, Oracle(sympy, ring)


@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_intersection_matches_elimination(field, order):
    ring, oracle = _setup(field, order)
    rng = seeded(101)
    for _ in range(6):
        I, J = _ideal(rng, ring), _ideal(rng, ring)
        expected = oracle.basis(oracle.intersect(oracle.exprs(I.gens), oracle.exprs(J.gens)))
        assert set(intersect_ideals(I, J).gens) == expected, (I, J)


@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_quotient_matches_intersection_of_principal_colons(field, order):
    ring, oracle = _setup(field, order)
    rng = seeded(103)
    for _ in range(5):
        I = _ideal(rng, ring)
        J = Ideal(ring, tuple(_polynomial(rng, ring, 2) for _ in range(rng.randrange(2, 4))))
        A = oracle.exprs(I.gens)
        colons = [oracle.colon(A, g) for g in oracle.exprs(J.gens)]
        expected = colons[0]
        for colon in colons[1:]:
            expected = oracle.intersect(expected, colon)
        assert set(ideal_quotient(I, J).gens) == oracle.basis(expected), (I, J)


@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_radical_membership_matches_inversion(field, order):
    ring, oracle = _setup(field, order)
    rng = seeded(107)
    outcomes = set()
    for _ in range(8):
        g, h = _binomial(rng, ring), _polynomial(rng, ring)
        # g lies in sqrt(I) and h in I, so g + c*h does; a random f mostly not
        I = Ideal(ring, (g**2, h))
        for f in (g + h.scale(ring.field.of(rng.randrange(1, 7))), _polynomial(rng, ring)):
            expected = oracle.radical_member(oracle.exprs([f])[0], oracle.exprs(I.gens))
            assert radical_membership(f, I) == expected, (f, I)
            outcomes.add(expected)
    assert outcomes == {True, False}


@pytest.mark.parametrize("field,order", FIELDS_AND_ORDERS)
def test_saturation_matches_elimination(field, order):
    ring, oracle = _setup(field, order)
    rng = seeded(109)
    proper_and_larger = 0
    for _ in range(5):
        f, g, h = _binomial(rng, ring), _polynomial(rng, ring), _binomial(rng, ring)
        # f*g and f^2*h lie in I, so g and h lie in I : f^infinity
        I = Ideal(ring, (f * g, f * f * h))
        ours = saturate(I, Ideal(ring, (f,)))
        expected = oracle.saturate(oracle.exprs(I.gens), oracle.exprs([f])[0])
        assert set(ours.gens) == oracle.basis(expected), (I, f)
        proper_and_larger += not ours.is_unit() and ours.groebner() != I.groebner()
    assert proper_and_larger
