"""Ideal calculus: intersection, quotient (colon), saturation, radical
membership and equality, and exact ideal equality.

When every generator is a single term, the monomial rules answer (Miller &
Sturmfels, Combinatorial Commutative Algebra, ch. 1): I cap J is generated by
the pairwise lcms, I : (m) by the g / gcd(g, m), and f lies in sqrt(I) when
each term of f is divisible by the support of a generator.  Otherwise, and in
the tests as the oracle, intersections and radical membership eliminate one
auxiliary variable appended after the ring's own variables, under a
lex-over-grevlex block order, and I : (f) is read off the syzygies of f and
the generators of I.  I : J intersects the I : (g) over the generators of J.
Both return reduced bases, so within one run they are memoized on the ring
and the sets of nonzero generators, on whose ideals alone their results
depend.
"""

from .errors import RingMismatchError
from .groebner import (
    Ideal,
    exp_divides,
    intersect_exponents,
    reduced_groebner_basis,
    single_term_exponents,
    syzygy_module,
)
from .limits import memo
from .rings import PolyRing

_AUX = "_t"  # not a legal identifier in the grammar, so it can never collide


def _check_same_ring(I, J):
    if I.ring != J.ring:
        raise RingMismatchError("ideals from different rings")


def ideal_equal(I, J):
    """Exact equality, decided by comparing reduced Groebner bases."""
    _check_same_ring(I, J)
    return I.groebner() == J.groebner()


def ideal_contains(I, J):
    """Is J a subset of I? (every generator of J reduces to zero mod I)."""
    _check_same_ring(I, J)
    return all(I.contains(g) for g in J.gens)


def _extended_ring(ring):
    """The ring with t appended, under the elimination order: one per ring
    in a run, so that its order keys are computed once."""
    return memo(
        "elim_ring", ring, lambda: PolyRing(ring.field, ring.vars + (_AUX,), "elim_last")
    )


def _lift(p, ext):
    return ext.from_dict({e + (0,): c for e, c in p.terms})


def intersect_ideals(I, J):
    """I cap J, as its reduced basis under grevlex (the elimination order's
    block on the ring's own variables), whatever the ring's order."""
    _check_same_ring(I, J)
    key = (I.ring, I.gens_key(), J.gens_key())
    return memo("intersect", key, lambda: _intersect(I, J))


def _intersect(I, J):
    a, b = single_term_exponents(I.gens), single_term_exponents(J.gens)
    if a is None or b is None:
        return _intersect_by_elimination(I, J)
    ext_key = _extended_ring(I.ring).key
    exps = sorted(intersect_exponents(a, b), key=lambda e: ext_key(e + (0,)), reverse=True)
    return Ideal(I.ring, tuple(I.ring.monomial(e) for e in exps))


def _intersect_by_elimination(I, J):
    """Elimination of the auxiliary variable t from t*I + (1-t)*J."""
    ring = I.ring
    ext = _extended_ring(ring)
    t = ext.gen(ext.nvars - 1)
    gens = [_lift(g, ext) * t for g in I.gens if g]
    gens += [_lift(h, ext) * (ext.one - t) for h in J.gens if h]
    # under the elimination order, a leading monomial free of t means the
    # whole polynomial is
    kept = [g for g in reduced_groebner_basis(gens, ext) if g.terms[0][0][-1] == 0]
    return Ideal(ring, tuple(ring.from_dict({e[:-1]: c for e, c in g.terms}) for g in kept))


def _quotient_by_poly(I, f):
    exps = single_term_exponents(I.gens)
    if exps is None or not f.is_monomial():
        return _quotient_by_syzygies(I, f)
    m = f.terms[0][0]
    firsts = [I.ring.monomial(tuple(max(x - y, 0) for x, y in zip(g, m))) for g in exps]
    return Ideal(I.ring, reduced_groebner_basis(firsts, I.ring))


def _quotient_by_syzygies(I, f):
    """I : (f), the first coordinates of the syzygies of (f, g1, ..., gk)."""
    gens = [(f,)] + [(g,) for g in I.gens if not g.is_zero()]
    firsts = [s[0] for s in syzygy_module(gens)]
    return Ideal(I.ring, reduced_groebner_basis(firsts, I.ring))


def ideal_quotient(I, J):
    """I : J = {f : f*J in I}, as the intersection of the I : (g) over the
    distinct nonzero generators of J.  Quotient by the zero ideal is
    rejected."""
    _check_same_ring(I, J)
    gens = list(dict.fromkeys(g for g in J.gens if not g.is_zero()))
    if not gens:
        raise ValueError("quotient by the zero ideal")
    key = (I.ring, I.gens_key(), J.gens_key())
    return memo("quotient", key, lambda: _quotient(I, gens))


def _quotient(I, gens):
    result = None
    for g in gens:
        q = _quotient_by_poly(I, g)
        result = q if result is None else intersect_ideals(result, q)
    return result


def saturate(I, J):
    """I : J^infinity, by iterating the quotient to its fixed point."""
    _check_same_ring(I, J)
    current = I
    while True:
        nxt = ideal_quotient(current, J)
        if ideal_equal(nxt, current):
            return current
        current = nxt


def radical_membership(f, I):
    """f in sqrt(I); for monomial I, sqrt(I) is monomial, so term by term."""
    if f.ring != I.ring:
        raise RingMismatchError("radical membership across rings")
    if f.is_zero():
        return True
    exps = single_term_exponents(I.gens)
    if exps is None:
        return _radical_membership_by_elimination(f, I)
    supports = [tuple(min(x, 1) for x in g) for g in exps]
    return all(any(exp_divides(s, e) for s in supports) for e, _ in f.terms)


def _radical_membership_by_elimination(f, I):
    """f in sqrt(I), for nonzero f, via 1 in I*R[t] + (1 - t*f)."""
    ring = I.ring
    ext = _extended_ring(ring)
    t = ext.gen(ext.nvars - 1)
    gens = [_lift(g, ext) for g in I.gens if not g.is_zero()]
    gens.append(ext.one - t * _lift(f, ext))
    basis = reduced_groebner_basis(gens, ext)
    return len(basis) == 1 and basis[0].is_constant()


def radicals_equal(I, J):
    """sqrt(I) == sqrt(J), via radical membership of generators both ways."""
    _check_same_ring(I, J)
    return all(radical_membership(g, J) for g in I.gens) and all(
        radical_membership(h, I) for h in J.gens
    )
