"""Ideal calculus: intersection, quotient (colon), saturation, radical
membership and equality, and exact ideal equality.

Intersections eliminate one auxiliary variable appended after the ring's own
variables, under a lex-over-grevlex block order; radical membership uses the
inverted-element trick with the same auxiliary variable.  A quotient I : (f)
is read off the syzygies of f and the generators of I; I : J intersects those
over the generators of J.  Both return reduced bases, so within one run they
are memoized on the ring and the sets of nonzero generators, on whose ideals
alone their results depend.
"""

from .errors import RingMismatchError
from .groebner import Ideal, reduced_groebner_basis, syzygy_module
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
    return PolyRing(ring.field, ring.vars + (_AUX,), "elim_last")


def _lift(p, ext, t_exp=0):
    terms = [(e + (t_exp,), c) for e, c in p.terms]
    return ext.poly(terms)


def _project(p, base):
    terms = [(e[:-1], c) for e, c in p.terms]
    return base.poly(terms)


def intersect_ideals(I, J):
    """Generators of the intersection, via elimination of the auxiliary
    variable t from t*I + (1-t)*J."""
    _check_same_ring(I, J)
    key = (I.ring, I.gens_key(), J.gens_key())
    return memo("intersect", key, lambda: _intersect(I, J))


def _intersect(I, J):
    ring = I.ring
    ext = _extended_ring(ring)
    t = ext.gen(ext.nvars - 1)
    one = ext.one
    gens = []
    for g in I.gens:
        if not g.is_zero():
            gens.append(_lift(g, ext) * t)
    for h in J.gens:
        if not h.is_zero():
            gens.append(_lift(h, ext) * (one - t))
    basis = reduced_groebner_basis(gens, ext)
    kept = []
    for g in basis:
        # under the elimination order, a leading monomial free of t means the
        # whole polynomial is
        if g.terms[0][0][-1] == 0:
            kept.append(_project(g, ring))
    return Ideal(ring, tuple(kept))


def _quotient_by_poly(I, f):
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
    """f in sqrt(I), via 1 in I*R[t] + (1 - t*f)."""
    if f.ring != I.ring:
        raise RingMismatchError("radical membership across rings")
    if f.is_zero():
        return True
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
