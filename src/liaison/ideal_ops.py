"""Ideal calculus: intersection, quotient (colon), saturation, radical
membership and equality, and exact ideal equality.

When every generator is a single term, the monomial rules answer (Miller &
Sturmfels, Combinatorial Commutative Algebra, ch. 1): I cap J is generated by
the pairwise lcms, I : (m) by the g / gcd(g, m), and f lies in sqrt(I) when
each term of f is divisible by the support of a generator.  Otherwise one
syzygy computation answers both intersection and quotient (Greuel & Pfister,
A Singular Introduction to Commutative Algebra, sec. 1.8): I cap J is
(I*e1 + J*e2) : (1, 1) and I : (g1, ..., gl) is (I*e1 + ... + I*el) :
(g1, ..., gl), the syzygies of the one row relative to the ideals, whose
reduced bases enter Buchberger as known rows whose pairs it skips.  f lies
in sqrt(I) when it lies in I, else when I : f^infinity is the unit ideal.
Both intersection and quotient return reduced bases in the ring's order and
depend only on the ideals, so within one run they are memoized on the ring
and the reduced bases of both operands: equal ideals given by different
generators share one entry.  Containment is memoized on I's basis and J's
nonzero generators.
"""

from .errors import RingMismatchError
from .groebner import (
    Ideal,
    exps_in_monomial_ideal,
    intersect_exponents,
    reduced_groebner_basis,
    single_term_exponents,
    syzygy_module,
)
from .limits import memo


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
    key = (I.ring, I.groebner(), J.gens_key())
    return memo("contains", key, lambda: all(I.contains(g) for g in J.gens))


def _colon(ring, v, ideals):
    """(I1*e1 + ... + Ir*er) :_R v for a row v of R^r: the syzygies of the
    one row v relative to the ideals, read off with the reduced bases of the
    Ij as known rows whose pairs Buchberger skips."""
    firsts = [s[0] for s in syzygy_module([tuple(v)], ideals)]
    return Ideal.reduced(ring, reduced_groebner_basis(firsts))


def intersect_ideals(I, J):
    """I cap J, as its reduced basis in the ring's order."""
    _check_same_ring(I, J)
    key = (I.ring, I.groebner(), J.groebner())
    return memo("intersect", key, lambda: _intersect(I, J))


def _intersect(I, J):
    ring = I.ring
    a, b = single_term_exponents(I.gens), single_term_exponents(J.gens)
    if a is None or b is None:
        return _colon(ring, (ring.one, ring.one), (I, J))
    exps = sorted(intersect_exponents(a, b), key=ring.key, reverse=True)
    return Ideal.reduced(ring, tuple(ring.monomial(e) for e in exps))


def ideal_quotient(I, J):
    """I : J = {f : f*J in I}, as its reduced basis in the ring's order.
    Quotient by the zero ideal is rejected."""
    _check_same_ring(I, J)
    gens = list(dict.fromkeys(g for g in J.gens if not g.is_zero()))
    if not gens:
        raise ValueError("quotient by the zero ideal")
    key = (I.ring, I.groebner(), J.groebner())
    return memo("quotient", key, lambda: _quotient(I, gens))


def _quotient(I, gens):
    ring = I.ring
    exps = single_term_exponents(I.gens)
    if exps is None or not all(g.is_monomial() for g in gens):
        return _colon(ring, gens, (I,) * len(gens))
    result = None
    for g in gens:
        m = g.terms[0][0]
        firsts = [ring.monomial(tuple(max(x - y, 0) for x, y in zip(e, m))) for e in exps]
        q = Ideal.reduced(ring, reduced_groebner_basis(firsts))
        result = q if result is None else intersect_ideals(result, q)
    return result


def saturate(I, J):
    """I : J^infinity, by iterating the quotient to its fixed point or to the
    unit ideal."""
    _check_same_ring(I, J)
    current = I
    while True:
        nxt = ideal_quotient(current, J)
        if nxt.is_unit() or ideal_equal(nxt, current):
            return nxt
        current = nxt


def radical_membership(f, I):
    """f in sqrt(I): for monomial I term by term, since sqrt(I) is monomial;
    otherwise when f is in I, else by whether I : f^infinity is the unit
    ideal."""
    if f.ring != I.ring:
        raise RingMismatchError("radical membership across rings")
    if f.is_zero():
        return True
    exps = single_term_exponents(I.gens)
    if exps is None:
        return I.contains(f) or saturate(I, Ideal(I.ring, (f,))).is_unit()
    supports = [tuple(min(x, 1) for x in g) for g in exps]
    return exps_in_monomial_ideal(supports, (e for e, _ in f.terms))


def radicals_equal(I, J):
    """sqrt(I) == sqrt(J), via radical membership of generators both ways."""
    _check_same_ring(I, J)
    return all(radical_membership(g, J) for g in I.gens) and all(
        radical_membership(h, I) for h in J.gens
    )
