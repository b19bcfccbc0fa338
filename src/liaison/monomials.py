"""Monomial-ideal combinatorics, computed from the exponent supports of the
minimal generators: irreducible decomposition, associated primes,
Hochster-formula projective dimension, and the cohomological-dimension
oracle; and the height of any ideal, from the supports of its leading
monomials (the grade over M = R, see linkage.grade_oracle).

The cd oracle rests on two standard facts about a squarefree monomial ideal a
over a polynomial ring: cd(a, R) equals pd(R/a), and H^i_a(R) is nonzero
exactly when Ext^i(R/a, R) is.  When the generator supports are pairwise
disjoint, a is a complete intersection and pd(R/a) is the number of
generators, with no homology computed; otherwise Betti numbers are computed
over the ring's own coefficient field, so they can legitimately depend on
the characteristic; reports record it.  Within a run, cd is memoized on the
ring and the generators of the radical.
"""

from itertools import combinations

from .errors import ResourceLimitError
from .groebner import Ideal, exps_in_monomial_ideal, minimalize_exponents, single_term_exponents
from .ideal_ops import ideal_contains, intersect_ideals
from .limits import memo
from .record import Record

MAX_COMPLEX_VARS = 12  # hochster_pd enumerates subsets of the support union, at most 2^n


# -- monomial bookkeeping ------------------------------------------------------


def monomial_exponents(I):
    """Minimal monomial generators (as exponent tuples) of a monomial ideal.

    Decided on the reduced Groebner basis: an ideal is monomial exactly when
    its reduced basis consists of monomials, and that basis then is the unique
    minimal monomial generating set.
    """
    exps = single_term_exponents(I.groebner())
    if exps is None:
        raise ValueError("not a monomial ideal")
    return exps


def is_monomial_ideal(I):
    return single_term_exponents(I.groebner()) is not None


def _support(exps):
    return frozenset(i for i, e in enumerate(exps) if e > 0)


def monomial_radical(I):
    """sqrt(I) for monomial I: squarefree parts of the generators, minimalized."""
    exps = monomial_exponents(I)
    square_free = [tuple(min(e, 1) for e in m) for m in exps]
    return Ideal(I.ring, tuple(map(I.ring.monomial, minimalize_exponents(square_free))))


# -- irreducible decomposition ------------------------------------------------


def _irreducible_components(exps):
    """Irredundant irreducible decomposition of a proper nonzero monomial
    ideal, each component the sorted exponents of its pure variable powers.

    Recursively splits a generator m = u*v with coprime u, v into
    (I + (u)) cap (I + (v)) until every component is generated by pure
    variable powers.  Irreducible monomial ideals are meet-irreducible, so the
    components containing no other component are exactly the irredundant ones.
    """
    found = set()
    stack = [minimalize_exponents(exps)]
    while stack:
        gens = stack.pop()
        split_at = next((m for m in gens if len(_support(m)) > 1), None)
        if split_at is None:
            found.add(tuple(gens))
            continue
        var = min(_support(split_at))
        u = tuple(split_at[i] if i == var else 0 for i in range(len(split_at)))
        v = tuple(0 if i == var else split_at[i] for i in range(len(split_at)))
        rest = [m for m in gens if m != split_at]
        stack.append(minimalize_exponents(rest + [u]))
        stack.append(minimalize_exponents(rest + [v]))
    return sorted(
        c for c in found if not any(o != c and exps_in_monomial_ideal(c, o) for o in found)
    )


class AssociatedPrimes(Record):
    """Associated primes of R/J as variable-index sets; the empty set marks
    the zero prime of the ambient domain."""

    def __init__(self, all_primes, minimal):
        self._set(locals())

    def is_unmixed(self):
        return self.all_primes == self.minimal


def associated_primes_monomial(J):
    """Ass(R/J) for monomial J (J = 0 allowed), with its minimal subset."""
    if J.is_unit():
        raise ValueError("Ass of the zero module")
    if J.is_zero():
        zero_prime = frozenset()
        return AssociatedPrimes(frozenset([zero_prime]), frozenset([zero_prime]))
    primes = {
        frozenset().union(*(_support(m) for m in comp))
        for comp in _irreducible_components(monomial_exponents(J))
    }
    minimal = {p for p in primes if not any(q < p for q in primes)}
    return AssociatedPrimes(frozenset(primes), frozenset(minimal))


def prime_ideal(ring, prime):
    """The monomial prime ideal of a variable-index set (empty set -> (0))."""
    return Ideal(ring, tuple(ring.gen(i) for i in sorted(prime)))


def primes_containing(I, primes):
    """The monomial primes (variable-index sets) among the given ones that
    contain I."""
    return {p for p in primes if ideal_contains(prime_ideal(I.ring, p), I)}


def intersect_primes(ring, primes):
    """Intersection of monomial primes through intersect_ideals, in its
    generator order; an empty collection yields the unit ideal."""
    primes = sorted(primes, key=lambda p: (len(p), sorted(p)))
    if not primes:
        return Ideal(ring, (ring.one,))
    result = prime_ideal(ring, primes[0])
    for p in primes[1:]:
        result = intersect_ideals(result, prime_ideal(ring, p))
    return result


# -- simplicial homology over the coefficient field ----------------------------


def _field_rank(rows, field):
    """Rank of a dense matrix over the coefficient field, by elimination."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    zero = field.zero
    ncols = len(rows[0])
    rank = 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(rows)):
            if rows[r][col] != zero:
                pivot = r
                break
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inv = field.inv(rows[rank][col])
        prow = rows[rank]
        for r in range(rank + 1, len(rows)):
            factor = rows[r][col]
            if factor != zero:
                scale = field.mul(factor, inv)
                row = rows[r]
                for cidx in range(col, ncols):
                    row[cidx] = field.sub(row[cidx], field.mul(scale, prow[cidx]))
        rank += 1
        if rank == len(rows):
            break
    return rank


def reduced_homology_dims(faces, field):
    """Reduced homology dimensions {d: dim H~_d} of the complex whose full
    face list (including the empty face) is given, over the field."""
    by_dim = {}
    for f in faces:
        by_dim.setdefault(len(f) - 1, []).append(f)
    if not by_dim:
        return {}
    for d in by_dim:
        by_dim[d] = sorted(by_dim[d], key=sorted)
    top = max(by_dim)
    one = field.one

    def boundary_rank(d):
        # rank of the map C_d -> C_{d-1}
        if d not in by_dim or (d - 1) not in by_dim:
            return 0
        target_index = {f: i for i, f in enumerate(by_dim[d - 1])}
        rows = []
        for f in by_dim[d]:
            row = [field.zero] * len(by_dim[d - 1])
            members = sorted(f)
            sign = one
            for k in range(len(members)):
                sub = frozenset(members[:k] + members[k + 1 :])
                row[target_index[sub]] = sign
                sign = field.neg(sign)
            rows.append(row)
        return _field_rank(rows, field)

    dims = {}
    rank_in = 0  # rank of C_d -> C_{d-1}, carried over from the step before
    for d in range(-1, top + 1):
        rank_out = boundary_rank(d + 1)
        h = len(by_dim.get(d, [])) - rank_in - rank_out
        if h:
            dims[d] = h
        rank_in = rank_out
    return dims


def hochster_pd(I):
    """pd(R/I) for squarefree monomial I, by Hochster's formula: reduced
    cohomology of the Stanley-Reisner complex (the vertex sets containing no
    generator support) restricted to each element of the lcm lattice, the
    unions of minimal generator supports; ranks over the ring's own field.
    Any other vertex set s holds a vertex in no minimal non-face inside s, so
    the restriction to s is a cone on that vertex and has no reduced homology.
    Pairwise disjoint supports make I a complete intersection, whose Koszul
    complex is its minimal resolution (Bruns & Herzog, Cohen-Macaulay Rings,
    1.6), so pd(R/I) is the number of generators and the lattice is skipped.
    """
    ring = I.ring
    if ring.nvars > MAX_COMPLEX_VARS:
        raise ResourceLimitError(f"more than {MAX_COMPLEX_VARS} variables")
    if I.is_zero():
        raise ValueError("pd oracle needs a nonzero ideal")
    exps = monomial_exponents(I)
    if I.is_unit():
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    if any(e > 1 for m in exps for e in m):
        raise ValueError("not a squarefree monomial ideal")
    nonfaces = [_support(m) for m in exps]
    vertices = sorted(frozenset().union(*nonfaces))
    if sum(map(len, nonfaces)) == len(vertices):
        return len(nonfaces)
    subsets = (frozenset(c) for r in range(len(vertices) + 1) for c in combinations(vertices, r))
    faces = [f for f in subsets if not any(nf <= f for nf in nonfaces)]
    lattice = {frozenset()}
    for support in nonfaces:
        lattice |= {s | support for s in lattice}
    best = 0
    for s in lattice:
        restricted = [f for f in faces if f <= s]
        for d in reduced_homology_dims(restricted, ring.field):
            i = len(s) - d - 1
            if i > best:
                best = i
    return best


def height(a):
    """height(a) for a proper ideal of any polynomial ring, read off in(a),
    the ideal of the leading monomials of a's reduced Groebner basis.

    dim R/a = dim R/in(a) under every monomial order (Kredel & Weispfenning,
    JSC 6, 1988), so height a = height in(a) = height sqrt(in(a)), the least
    size of a minimal prime of that squarefree ideal: of one of its
    irreducible components, which are coordinate primes.  R is
    Cohen-Macaulay, so this is also grade(a, R) (linkage.grade_oracle)."""
    if a.is_unit():
        raise ValueError("the unit ideal has no height")
    square_free = [tuple(min(e, 1) for e in g.terms[0][0]) for g in a.groebner()]
    return min(map(len, _irreducible_components(square_free)))


def cd_monomial(a):
    """cd(a, R) for a proper nonzero monomial ideal, via pd of the radical;
    memoized for one run on the ring and the radical's generators."""
    if a.is_zero():
        raise ValueError("cd oracle needs a nonzero ideal")
    if a.is_unit():
        raise ValueError("cd of the unit ideal is undefined")
    radical = monomial_radical(a)
    return memo("cd", (a.ring, radical.gens_key()), lambda: hochster_pd(radical))

