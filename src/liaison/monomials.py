"""Monomial-ideal combinatorics: primary decomposition, associated primes,
Stanley-Reisner complexes, Hochster-formula projective dimension, Krull
dimension, and the cohomological-dimension oracle for monomial ideals.

The cd oracle rests on two standard facts about a squarefree monomial ideal a
over a polynomial ring: cd(a, R) equals pd(R/a), and H^i_a(R) is nonzero
exactly when Ext^i(R/a, R) is.  Hochster's formula reads pd(R/a) off the
vertex restrictions of the Stanley-Reisner complex to the lcm lattice of a.
Betti numbers are computed over the ring's own coefficient field, so they can
legitimately depend on the characteristic; reports record it.
"""

from itertools import combinations

from .errors import ResourceLimitError
from .groebner import Ideal, exp_divides, intersect_exponents, minimalize_exponents
from .ideal_ops import intersect_ideals
from .record import Record

MAX_COMPLEX_VARS = 12  # stanley_reisner enumerates all 2^n vertex subsets


# -- monomial bookkeeping ------------------------------------------------------


def monomial_exponents(I):
    """Minimal monomial generators (as exponent tuples) of a monomial ideal.

    Decided on the reduced Groebner basis: an ideal is monomial exactly when
    its reduced basis consists of monomials, and that basis then is the unique
    minimal monomial generating set.
    """
    gb = I.groebner()
    exps = []
    for g in gb:
        if not g.is_monomial():
            raise ValueError("not a monomial ideal")
        exps.append(g.terms[0][0])
    return exps


def is_monomial_ideal(I):
    return all(g.is_monomial() for g in I.groebner())


def _ideal_from_exponents(ring, exps):
    return Ideal(ring, tuple(ring.monomial(e) for e in sorted(exps)))


def _support(exps):
    return frozenset(i for i, e in enumerate(exps) if e > 0)


def monomial_radical(I):
    """sqrt(I) for monomial I: squarefree parts of the generators, minimalized."""
    exps = monomial_exponents(I)
    square_free = [tuple(min(e, 1) for e in m) for m in exps]
    return _ideal_from_exponents(I.ring, minimalize_exponents(square_free))


def _monomial_contains(big, small):
    """Does the monomial ideal generated by big contain every member of small?"""
    return all(any(exp_divides(g, m) for g in big) for m in small)


# -- primary decomposition ----------------------------------------------------


def primary_decomposition_monomial(I):
    """Irredundant primary decomposition of a proper monomial ideal.

    Recursively splits a generator m = u*v with coprime u, v into
    (I + (u)) cap (I + (v)) until every component is generated by pure
    variable powers, then merges components sharing a radical and removes
    redundant ones.  The intersection of the result equals I exactly.
    """
    ring = I.ring
    if I.is_unit():
        raise ValueError("the unit ideal has no primary decomposition")
    exps = monomial_exponents(I)
    if not exps:
        return [Ideal(ring, ())]  # the zero ideal is prime here

    components = []
    stack = [minimalize_exponents(exps)]
    while stack:
        gens = stack.pop()
        split_at = None
        for m in gens:
            if len(_support(m)) > 1:
                split_at = m
                break
        if split_at is None:
            components.append(tuple(gens))
            continue
        var = min(_support(split_at))
        u = tuple(split_at[i] if i == var else 0 for i in range(len(split_at)))
        v = tuple(0 if i == var else split_at[i] for i in range(len(split_at)))
        rest = [m for m in gens if m != split_at]
        stack.append(minimalize_exponents(rest + [u]))
        stack.append(minimalize_exponents(rest + [v]))

    # merge components with equal radical (intersection stays primary)
    by_radical = {}
    for comp in sorted(set(components)):
        rad = frozenset().union(*(_support(m) for m in comp))
        if rad in by_radical:
            by_radical[rad] = tuple(intersect_exponents(by_radical[rad], comp))
        else:
            by_radical[rad] = comp
    comps = sorted(by_radical.values())

    # drop components containing the intersection of the others
    changed = True
    while changed and len(comps) > 1:
        changed = False
        for idx in range(len(comps)):
            others = None
            for j, comp in enumerate(comps):
                if j == idx:
                    continue
                others = (
                    list(comp)
                    if others is None
                    else intersect_exponents(others, comp)
                )
            if _monomial_contains(comps[idx], others):
                comps.pop(idx)
                changed = True
                break
    return [_ideal_from_exponents(ring, comp) for comp in comps]


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
    comps = primary_decomposition_monomial(J)
    primes = set()
    for comp in comps:
        primes.add(frozenset().union(*(_support(e) for e in monomial_exponents(comp))))
    minimal = {p for p in primes if not any(q < p for q in primes)}
    return AssociatedPrimes(frozenset(primes), frozenset(minimal))


def prime_ideal(ring, prime):
    """The monomial prime ideal of a variable-index set (empty set -> (0))."""
    return Ideal(ring, tuple(ring.gen(i) for i in sorted(prime)))


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


# -- Stanley-Reisner ------------------------------------------------------------


class SimplicialComplex(Record):
    """Facet description of a simplicial complex on vertices 0..n-1; the
    faces are exactly the subsets of facets."""

    def __init__(self, n_vertices, facets):
        self._set(locals())

    def faces(self):
        seen = set()
        for f in self.facets:
            members = sorted(f)
            for r in range(len(members) + 1):
                for c in combinations(members, r):
                    seen.add(frozenset(c))
        return seen


def stanley_reisner(I):
    """The complex whose minimal non-faces are the generator supports of a
    proper squarefree monomial ideal."""
    ring = I.ring
    n = ring.nvars
    if n > MAX_COMPLEX_VARS:
        raise ResourceLimitError(f"more than {MAX_COMPLEX_VARS} variables")
    exps = monomial_exponents(I)
    if I.is_unit():
        raise ValueError("the unit ideal has no Stanley-Reisner complex")
    for m in exps:
        if any(e > 1 for e in m):
            raise ValueError("not a squarefree monomial ideal")
    nonfaces = [_support(m) for m in exps]
    vertices = list(range(n))
    faces = []
    for r in range(n, -1, -1):
        for c in combinations(vertices, r):
            s = frozenset(c)
            if not any(nf <= s for nf in nonfaces):
                faces.append(s)
    facets = []
    for s in faces:  # faces listed largest-first
        if not any(s < f for f in facets):
            facets.append(s)
    facets.sort(key=lambda f: (len(f), sorted(f)))
    return SimplicialComplex(n, tuple(facets))


# -- simplicial homology over the coefficient field ----------------------------


def _field_rank(rows, field):
    """Rank of a dense matrix over the coefficient field, by elimination."""
    rows = [list(r) for r in rows]
    if not rows or not rows[0]:
        return 0
    zero = field.zero
    ncols = len(rows[0])
    rank = 0
    col = 0
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
    """pd(R/I) for squarefree monomial I, by reduced cohomology of the vertex
    restrictions of the Stanley-Reisner complex to the lcm lattice of I
    (ranks over the ring's own coefficient field).

    The lcm lattice is the set of unions of minimal generator supports.  Any
    other vertex set s holds a vertex in no minimal non-face inside s, so the
    restriction to s is a cone on that vertex and has no reduced homology.
    """
    ring = I.ring
    n = ring.nvars
    if n > MAX_COMPLEX_VARS:
        raise ResourceLimitError(f"more than {MAX_COMPLEX_VARS} variables")
    if I.is_zero():
        raise ValueError("pd oracle needs a nonzero ideal")
    complex_ = stanley_reisner(I)
    all_faces = complex_.faces()
    lattice = {frozenset()}
    for m in monomial_exponents(I):
        support = _support(m)
        lattice |= {s | support for s in lattice}
    field = ring.field
    best = 0
    for s in lattice:
        restricted = [f for f in all_faces if f <= s]
        for d in reduced_homology_dims(restricted, field):
            i = len(s) - d - 1
            if i > best:
                best = i
    return best


def cd_monomial(a):
    """cd(a, R) for a proper nonzero monomial ideal, via pd of the radical."""
    if a.is_zero():
        raise ValueError("cd oracle needs a nonzero ideal")
    if a.is_unit():
        raise ValueError("cd of the unit ideal is undefined")
    return hochster_pd(monomial_radical(a))


def ext_nonvanishing_degrees(a):
    """{i : Ext^i(R/a, R) != 0} for squarefree monomial a; for such ideals
    this is also the set of degrees where local cohomology of R survives."""
    from .resolutions import nonzero_ext_degrees

    for m in monomial_exponents(a):
        if any(e > 1 for e in m):
            raise ValueError("not a squarefree monomial ideal")
    if a.is_zero() or a.is_unit():
        raise ValueError("need a proper nonzero ideal")
    return set(nonzero_ext_degrees(a))


def krull_dim_monomial(J):
    """dim(R/J) for monomial (or zero) J: n minus the minimal height of a
    minimal prime."""
    ring = J.ring
    if J.is_unit():
        raise ValueError("dim of the zero module")
    if J.is_zero():
        return ring.nvars
    ass = associated_primes_monomial(J)
    return ring.nvars - min(len(p) for p in ass.minimal)
