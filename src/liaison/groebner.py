"""Buchberger engine over rows: normal forms, reduced Groebner bases of ideals
and submodules, and syzygies; and the exponent rules of monomial ideals.

A row is a tuple of polynomials ordered position over term, lower index
first: a polynomial is a rank-1 row and a vector of R^r a rank-r row, and
rows are the only module type, in and out.  One normal-form loop, one pair
loop and one reduce pass serve every rank.  Pairs are selected by minimal lcm
total degree with ties broken by pair index; the coprime-lcm (product)
criterion applies in rank one when no shadows are tracked and the chain
criterion to same-position pairs in every rank, so bases come out
deterministic for a fixed ring and order.  Syzygies are read off the pair
loop: the shadows of the pairs it reduces to zero.  For syzygies relative
to ideals, the ideals' reduced bases enter first as known rows with zero
shadows, and only the rows asked about carry shadows: the loop forms no
pair of two known rows, since such a pair reduces to zero by the known rows
alone and leaves a syzygy that vanishes on the rows asked about.  A reduced
basis is memoized for one run (limits.run_context) on the ring and set of
nonzero generators, and kept on the Ideal value that asked for it.
Single-term generators skip the pair loop: their minimal exponents are the
reduced basis; and membership in an ideal whose reduced basis is monomials
is divisibility of each term, with no division.
"""

from bisect import insort
from operator import add, le, sub as minus

from .errors import ResourceLimitError, RingMismatchError
from .limits import COEFF_BITS_CAP, memo

# -- exponent-tuple helpers --------------------------------------------------


def exp_divides(a, b):
    """Does x^a divide x^b?"""
    return all(map(le, a, b))


def exp_sub(a, b):
    return tuple(map(minus, a, b))


def exp_lcm(a, b):
    return tuple(map(max, a, b))


def exp_coprime(a, b):
    return not any(map(min, a, b))


def minimalize_exponents(exps):
    """The exponent tuples divisible by no other one, sorted."""
    exps = sorted(set(exps))
    return [m for m in exps if not any(o != m and exp_divides(o, m) for o in exps)]


def intersect_exponents(a, b):
    """Minimal generators of (x^a) cap (x^b): the pairwise lcms, minimalized."""
    return minimalize_exponents(exp_lcm(m, n) for m in a for n in b)


def exps_in_monomial_ideal(gens, exps):
    """Does every x^e (e in exps) lie in the ideal of the monomials x^g (g in
    gens)?  A monomial ideal contains exactly the multiples of its
    generators."""
    return all(any(exp_divides(g, e) for g in gens) for e in exps)


def single_term_exponents(polys):
    """The exponents of the nonzero polys if each is a single term, else None."""
    if any(len(p.terms) > 1 for p in polys):
        return None
    return [p.terms[0][0] for p in polys if p.terms]


# -- the engine: rows ----------------------------------------------------------


def _lead(row):
    """(position, exponent tuple, coefficient) of the greatest term of a row,
    or None for the zero row."""
    for pos, p in enumerate(row):
        if p.terms:
            exps, coeff = p.terms[0]
            return pos, exps, coeff
    return None


def _work(row):
    """A row as one mutable term dict per position."""
    return [dict(p.terms) for p in row]


def _sub_term_mul(d, terms, shift, q, field):
    """d -= q * x^shift * (the polynomial with these terms), on a term dict."""
    zero, sub, mul = field.zero, field.sub, field.mul
    for e2, c2 in terms:
        e = tuple(map(add, e2, shift))
        cur = sub(d.get(e, zero), mul(q, c2))
        if cur == zero:
            d.pop(e, None)
        else:
            d[e] = cur


def _normal_form(ring, work, basis, shadows=None, shadow=None):
    """Remainder row of the row held in work (one term dict per position,
    consumed) on division by the basis rows, positions processed in order.

    The greatest remaining term is divided by the first basis row whose lead
    divides it, or else moves to the remainder.  With shadows (one companion
    row per basis row), every step work -= t*basis[k] is mirrored as
    shadow -= t*shadows[k] on the term dicts in shadow: that mirroring turns
    zero reductions into syzygies.
    """
    field = ring.field
    one, div = field.one, field.div
    key = ring.key
    divisors = [[] for _ in work]
    for k, b in enumerate(basis):
        lead = _lead(b)
        if lead is not None:
            pos, lm, lc = lead
            divisors[pos].append((lm, lc, b[pos].terms[1:], k))
    rem = []
    for pos, wp in enumerate(work):
        candidates = divisors[pos]
        later = range(pos + 1, len(work))
        r = {}
        while wp:
            m = max(wp, key=key)
            c = wp.pop(m)
            for lm, lc, tail, k in candidates:
                if all(map(le, lm, m)):
                    q = c if lc == one else div(c, lc)
                    shift = tuple(map(minus, m, lm))
                    _sub_term_mul(wp, tail, shift, q, field)
                    for p in later:
                        _sub_term_mul(work[p], basis[k][p].terms, shift, q, field)
                    if shadows is not None:
                        for d, s in zip(shadow, shadows[k]):
                            _sub_term_mul(d, s.terms, shift, q, field)
                    break
            else:
                r[m] = c
        rem.append(ring.from_dict(r))
    return tuple(rem)


def _difference(field, a, b, ta, tb):
    """Term dicts of x^ta * a - x^tb * b, position by position."""
    work = []
    for pa, pb in zip(a, b):
        d = {tuple(map(add, e, ta)): c for e, c in pa.terms}
        _sub_term_mul(d, pb.terms, tb, field.one, field)
        work.append(d)
    return work


def _check_coeff_bits(rows):
    """Abort when a coefficient of the rows has a numerator or denominator
    longer than COEFF_BITS_CAP bits: over QQ a basis can grow its
    coefficients without end while degree and term count stay small."""
    for row in rows:
        for p in row:
            for _, c in p.terms:
                num, den = c.numerator.bit_length(), c.denominator.bit_length()
                if num > COEFF_BITS_CAP or den > COEFF_BITS_CAP:
                    raise ResourceLimitError(
                        f"groebner: coefficient of {max(num, den)} bits "
                        f"exceeds cap {COEFF_BITS_CAP}"
                    )


def _reduce_pair(ring, G, X, i, j):
    """Remainder of the S-row of the monic rows G[i], G[j] (leads at one
    position) and, when shadows X are tracked, the S-row of the shadows
    reduced alongside, as term dicts (else None)."""
    _, lmi, _ = _lead(G[i])
    _, lmj, _ = _lead(G[j])
    lcm = exp_lcm(lmi, lmj)
    ti, tj = exp_sub(lcm, lmi), exp_sub(lcm, lmj)
    comp = None if X is None else _difference(ring.field, X[i], X[j], ti, tj)
    rem = _normal_form(ring, _difference(ring.field, G[i], G[j], ti, tj), G, X, comp)
    return rem, comp


def buchberger(ring, rows, shadows=None, known=0):
    """A (not yet reduced) Groebner basis, as monic rows, of the submodule
    generated by rows: nonzero rows of one ring and rank.

    With shadows (one row per input), every basis row carries the same
    combination of shadows as it is of the inputs, and so does the S-row
    reduction of every pair that reduces to zero.  With the unit rows as
    shadows, those combinations are syzygies of the inputs, and by Schreyer's
    theorem the pairs the loop reduces yield a generating set; the product
    criterion would drop the Koszul syzygies, so it applies only without
    shadows.  The first known rows must be a Groebner basis of what they
    generate, with zero shadows: no pair of two of them is formed, since such
    a pair reduces to zero by them alone and so leaves a zero syzygy.
    Returns (basis, the nonzero syzygies), the latter None without shadows.
    """
    rank = len(rows[0])
    field = ring.field
    G, leads, pending, queue = [], [], set(), []
    X, syzygies = (None, None) if shadows is None else ([], [])

    def append(row, shadow):
        pos, lm, lc = _lead(row)
        if lc != field.one:
            inv = field.inv(lc)
            row = tuple(p.scale(inv) for p in row)
            if X is not None:
                shadow = tuple(p.scale(inv) for p in shadow)
        _check_coeff_bits((row,) if X is None else (row, shadow))
        new = len(G)
        for k, (kpos, klm) in enumerate(leads):
            if kpos == pos and new >= known:
                lcm = exp_lcm(klm, lm)
                insort(queue, (sum(lcm), k, new, lcm))
                pending.add((k, new))
        G.append(row)
        leads.append((pos, lm))
        if X is not None:
            X.append(shadow)

    for idx, row in enumerate(rows):
        append(row, None if X is None else shadows[idx])
    while queue:
        _, i, j, lcm = queue.pop(0)
        pending.remove((i, j))
        pos, lmi = leads[i]
        if rank == 1 and X is None and exp_coprime(lmi, leads[j][1]):
            continue  # product criterion
        if any(
            kpos == pos
            and k != i
            and k != j
            and exp_divides(lmk, lcm)
            and (min(i, k), max(i, k)) not in pending
            and (min(j, k), max(j, k)) not in pending
            for k, (kpos, lmk) in enumerate(leads)
        ):
            continue  # chain criterion: both other pairs treated
        rem, comp = _reduce_pair(ring, G, X, i, j)
        shadow = None if comp is None else tuple(map(ring.from_dict, comp))
        if _lead(rem) is not None:
            append(rem, shadow)
        elif shadow is not None and _lead(shadow) is not None:
            syzygies.append(shadow)
    return G, syzygies


def _reduce(ring, G):
    """The reduced basis of the submodule with Groebner basis G (monic rows):
    minimal, auto-reduced, sorted by decreasing lead, position over term."""
    leads = [_lead(g) for g in G]
    keep = [
        g
        for i, (g, (pos, lm, _)) in enumerate(zip(G, leads))
        if not any(
            hpos == pos and exp_divides(hlm, lm) and (hlm != lm or j < i)
            for j, (hpos, hlm, _) in enumerate(leads)
            if j != i
        )
    ]
    # The leads stay fixed, so one pass reduces every tail; the remainder of
    # a monic row keeps its unreducible lead and so stays monic.
    for i, g in enumerate(keep):
        keep[i] = _normal_form(ring, _work(g), keep[:i] + keep[i + 1 :])

    def key(row):
        pos, lm, _ = _lead(row)
        return -pos, ring.key(lm)

    keep.sort(key=key, reverse=True)
    return keep


# -- ideals ----------------------------------------------------------------------


def reduce_normal_form(f, basis):
    """Full remainder of multivariate division of f by basis.

    No term of the result is divisible by any basis leading monomial, and
    f - result lies in the ideal generated by basis.
    """
    basis = [(b,) for b in basis if not b.is_zero()]
    if f.is_zero() or not basis:
        return f
    return module_normal_form((f,), basis)[0]


def reduced_groebner_basis(gens):
    """The unique reduced, monic, auto-reduced basis, in the generators' ring,
    sorted by decreasing leading monomial.  Empty for the zero ideal; (1,)
    for the unit ideal."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        return ()
    ring = gens[0].ring

    def compute():
        _, rows = _rows((g,) for g in gens)  # one ring, checked on a miss only
        exps = single_term_exponents(gens)
        if exps is not None:
            exps = sorted(minimalize_exponents(exps), key=ring.key, reverse=True)
            return tuple(ring.monomial(e) for e in exps)
        G, _ = buchberger(ring, rows)
        return tuple(row[0] for row in _reduce(ring, G))

    return memo("gb", (ring, frozenset(gens)), compute)


class Ideal:
    """Finitely generated ideal with write-once reduced-basis and key caches.

    The run memo also holds reduced bases, but a lookup there builds, hashes
    and compares a key of all the generators; the slot makes repeated
    groebner() calls on one Ideal, as membership tests make, a plain read.
    Basis and key are functions of the generators, so neither slot goes stale.
    """

    __slots__ = ("ring", "gens", "_gb", "_key")

    def __init__(self, ring, gens):
        gens = tuple(gens)
        for g in gens:
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("generator from a different ring")
        self.ring = ring
        self.gens = gens
        self._gb = None
        self._key = None

    @classmethod
    def reduced(cls, ring, basis):
        """The ideal generated by basis, a tuple that is already its reduced
        basis (as reduced_groebner_basis returns it), so groebner() is basis."""
        ideal = cls(ring, basis)
        ideal._gb = basis
        return ideal

    def groebner(self):
        if self._gb is None:
            self._gb = reduced_groebner_basis(self.gens)
        return self._gb

    def gens_key(self):
        """The nonzero generators: with the ring, a memo key for the ideal."""
        if self._key is None:
            self._key = frozenset(g for g in self.gens if not g.is_zero())
        return self._key

    def contains(self, f):
        """f in the ideal.  Over a reduced basis of monomials, exactly when
        each term of f is divisible by one of them; otherwise when f reduces
        to zero."""
        if f.ring != self.ring:
            raise RingMismatchError("membership test across rings")
        gb = self.groebner()
        # gb[0] first: most bases that are not monomials fail there, before
        # the generator is built; that test is paid on every membership test.
        if gb and len(gb[0].terms) == 1 and all(len(g.terms) == 1 for g in gb):
            return exps_in_monomial_ideal([g.terms[0][0] for g in gb], (e for e, _ in f.terms))
        return reduce_normal_form(f, gb).is_zero()

    def is_zero(self):
        return not self.groebner()

    def is_unit(self):
        gb = self.groebner()
        return len(gb) == 1 and gb[0].is_constant()

    def __repr__(self):
        if not self.gens:
            return "Ideal(0)"
        return "Ideal(" + ", ".join(repr(g) for g in self.gens) + ")"


def ideal_sum(I, J):
    if I.ring != J.ring:
        raise RingMismatchError("ideal sum across rings")
    return Ideal(I.ring, I.gens + J.gens)


# -- free modules --------------------------------------------------------------


def unit_vector(ring, rank, pos, poly=None):
    """The row of R^rank with poly (default 1) at pos and zeros elsewhere."""
    row = [ring.zero] * rank
    row[pos] = ring.one if poly is None else poly
    return tuple(row)


def ideal_rows(ring, ideals):
    """The rows g*e_j of R^len(ideals), for each position j and each g in the
    reduced basis of ideals[j]: a Groebner basis of ideals[0]*e_0 + ... ."""
    if any(I.ring != ring for I in ideals):
        raise RingMismatchError("ideal from a different ring")
    rank = len(ideals)
    return [unit_vector(ring, rank, j, g) for j, I in enumerate(ideals) for g in I.groebner()]


def _rows(rows):
    """(ring, rows) of rows of one ring and rank; ring is None when rows is
    empty."""
    rows = [tuple(row) for row in rows]
    ring = rows[0][0].ring if rows else None
    for row in rows:
        if len(row) != len(rows[0]):
            raise ValueError("rank mismatch between module generators")
        if any(p.ring != ring for p in row):
            raise RingMismatchError("module generators from different rings")
    return ring, rows


def module_normal_form(v, basis):
    """Normal form of the row v against basis under position-over-term
    order."""
    ring, rows = _rows([v, *basis])
    return _normal_form(ring, _work(rows[0]), rows[1:])


def module_groebner_basis(gens):
    """Reduced Groebner basis, as rows, of the submodule of R^r generated by
    the rows gens."""
    ring, rows = _rows(gens)
    rows = [row for row in rows if _lead(row) is not None]
    if not rows:
        return []
    G, _ = buchberger(ring, rows)
    return _reduce(ring, G)


def syzygy_module(rows, ideals=()):
    """Generators, as rows, of {c : sum c_r*rows_r in I_1*e_1 + ... + I_s*e_s}
    for the ideals (I_1, ..., I_s), s the rank of the rows; with no ideals,
    the full syzygy module of the rows.  They are the unit row of every zero
    row and the syzygies that Buchberger reads off its zero reductions, run
    on the known rows g*e_j (g in the reduced basis of I_j) with zero shadows
    and then the nonzero rows with the unit rows as shadows.  Only the rows
    asked about carry shadows, and the loop skips every pair of two known
    rows; that is sound because the known rows come from reduced bases,
    which form a Groebner basis of I_1*e_1 + ... + I_s*e_s.  From mere
    generators of the I_j the skipped pairs would lose syzygies."""
    ring, rows = _rows(rows)
    units = [unit_vector(ring, len(rows), idx) for idx in range(len(rows))]
    syzygies = [units[idx] for idx, row in enumerate(rows) if _lead(row) is None]
    nonzero = [idx for idx, row in enumerate(rows) if _lead(row) is not None]
    if nonzero:
        if ideals and len(ideals) != len(rows[0]):
            raise ValueError("rank mismatch between rows and ideals")
        known = ideal_rows(ring, ideals)
        inputs = known + [rows[i] for i in nonzero]
        shadows = [(ring.zero,) * len(rows)] * len(known) + [units[i] for i in nonzero]
        _, found = buchberger(ring, inputs, shadows, known=len(known))
        syzygies.extend(found)
    return syzygies
