"""Free resolutions, Ext against cyclic modules, grade, and projective
dimension.

Resolutions are built by iterated syzygy computation; unit (nonzero constant)
entries are pruned as they appear, which splits off trivial exact summands and
keeps the Hilbert length bound enforceable.  On homogeneous input the pruned
resolution is minimal.  Ext^i(R/a, R/J) is read off the transposed resolution
of R/a with kernels taken relative to J-multiples.  Within one run
(limits.run_context), resolutions are memoized on the ring and the ordered
distinct nonzero generators, on which their matrices depend, and Ext answers
on the ring, the sets of nonzero generators of a and J, and the degree.
"""

from .groebner import (
    Ideal,
    module_groebner_basis,
    module_normal_form,
    syzygy_module,
    unit_vector,
)
from .limits import memo
from .record import Record


class FreeResolution(Record):
    """Chain of free modules F_0 <- F_1 <- ... resolving R/a.

    diffs[i] holds the columns of d_{i+1} as rows of R^{ranks[i]};
    consecutive maps compose to zero exactly.
    """

    def __init__(self, ring, ranks, diffs):
        self._set(locals())

    @property
    def length(self):
        return len(self.diffs)


def _prune_units(prev_cols, cols, ring):
    """Split off every trivial summand signalled by a unit (nonzero constant)
    entry.

    cols is a mutable list of mutable coordinate lists (the columns of
    d_{i+1}); prev_cols the columns of d_i.  A unit at (row r,
    column c) makes every other column b lose (b[r]/u) * column c, after
    which row r, column c, and column r of the previous matrix are dead.
    Dead rows and columns are only marked during elimination and compacted
    once at the end, which keeps the whole pass near-linear in the number of
    nonzero entries.
    """
    field = ring.field
    rank = len(cols[0])
    dead_col = [False] * len(cols)
    dead_row = [False] * rank
    live_rows = list(range(rank))
    progress = True
    while progress:
        progress = False
        for c, col in enumerate(cols):
            if dead_col[c]:
                continue
            pivot_row = None
            for r in live_rows:
                entry = col[r]
                if not entry.is_zero() and entry.is_constant():
                    pivot_row = r
                    break
            if pivot_row is None:
                continue
            r = pivot_row
            inv = field.inv(col[r].constant_coeff())
            pivot_support = [
                rr for rr in live_rows if rr != r and not col[rr].is_zero()
            ]
            for b, other in enumerate(cols):
                if b == c or dead_col[b]:
                    continue
                factor = other[r]
                if factor.is_zero():
                    continue
                scaled = factor.scale(inv)
                for rr in pivot_support:
                    other[rr] = other[rr] - scaled * col[rr]
                other[r] = ring.zero
            dead_col[c] = True
            dead_row[r] = True
            live_rows.remove(r)
            progress = True
    new_cols = [
        [col[r] for r in live_rows] for c, col in enumerate(cols) if not dead_col[c]
    ]
    return [prev_cols[r] for r in live_rows], new_cols


def free_resolution(a):
    """Finite free resolution of R/a, length at most the number of variables.

    Unit entries are pruned, so on homogeneous input the resolution is
    minimal.  Exceeding the Hilbert length bound would be an internal defect
    and aborts loudly.
    """
    gens = tuple(dict.fromkeys(g for g in a.gens if not g.is_zero()))
    return memo("resolution", (a.ring, gens), lambda: _resolve(a, gens))


def _resolve(a, gens):
    ring = a.ring
    if any(g.is_constant() for g in gens) or a.is_unit():
        raise ValueError("cannot resolve the zero module R/(1)")

    diffs = []  # mutable column lists during construction
    if gens:
        diffs.append([[g] for g in gens])
        while True:
            syz = syzygy_module(diffs[-1])
            if not syz:
                break
            cols = [list(v) for v in syz]
            prev, cols = _prune_units(diffs[-1], cols, ring)
            diffs[-1] = prev
            if not cols:
                break
            diffs.append(cols)
            if len(diffs) > ring.nvars + 1:
                raise AssertionError(
                    "resolution exceeded the Hilbert syzygy bound; internal defect"
                )
        while diffs and not diffs[-1]:
            diffs.pop()

    ranks = [1] + [len(cols) for cols in diffs]
    return FreeResolution(
        ring, tuple(ranks), tuple(tuple(map(tuple, cols)) for cols in diffs)
    )


def pd_via_resolution(a):
    """Length of the minimal free resolution of R/a (homogeneous a)."""
    if not all(g.is_homogeneous() for g in a.gens):
        raise ValueError("minimal resolution requires homogeneous generators")
    return free_resolution(a).length


# -- Ext against cyclic modules -------------------------------------------------


def _module_relations(M):
    """Accept a CyclicModule-like object, an Ideal, or None (meaning R)."""
    if M is None:
        return None
    ideal = getattr(M, "defining_ideal", M)
    if isinstance(ideal, Ideal):
        return ideal
    raise TypeError("expected a cyclic module, an ideal, or None")


def _transpose_column(res, i, r):
    """Row r of d_i as a row of R^{ranks[i]} (a column of the transposed
    map)."""
    return tuple(col[r] for col in res.diffs[i - 1])


def _j_unit_vectors(ring, rank, J):
    out = []
    if J is None:
        return out
    for j in J.gens:
        if j.is_zero():
            continue
        for pos in range(rank):
            out.append(unit_vector(ring, rank, pos, j))
    return out


def _relative_kernel(res, i, J):
    """Generators of {v in R^{b_i} : d_{i+1}^T v in J * R^{b_{i+1}}}."""
    ring = res.ring
    b_i = res.ranks[i]
    if i == res.length:
        return [unit_vector(ring, b_i, pos) for pos in range(b_i)]
    b_next = res.ranks[i + 1]
    columns = [_transpose_column(res, i + 1, r) for r in range(b_i)]
    tagged = columns + _j_unit_vectors(ring, b_next, J)
    heads = (syz[:b_i] for syz in syzygy_module(tagged))
    return [head for head in heads if any(head)]


def _image_basis(res, i, J):
    """Module basis of im(d_i^T) + J*R^{b_i} inside R^{b_i}."""
    ring = res.ring
    b_i = res.ranks[i]
    gens = []
    if i >= 1:
        b_prev = res.ranks[i - 1]
        gens.extend(_transpose_column(res, i, r) for r in range(b_prev))
    gens.extend(_j_unit_vectors(ring, b_i, J))
    return module_groebner_basis(gens)


def ext_nonzero(i, a, M=None):
    """Is Ext^i(R/a, M) nonzero, for cyclic M = R/J (None means M = R)?"""
    if i < 0:
        raise ValueError("negative Ext degree")
    return _ext_nonzero(free_resolution(a), i, a, _module_relations(M))


def _ext_nonzero(res, i, a, J):
    """Ext^i(R/a, R/J) != 0, read off res, a resolution of R/a."""
    if i > res.length:
        return False
    key = (a.ring, a.gens_key(), frozenset() if J is None else J.gens_key(), i)
    return memo("ext", key, lambda: _ext_survives(res, i, J))


def _ext_survives(res, i, J):
    kernel = _relative_kernel(res, i, J)
    image = _image_basis(res, i, J)
    return any(any(module_normal_form(v, image)) for v in kernel)


def nonzero_ext_degrees(a, M=None):
    """The degrees i with Ext^i(R/a, M) != 0, ascending and lazily, all read
    off one resolution of R/a."""
    J = _module_relations(M)
    res = free_resolution(a)
    return (i for i in range(res.length + 1) if _ext_nonzero(res, i, a, J))


def grade_via_ext(a, M=None):
    """grade_M(a) = min{i : Ext^i(R/a, M) != 0}; rejected when aM = M."""
    J = _module_relations(M)
    ring = a.ring
    total_gens = list(a.gens) + (list(J.gens) if J is not None else [])
    if Ideal(ring, tuple(total_gens)).is_unit():
        raise ValueError("grade is undefined: the ideal acts as the unit on M")
    for grade in nonzero_ext_degrees(a, M):
        return grade
    raise AssertionError("every Ext degree vanished below the resolution length")
