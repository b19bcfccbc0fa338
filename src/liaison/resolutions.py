"""Free resolutions, Ext against cyclic modules, grade, and projective
dimension.

Resolutions are built by iterated syzygy computation; unit (nonzero constant)
entries are pruned as they appear, which splits off trivial exact summands and
keeps the Hilbert length bound enforceable.  On homogeneous input the pruned
resolution is minimal.  Ext and grade take the module, a cyclic M = R/J
(linkage.CyclicModule; free_module(ring) is M = R): Ext^i(R/a, R/J) is read
off the transposed resolution of R/a with kernels taken relative to
J-multiples.  Within one run (limits.run_context), Ext is memoized as one
entry per (ring, a, J), keyed on the sets of nonzero generators of a and J
and holding every nonzero degree; resolutions are not memoized, since every
caller in a run goes through that entry.

grade_via_ext is the general grade route: it holds for every cyclic M, and
linkage.grade_oracle takes it for M = R/J != R.  Over M = R the oracle takes
the height of a's initial ideal instead, which needs no resolution; there
grade_via_ext stays the tests' reference.  nonzero_ext_degrees is the only
source of Ext degrees for the checks, so the vanishing pattern compares Ext
with a grade found another way.
"""

from .groebner import (
    ideal_rows,
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


def _prune_units(prev_cols, cols):
    """Split off the trivial summands that unit (nonzero constant) entries
    signal, until no unit is left.

    cols holds the columns of d_{i+1} and prev_cols those of d_i, as tuples
    of coordinates.  A unit u at row r of column c makes every other column
    lose (its row-r entry / u) * column c; then column c, row r of every
    column and column r of d_i are dropped.  Returns the pruned
    (prev_cols, cols).
    """
    while True:
        pivot = next(
            ((c, r) for c, col in enumerate(cols) for r, e in enumerate(col)
             if e and e.is_constant()),
            None,
        )
        if pivot is None:
            return prev_cols, cols
        c, r = pivot
        col = cols.pop(c)
        # a nonzero constant has the one term of exponent zero
        inv = col[r].ring.field.inv(col[r].terms[0][1])
        for b, other in enumerate(cols):
            if other[r]:
                factor = other[r].scale(inv)
                cols[b] = tuple(e - factor * p for e, p in zip(other, col))
        cols = [other[:r] + other[r + 1 :] for other in cols]
        prev_cols = prev_cols[:r] + prev_cols[r + 1 :]


def free_resolution(a):
    """Finite free resolution of R/a, length at most the number of variables.

    Unit entries are pruned, so on homogeneous input the resolution is
    minimal.  Exceeding the Hilbert length bound would be an internal defect
    and aborts loudly.
    """
    return _resolve(a, tuple(dict.fromkeys(g for g in a.gens if not g.is_zero())))


def _resolve(a, gens):
    ring = a.ring
    if any(g.is_constant() for g in gens) or a.is_unit():
        raise ValueError("cannot resolve the zero module R/(1)")
    diffs = []
    cols = [(g,) for g in gens]
    # Pruning drops only columns that are combinations of the others, so a
    # nonzero image keeps a column: no differential comes out empty, and the
    # loop ends at the first map with no syzygies left after pruning.
    while cols:
        if len(diffs) > ring.nvars:
            raise AssertionError("resolution exceeded the Hilbert syzygy bound; internal defect")
        prev, cols = _prune_units(cols, syzygy_module(cols))
        diffs.append(tuple(prev))
    return FreeResolution(ring, (1, *map(len, diffs)), tuple(diffs))


def pd_via_resolution(a):
    """Length of the minimal free resolution of R/a (homogeneous a)."""
    if not all(g.is_homogeneous() for g in a.gens):
        raise ValueError("minimal resolution requires homogeneous generators")
    return free_resolution(a).length


# -- Ext against cyclic modules -------------------------------------------------


def _transpose_column(res, i, r):
    """Row r of d_i as a row of R^{ranks[i]} (a column of the transposed
    map)."""
    return tuple(col[r] for col in res.diffs[i - 1])


def _relative_kernel(res, i, J):
    """Generators of {v in R^{b_i} : d_{i+1}^T v in J * R^{b_{i+1}}}."""
    ring = res.ring
    b_i = res.ranks[i]
    if i == res.length:
        return [unit_vector(ring, b_i, pos) for pos in range(b_i)]
    b_next = res.ranks[i + 1]
    columns = [_transpose_column(res, i + 1, r) for r in range(b_i)]
    return syzygy_module(columns, [J] * b_next)


def _image_basis(res, i, J):
    """Module basis of im(d_i^T) + J*R^{b_i} inside R^{b_i}."""
    ring = res.ring
    b_i = res.ranks[i]
    gens = []
    if i >= 1:
        b_prev = res.ranks[i - 1]
        gens.extend(_transpose_column(res, i, r) for r in range(b_prev))
    gens.extend(ideal_rows(ring, [J] * b_i))
    return module_groebner_basis(gens)


def ext_nonzero(i, a, M):
    """Is Ext^i(R/a, M) nonzero, for cyclic M = R/J?"""
    if i < 0:
        raise ValueError("negative Ext degree")
    return i in nonzero_ext_degrees(a, M)


def _ext_nonzero(res, i, J):
    """Ext^i(R/a, R/J) != 0, read off res, a resolution of R/a: some
    generator of the relative kernel lies outside the image."""
    image = _image_basis(res, i, J)
    return any(any(module_normal_form(v, image)) for v in _relative_kernel(res, i, J))


def nonzero_ext_degrees(a, M):
    """The degrees i with Ext^i(R/a, M) != 0, ascending, all read off one
    resolution of R/a; memoized for one run on the ring and the nonzero
    generators of a and Ann M."""
    J = M.defining_ideal

    def degrees():
        res = free_resolution(a)
        return tuple(i for i in range(res.length + 1) if _ext_nonzero(res, i, J))

    return memo("ext", (a.ring, a.gens_key(), J.gens_key()), degrees)


def grade_via_ext(a, M):
    """grade_M(a) = min{i : Ext^i(R/a, M) != 0}; rejected when aM = M."""
    if M.kills(a):
        raise ValueError("grade is undefined: the ideal acts as the unit on M")
    for grade in nonzero_ext_degrees(a, M):
        return grade
    raise AssertionError("every Ext degree vanished below the resolution length")
