"""Free resolutions, presented modules, Ext against cyclic modules, grade,
and projective dimension.

Resolutions are built by iterated syzygy computation; unit (nonzero constant)
entries are pruned as they appear, which splits off trivial exact summands and
keeps the Hilbert length bound enforceable.  On homogeneous input the pruned
resolution is minimal.  Ext^i(R/a, R/J) is read off the transposed resolution
of R/a with kernels taken relative to J-multiples.
"""

from dataclasses import dataclass, field as dc_field

from .groebner import (
    FreeModuleElement,
    Ideal,
    module_groebner_basis,
    module_normal_form,
    syzygy_module,
    unit_vector,
)


@dataclass(frozen=True)
class PresentedModule:
    """Cokernel of the map sending relation generators into R^rank."""

    ring: object
    rank: int
    relations: tuple

    def __post_init__(self):
        for rel in self.relations:
            if rel.rank != self.rank:
                raise ValueError("relation rank does not match the module")


def is_zero_module(N):
    """True iff every unit coordinate vector lies in the relation submodule."""
    if N.rank == 0:
        return True
    gb = module_groebner_basis(list(N.relations))
    for pos in range(N.rank):
        e = unit_vector(N.ring, N.rank, pos)
        if not module_normal_form(e, gb).is_zero():
            return False
    return True


@dataclass
class FreeResolution:
    """Chain of free modules F_0 <- F_1 <- ... resolving R/a.

    diffs[i] holds the columns of d_{i+1} as vectors in R^{ranks[i]};
    consecutive maps compose to zero exactly.
    """

    ring: object
    ranks: tuple
    diffs: tuple
    minimal: bool = False
    _ext_cache: dict = dc_field(default_factory=dict, repr=False, compare=False)

    @property
    def length(self):
        return len(self.diffs)


def _apply_columns(cols, vec):
    """Image of vec under the map whose columns are cols."""
    ring = vec.ring
    acc = [ring.zero] * (cols[0].rank if cols else 0)
    for coeff_poly, col in zip(vec.coords, cols):
        if not coeff_poly.is_zero():
            acc = [a + coeff_poly * b for a, b in zip(acc, col.coords)]
    return FreeModuleElement(ring, acc)


def _prune_units(prev_cols, cols, ring):
    """Split off every trivial summand signalled by a unit (nonzero constant)
    entry.

    cols is a mutable list of mutable coordinate lists (the columns of
    d_{i+1}); prev_cols the columns of d_i or None.  A unit at (row r,
    column c) makes every other column b lose (b[r]/u) * column c, after
    which row r, column c, and column r of the previous matrix are dead.
    Dead rows and columns are only marked during elimination and compacted
    once at the end, which keeps the whole pass near-linear in the number of
    nonzero entries.
    """
    if not cols:
        return prev_cols, cols
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
    new_prev = prev_cols
    if prev_cols is not None:
        new_prev = [prev_cols[r] for r in live_rows]
    return new_prev, new_cols


def free_resolution(a, minimal=False):
    """Finite free resolution of R/a, length at most the number of variables.

    Unit entries are always pruned; with minimal=True the input must be
    homogeneous (constant-free then means minimal).  Exceeding the Hilbert
    length bound would be an internal defect and aborts loudly.
    """
    ring = a.ring
    if a._res is not None:
        res = a._res
        if minimal and not res.minimal:
            raise ValueError("minimal resolution requires homogeneous generators")
        return res
    gens = []
    for g in a.gens:
        if g.is_zero() or g in gens:
            continue
        gens.append(g)
    homogeneous = all(g.is_homogeneous() for g in gens)
    if minimal and not homogeneous:
        raise ValueError("minimal resolution requires homogeneous generators")
    if any(g.is_constant() for g in gens) or a.is_unit():
        raise ValueError("cannot resolve the zero module R/(1)")

    diffs = []  # mutable column lists during construction
    if gens:
        diffs.append([[g] for g in gens])
        while True:
            vectors = [FreeModuleElement(ring, tuple(col)) for col in diffs[-1]]
            syz = syzygy_module(vectors)
            if not syz:
                break
            cols = [list(v.coords) for v in syz]
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
    res = FreeResolution(
        ring,
        tuple(ranks),
        tuple(
            tuple(FreeModuleElement(ring, tuple(col)) for col in cols)
            for cols in diffs
        ),
        minimal=homogeneous,
    )
    a._res = res
    return res


def pd_via_resolution(a):
    """Length of the minimal free resolution of R/a (homogeneous a)."""
    return free_resolution(a, minimal=True).length


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
    """Row r of d_i viewed as a vector in R^{ranks[i]} (a column of the
    transposed map)."""
    cols = res.diffs[i - 1]
    return FreeModuleElement(res.ring, tuple(col.coords[r] for col in cols))


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
    kernel = []
    for syz in syzygy_module(tagged):
        head = FreeModuleElement(ring, syz.coords[:b_i])
        if not head.is_zero():
            kernel.append(head)
    return kernel


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
    J = _module_relations(M)
    res = free_resolution(a)
    if i > res.length:
        return False
    jkey = (i, None if J is None else J.groebner())
    cached = res._ext_cache.get(jkey)
    if cached is not None:
        return cached
    kernel = _relative_kernel(res, i, J)
    image = _image_basis(res, i, J)
    answer = False
    for v in kernel:
        if not module_normal_form(v, image).is_zero() if image else not v.is_zero():
            answer = True
            break
    res._ext_cache[jkey] = answer
    return answer


def ext_presented(i, a, M=None):
    """Ext^i(R/a, M) as a presented module on the relative-kernel generators."""
    if i < 0:
        raise ValueError("negative Ext degree")
    J = _module_relations(M)
    res = free_resolution(a)
    ring = res.ring
    if i > res.length:
        return PresentedModule(ring, 0, ())
    kernel = _relative_kernel(res, i, J)
    if not kernel:
        return PresentedModule(ring, 0, ())
    b_i = res.ranks[i]
    image_gens = []
    if i >= 1:
        image_gens = [_transpose_column(res, i, r) for r in range(res.ranks[i - 1])]
    tagged = kernel + image_gens + _j_unit_vectors(ring, b_i, J)
    relations = []
    for syz in syzygy_module(tagged):
        head = FreeModuleElement(ring, syz.coords[: len(kernel)])
        if not head.is_zero():
            relations.append(head)
    return PresentedModule(ring, len(kernel), tuple(relations))


def grade_via_ext(a, M=None):
    """grade_M(a) = min{i : Ext^i(R/a, M) != 0}; rejected when aM = M."""
    J = _module_relations(M)
    ring = a.ring
    total_gens = list(a.gens) + (list(J.gens) if J is not None else [])
    if Ideal(ring, tuple(total_gens)).is_unit():
        raise ValueError("grade is undefined: the ideal acts as the unit on M")
    res = free_resolution(a)
    for i in range(res.length + 1):
        if ext_nonzero(i, a, M):
            return i
    raise AssertionError("every Ext degree vanished below the resolution length")
