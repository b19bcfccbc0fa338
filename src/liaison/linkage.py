"""Linkage of ideals over cyclic modules.

With M = R/J, the paper's IM, aM and IM :_M a are the ideals I + J, a + J
and (I + J) : a, and CyclicModule is the one place that builds them.  Every
predicate here reduces to exact ideal arithmetic through it: a and b are
linked by I over M iff M.colon(I, a) = M.plus_ann(b) and M.colon(I, b) =
M.plus_ann(a), geometrically linked iff additionally M.plus_ann(a) cap
M.plus_ann(b) = M.plus_ann(I).  Within one run the witness check and the
linkage test are memoized, each with the WitnessError message it raised.

cd_oracle and grade_oracle are the one places that pick a cd route and a
grade route for (a, M); the checks and the CLI ask them and nothing else.
Grade over M = R is the height of a's initial ideal, and over any other M it
is the least nonvanishing Ext degree (see grade_oracle).
"""

from .errors import RingMismatchError, WitnessError
from .groebner import Ideal, ideal_sum
from .ideal_ops import (
    ideal_contains,
    ideal_equal,
    ideal_quotient,
    intersect_ideals,
    radical_membership,
)
from .limits import memo
from .monomials import (
    associated_primes_monomial,
    cd_monomial,
    height,
    intersect_primes,
    is_monomial_ideal,
    primes_containing,
)
from .record import Record
from .resolutions import grade_via_ext


class CyclicModule(Record):
    """M = R/J for a proper ideal J, so Ann M = J.

    IM = (I + J)M and IM :_M a = ((I + J) : a)M, so the submodules that
    linkage over M compares are named by ideals; plus_ann, kills and colon
    are the one place that builds those ideals from J.
    """

    def __init__(self, ring, defining_ideal):
        self._set(locals())
        if defining_ideal.ring != ring:
            raise RingMismatchError("defining ideal from a different ring")
        if defining_ideal.is_unit():
            raise ValueError("R/J must be a nonzero module")

    def is_free(self):
        return self.defining_ideal.is_zero()

    def plus_ann(self, I):
        """I + Ann M, the largest ideal q with qM = IM: I itself over M = R."""
        return I if self.is_free() else ideal_sum(I, self.defining_ideal)

    def kills(self, I):
        """Is IM = M, that is, is I + Ann M the unit ideal?"""
        return self.plus_ann(I).is_unit()

    def colon(self, I, a):
        """IM :_M a as the ideal (I + Ann M) : a; a must be nonzero."""
        return ideal_quotient(self.plus_ann(I), a)

    def __repr__(self):
        j = self.defining_ideal
        return f"R/({', '.join(repr(g) for g in j.gens) or '0'})"


def free_module(ring):
    """M = R."""
    return CyclicModule(ring, Ideal(ring, ()))


class RegularSequenceWitness(Record):
    """An ordered M-regular sequence generating the linking ideal; empty for
    the zero ideal."""

    def __init__(self, elements):
        self._set(locals())

    @property
    def length(self):
        return len(self.elements)


EMPTY_WITNESS = RegularSequenceWitness(())


def is_regular_sequence(xs, M):
    """Is xs an M-regular sequence, tested in the given order?

    Each step demands (x_1..x_{i-1})M :_M x_i = (x_1..x_{i-1})M, and the
    whole sequence must keep (x_1..x_t)M != M.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("the empty sequence is not tested here")
    ring = M.ring
    for x in xs:
        if x.ring != ring:
            raise RingMismatchError("sequence element from a different ring")
    for i, x in enumerate(xs):
        if x.is_zero():
            return False
        prefix = Ideal(ring, tuple(xs[:i]))
        if not ideal_equal(M.colon(prefix, Ideal(ring, (x,))), M.plus_ann(prefix)):
            return False
    return not M.kills(Ideal(ring, tuple(xs)))


def validate_witness(witness, I, M):
    """Check that the witness generates I and is M-regular; raise otherwise."""
    key = (M.ring, witness.elements, I.gens_key(), M.defining_ideal.gens_key())
    error = memo("witness", key, lambda: _witness_error(witness, I, M))
    if error is not None:
        raise WitnessError(error)


def _witness_error(witness, I, M):
    """Why the witness is invalid for I over M, or None when it is valid."""
    if not ideal_equal(Ideal(M.ring, witness.elements), I):
        reason = "witness elements do not generate the linking ideal"
    elif witness.length == 0:
        reason = None if I.is_zero() else "nonzero linking ideal with an empty witness"
    elif not is_regular_sequence(witness.elements, M):
        reason = "witness is not an M-regular sequence"
    else:
        reason = None
    return reason and f"regular-sequence witness: {reason}"


def _check_link_preconditions(a, b, I, M, witness):
    validate_witness(witness, I, M)
    for name, ideal in (("a", a), ("b", b)):
        if ideal.is_zero():
            raise WitnessError(f"{name} must be a nonzero ideal")
        if M.kills(ideal):
            raise WitnessError(f"{name}M = M: {name}+J is the unit ideal")
    for target in (a, b):
        if not ideal_contains(M.plus_ann(target), I):
            raise WitnessError("I is not contained in a and b modulo J")


def is_linked(a, b, I, M, witness):
    """a ~ b by I over M: IM :_M a = bM and IM :_M b = aM."""
    gens_keys = (x.gens_key() for x in (a, b, I, M.defining_ideal))
    key = (M.ring, *gens_keys, witness.elements)
    linked = memo("linked", key, lambda: _linked(a, b, I, M, witness))
    if isinstance(linked, str):
        raise WitnessError(linked)
    return linked


def _linked(a, b, I, M, witness):
    """Whether a ~ b by I over M, or why the preconditions fail."""
    try:
        _check_link_preconditions(a, b, I, M, witness)
    except WitnessError as exc:
        return str(exc)
    linked = ideal_equal(M.colon(I, a), M.plus_ann(b))
    return linked and ideal_equal(M.colon(I, b), M.plus_ann(a))


def is_geometrically_linked(a, b, I, M, witness):
    """Linked, and additionally aM cap bM = IM."""
    if not is_linked(a, b, I, M, witness):
        return False
    lhs = intersect_ideals(M.plus_ann(a), M.plus_ann(b))
    return ideal_equal(lhs, M.plus_ann(I))


def candidate_link(a, I, M, witness):
    """b := IM :_M a, the only possible linkage partner of a by I over M."""
    validate_witness(witness, I, M)
    if not any(a.gens):
        raise WitnessError("a must be a nonzero ideal")
    if not ideal_contains(M.plus_ann(a), I):
        raise WitnessError("I is not contained in a modulo J")
    return M.colon(I, a)


def s_membership(a, I, M, witness):
    """Is a fixed by the double colon, i.e. IM :_R (IM :_M a) = a?

    Membership in the set of ideals strictly containing I with
    a = IM : (IM : a); the degenerate I = a case is rejected.
    """
    validate_witness(witness, I, M)
    aJ = M.plus_ann(a)
    if ideal_equal(M.plus_ann(I), aJ):
        raise ValueError("s-membership needs I strictly inside a")
    inner = M.colon(I, a)
    if not any(inner.gens):
        return aJ.is_unit()  # IM :_R 0 is all of R
    return ideal_equal(M.colon(I, inner), aJ)


def aprime_construct(a, I, M, witness):
    """The smallest radical double-colon-fixed ideal over a: the intersection
    of the associated primes of M/IM that contain a."""
    validate_witness(witness, I, M)
    IJ = M.plus_ann(I)
    if not is_monomial_ideal(IJ):
        raise ValueError("associated primes need monomial I + J")
    selected = primes_containing(a, associated_primes_monomial(IJ).all_primes)
    if not selected:
        raise ValueError("no associated prime of M/IM contains a")
    return intersect_primes(M.ring, selected)


def cd_principal_cyclic(f, M):
    """cd((f), M) for cyclic M: zero iff f is nilpotent on M, else one.

    Torsion is (J : f^inf)/J; f in sqrt(J) collapses it to all of M (cd 0),
    and otherwise the quotient by torsion is a nonzero graded module on which
    f is a nonzerodivisor with fM != M, so exactly H^1 survives.
    """
    if f.is_zero():
        raise ValueError("cd of the zero element")
    if radical_membership(f, M.defining_ideal):
        return 0
    if M.kills(Ideal(M.ring, (f,))):
        raise ValueError("(f) + J is the unit ideal and f is not nilpotent on M")
    return 1


def cd_oracle(a, M):
    """Exact cd(a, M) when one of the two oracles applies, else None:
    monomial a over M = R, or principal a over any cyclic M.

    The only cd entry point: the checks and the CLI ask it and nothing else."""
    if M.is_free() and is_monomial_ideal(a) and not a.is_zero():
        return cd_monomial(a)
    gb = a.groebner()
    if len(gb) == 1:
        return cd_principal_cyclic(gb[0], M)
    return None


def grade_oracle(a, M):
    """grade(a, M) for cyclic M, rejected with ValueError when aM = M.

    Over M = R it is height(a), from the leading monomials of a's reduced
    basis: R is Cohen-Macaulay, so grade equals height there, and the height
    needs only that basis, where Ext builds a free resolution of R/a.  Over
    M = R/J it is grade_via_ext, which reads Ext^i(R/a, R/J) and needs no
    hypothesis on J; a height formula there needs R/J Cohen-Macaulay, which
    nothing here decides yet.

    The only grade entry point: the checks and the CLI ask it and nothing
    else."""
    if M.is_free() and not a.is_unit():
        return height(a)
    return grade_via_ext(a, M)


class LinkageInstance(Record):
    """One concrete linkage situation: a (and optionally b) against I over M,
    with the regular-sequence witness for I; alternate, an (ideal, witness)
    pair or None, is a second linking ideal that only APRIME_T7 reads."""

    def __init__(self, ring, module, a, I, witness, b=None, alternate=None):
        self._set(locals())

    def partner(self):
        """b when declared, else the double-colon candidate."""
        if self.b is not None:
            return self.b
        return candidate_link(self.a, self.I, self.module, self.witness)
