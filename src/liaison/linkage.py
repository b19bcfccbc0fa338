"""Linkage of ideals over cyclic modules.

With M = R/J, the module colon IM :_M a equals (q/J)M for q = (I+J) : a, so
every predicate here reduces to exact ideal arithmetic: a and b are linked by
I over M iff (I+J) : a = b+J and (I+J) : b = a+J, geometrically linked iff
additionally (a+J) cap (b+J) = I+J.
"""

from .errors import RingMismatchError, WitnessError
from .groebner import Ideal, ideal_sum
from .ideal_ops import (
    ideal_equal,
    ideal_quotient,
    intersect_ideals,
    radical_membership,
)
from .limits import memo
from .monomials import (
    associated_primes_monomial,
    cd_monomial,
    intersect_primes,
    is_monomial_ideal,
    monomial_exponents,
    prime_ideal,
)
from .record import Record
from .resolutions import grade_via_ext, pd_via_resolution


class CyclicModule(Record):
    """M = R/J for a proper ideal J; Ann M = J and aM != M iff a+J is proper."""

    def __init__(self, ring, defining_ideal):
        self._set(locals())
        if defining_ideal.ring != ring:
            raise RingMismatchError("defining ideal from a different ring")
        if defining_ideal.is_unit():
            raise ValueError("R/J must be a nonzero module")

    def is_free(self):
        return self.defining_ideal.is_zero()

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

    Each step demands ((x_1..x_{i-1}) + J) : (x_i) = (x_1..x_{i-1}) + J, and
    the whole sequence must keep (x_1..x_t)M != M.
    """
    xs = list(xs)
    if not xs:
        raise ValueError("the empty sequence is not tested here")
    ring = M.ring
    for x in xs:
        if x.ring != ring:
            raise RingMismatchError("sequence element from a different ring")
    J = M.defining_ideal
    for i, x in enumerate(xs):
        if x.is_zero():
            return False
        prefix = Ideal(ring, tuple(xs[:i]) + J.gens)
        colon = ideal_quotient(prefix, Ideal(ring, (x,)))
        if not ideal_equal(colon, prefix):
            return False
    if Ideal(ring, tuple(xs) + J.gens).is_unit():
        return False
    return True


def validate_witness(witness, I, M):
    """Check that the witness generates I and is M-regular; raise otherwise."""
    key = (M.ring, witness.elements, I.gens_key(), M.defining_ideal.gens_key())
    error = memo("witness", key, lambda: _witness_error(witness, I, M))
    if error is not None:
        raise WitnessError(error)


def _witness_error(witness, I, M):
    """Why the witness is invalid for I over M, or None when it is valid."""
    if not ideal_equal(Ideal(M.ring, witness.elements), I):
        return "witness elements do not generate the linking ideal"
    if witness.length == 0:
        return None if I.is_zero() else "nonzero linking ideal with an empty witness"
    if not is_regular_sequence(witness.elements, M):
        return "witness is not an M-regular sequence"
    return None


def module_colon(I, a, M):
    """The unique largest ideal q with qM = IM :_M a, namely (I + J) : a."""
    if a.is_zero():
        raise ValueError("module colon by the zero ideal")
    J = M.defining_ideal
    return ideal_quotient(ideal_sum(I, J), a)


def _check_link_preconditions(a, b, I, M, witness):
    validate_witness(witness, I, M)
    J = M.defining_ideal
    ring = M.ring
    for name, ideal in (("a", a), ("b", b)):
        if ideal.is_zero():
            raise WitnessError(f"{name} must be a nonzero ideal")
        if Ideal(ring, ideal.gens + J.gens).is_unit():
            raise WitnessError(f"{name}M = M: {name}+J is the unit ideal")
    for target in (a, b):
        shifted = ideal_sum(target, J)
        if not all(shifted.contains(g) for g in I.gens):
            raise WitnessError("I is not contained in a and b modulo J")


def is_linked(a, b, I, M, witness):
    """a ~ b by I over M: IM :_M a = bM and IM :_M b = aM."""
    _check_link_preconditions(a, b, I, M, witness)
    J = M.defining_ideal
    IJ = ideal_sum(I, J)
    return ideal_equal(ideal_quotient(IJ, a), ideal_sum(b, J)) and ideal_equal(
        ideal_quotient(IJ, b), ideal_sum(a, J)
    )


def is_geometrically_linked(a, b, I, M, witness):
    """Linked, and additionally aM cap bM = IM."""
    if not is_linked(a, b, I, M, witness):
        return False
    J = M.defining_ideal
    lhs = intersect_ideals(ideal_sum(a, J), ideal_sum(b, J))
    return ideal_equal(lhs, ideal_sum(I, J))


def candidate_link(a, I, M, witness):
    """b := IM :_M a, the only possible linkage partner of a by I over M."""
    validate_witness(witness, I, M)
    J = M.defining_ideal
    shifted = ideal_sum(a, J)
    if not all(shifted.contains(g) for g in I.gens):
        raise WitnessError("I is not contained in a modulo J")
    return module_colon(I, a, M)


def s_membership(a, I, M, witness):
    """Is a fixed by the double colon, i.e. IM :_R (IM :_M a) = a?

    Membership in the set of ideals strictly containing I with
    a = IM : (IM : a); the degenerate I = a case is rejected.
    """
    validate_witness(witness, I, M)
    J = M.defining_ideal
    IJ = ideal_sum(I, J)
    aJ = ideal_sum(a, J)
    if ideal_equal(IJ, aJ):
        raise ValueError("s-membership needs I strictly inside a")
    inner = ideal_quotient(IJ, a)
    return ideal_equal(ideal_quotient(IJ, inner), aJ)


def aprime_construct(a, I, M, witness):
    """The smallest radical double-colon-fixed ideal over a: the intersection
    of the associated primes of M/IM that contain a."""
    validate_witness(witness, I, M)
    ring = M.ring
    IJ = ideal_sum(I, M.defining_ideal)
    if not is_monomial_ideal(IJ):
        raise ValueError("associated primes need monomial I + J")
    ass = associated_primes_monomial(IJ)
    selected = []
    for p in sorted(ass.all_primes, key=lambda p: (len(p), sorted(p))):
        pid = prime_ideal(ring, p)
        if all(pid.contains(g) for g in a.gens):
            selected.append(p)
    if not selected:
        raise ValueError("no associated prime of M/IM contains a")
    return intersect_primes(ring, selected)


def cd_principal_cyclic(f, M):
    """cd((f), M) for cyclic M: zero iff f is nilpotent on M, else one.

    Torsion is (J : f^inf)/J; f in sqrt(J) collapses it to all of M (cd 0),
    and otherwise the quotient by torsion is a nonzero graded module on which
    f is a nonzerodivisor with fM != M, so exactly H^1 survives.
    """
    if f.is_zero():
        raise ValueError("cd of the zero element")
    J = M.defining_ideal
    if radical_membership(f, J):
        return 0
    ring = M.ring
    if Ideal(ring, (f,) + J.gens).is_unit():
        raise ValueError("(f) + J is the unit ideal and f is not nilpotent on M")
    return 1


class InvariantRecord(Record):
    """Grade, cd (exact or interval) and optional pd for one (a, M)."""

    def __init__(self, grade, cd_lower, cd_upper, pd):
        self._set(locals())
        if grade > cd_lower:
            raise ValueError("grade exceeds the cd lower bound")

    @property
    def cd_exact(self):
        return self.cd_lower if self.cd_lower == self.cd_upper else None


def _minimal_generator_count(a):
    if is_monomial_ideal(a):
        return len(monomial_exponents(a))
    return len([g for g in dict.fromkeys(a.gens) if not g.is_zero()])


def cd_oracle(a, M):
    """Exact cd(a, M) when one of the two oracles applies, else None:
    monomial a over M = R, or principal a over any cyclic M."""
    if M.is_free() and is_monomial_ideal(a) and not a.is_zero():
        return cd_monomial(a)
    gb = a.groebner()
    if len(gb) == 1:
        return cd_principal_cyclic(gb[0], M)
    return None


def cd_bounds(a, M):
    """Grade plus the best available cd information for (a, M).

    cd is exact via cd_monomial (monomial a, M = R) or the principal rule;
    otherwise the interval [grade, min(#minimal generators, dim R)].
    """
    ring = M.ring
    if a.is_unit():
        raise ValueError("cd of the unit ideal is undefined")
    J = M.defining_ideal
    if Ideal(ring, a.gens + J.gens).is_unit():
        raise ValueError("aM = M: cd is undefined")
    grade = grade_via_ext(a, M)
    exact = cd_oracle(a, M)
    if exact is not None:
        lo = hi = exact
    else:
        lo = grade
        hi = min(_minimal_generator_count(a), ring.dim)
    pd = None
    if M.is_free() and all(g.is_homogeneous() for g in a.gens):
        pd = pd_via_resolution(a)
    return InvariantRecord(grade=grade, cd_lower=lo, cd_upper=hi, pd=pd)


class LinkageInstance(Record):
    """One concrete linkage situation: a (and optionally b) against I over M,
    with the regular-sequence witness for I."""

    def __init__(self, ring, module, a, I, witness, b=None, name=""):
        self._set(locals())

    def partner(self):
        """b when declared, else the double-colon candidate."""
        if self.b is not None:
            return self.b
        return candidate_link(self.a, self.I, self.module, self.witness)
