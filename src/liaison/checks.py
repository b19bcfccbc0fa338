"""One verdict-producing check per statement in scope, plus the suite runner.

Every check recomputes both sides of its identity from independent oracles
and gates on its hypotheses: a verdict is `holds`/`fails` only when every
hypothesis is satisfied, `inapplicable` (with the violated hypothesis named)
otherwise.  The one quantity that is reported but never computed is the
cohomological dimension of a local-cohomology module; the checks record the
value the cd formula implies for it.

A check that decides on several clauses records them in a `_Details`: each
clause is stated once, by `clause(key, holds)`, which writes its value into
the details and ANDs it into `ok`.  So the verdict holds exactly when every
clause it recorded holds; a clause recorded as "skipped (<reason>)" is a plain
detail and decides nothing.  Every detail value is a list, an int, a bool, a
str or None, and reports write the details as they are.

The views L1, L5, C3_E3 and C4 ask for one clause of L07, T8_MV, T5_CD or
APRIME_T7 alone and run the parent's clause code; a clause function takes the
key to record under, and L5 and C3_E3 pass None, as their reports show none.
"""

import time
from enum import Enum

from . import limits
from .errors import ResourceLimitError, WitnessError
from .groebner import Ideal, ideal_sum, single_term_exponents
from .ideal_ops import ideal_contains, ideal_equal, intersect_ideals, radicals_equal
from .linkage import (
    CyclicModule,
    RegularSequenceWitness,
    aprime_construct,
    candidate_link,
    cd_oracle,
    check_link_preconditions,
    free_module,
    grade_oracle,
    is_geometrically_linked,
    is_linked,
    s_membership,
    validate_witness,
)
from .monomials import (
    associated_primes_monomial,
    intersect_primes,
    is_monomial_ideal,
    primes_containing,
)
from .record import Record
from .resolutions import nonzero_ext_degrees


class CheckId(Enum):
    L07 = "L07"
    L1 = "L1"
    T8_MV = "T8_MV"
    L5 = "L5"
    GRADE_FORMULA_T = "GRADE_FORMULA_T"
    T5_CD = "T5_CD"
    C3_E3 = "C3_E3"
    APRIME_T7 = "APRIME_T7"
    C4 = "C4"
    S_REFLEX = "S_REFLEX"
    C11_GLOBAL = "C11_GLOBAL"
    T1_GLOBAL = "T1_GLOBAL"
    C1_WITNESS = "C1_WITNESS"


GLOBAL_CHECKS = frozenset(
    {CheckId.C11_GLOBAL, CheckId.T1_GLOBAL, CheckId.C1_WITNESS}
)

HOLDS = "holds"
FAILS = "fails"
INAPPLICABLE = "inapplicable"


class Verdict(Record):
    def __init__(self, check, status, details, witness, millis):
        self._set(locals())


class Inapplicable(Exception):
    """Raised inside a check when one of its hypotheses, named by the
    message, is violated."""


class _Details(dict):
    """The details of one verdict, and whether its clauses hold so far."""

    ok = True
    decided = False  # has any clause been recorded?

    def clause(self, key, holds):
        """Record one clause; key None decides without a detail (L5 and
        C3_E3 report their decision, not their parents' keys)."""
        if key is not None:
            self[key] = holds
        self.ok = self.ok and holds
        self.decided = True


def gens_str(I):
    """The reduced Groebner basis of I as text, "0" for the zero ideal."""
    gb = I.groebner()
    return ", ".join(repr(g) for g in gb) if gb else "0"


def _primes_str(primes):
    return sorted(sorted(p) for p in primes)


def _require_linked(inst):
    b = inst.partner()
    if not is_linked(inst.a, b, inst.I, inst.module, inst.witness):
        raise Inapplicable("a and b are not linked by I over M")
    return b


def _require_geometric(inst):
    b = inst.partner()
    if not is_geometrically_linked(inst.a, b, inst.I, inst.module, inst.witness):
        raise Inapplicable("a and b are not geometrically linked by I over M")
    return b


def _require_proper_sum(inst, b):
    """a + b, when (a + b)M != M; otherwise every cd and grade of a + b on M
    is undefined."""
    ab = ideal_sum(inst.a, b)
    if inst.module.kills(ab):
        raise Inapplicable("a + b acts as the unit ideal on M")
    return ab


def _require_monomial(*ideals):
    for I in ideals:
        if not is_monomial_ideal(I):
            raise Inapplicable("non-monomial data: associated primes unavailable")


def _unmixed_ass(inst):
    """Ass(M/IM) for monomial I + J with no embedded prime, together with the
    primes containing a and the excluded primes (those not containing a)."""
    IJ = inst.module.plus_ann(inst.I)
    _require_monomial(IJ)
    ass = associated_primes_monomial(IJ)
    if not ass.is_unmixed():
        raise Inapplicable("Ass(M/IM) has an embedded prime")
    in_v_a = primes_containing(inst.a, ass.all_primes)
    return ass.all_primes, in_v_a, set(ass.all_primes) - in_v_a


def _aprime(inst, I, witness):
    """a' of the instance from the linking ideal I (with monomial I + J), when
    the witness is a maximal regular sequence in a and I lies in a + J; then
    some associated prime of M/IM contains a, by prime avoidance."""
    if grade_oracle(inst.a, inst.module) != witness.length:
        raise Inapplicable("witness is not a maximal regular sequence in a")
    if not ideal_contains(inst.module.plus_ann(inst.a), I):
        raise Inapplicable("the linking ideal is not contained in a modulo J")
    return aprime_construct(inst.a, I, inst.module, witness)


# -- structure checks (radical identities and Ass containment) ------------------


def check_structure(inst):
    """Radical identities of linked pairs: sqrt(I+J) = sqrt((a cap b)+J); for
    I = 0 also sqrt(J:a) = sqrt(b+J); with monomial data, the Ass containment
    Ass(M/aM) within Ass(M/IM)."""
    b = _require_linked(inst)
    M = inst.module
    lhs = M.plus_ann(inst.I)
    rhs = M.plus_ann(intersect_ideals(inst.a, b))
    d = _Details(radical_I_plus_ann=gens_str(lhs), radical_ab_plus_ann=gens_str(rhs))
    d.clause("radicals_agree", radicals_equal(lhs, rhs))

    if inst.I.is_zero():
        ann_colon = M.colon(inst.I, inst.a)
        d["zero_link_colon"] = gens_str(ann_colon)
        d.clause("zero_link_radicals_agree", radicals_equal(ann_colon, M.plus_ann(b)))

    try:
        _ass_contained(inst, d)
    except Inapplicable:
        d["ass_containment"] = "skipped (non-monomial data)"
    return d.ok, d, {"b": gens_str(b)}


def _ass_contained(inst, d):
    """Ass(M/aM) within Ass(M/IM), for monomial a + J and I + J."""
    aJ = inst.module.plus_ann(inst.a)
    IJ = inst.module.plus_ann(inst.I)
    _require_monomial(aJ, IJ)
    ass_a = associated_primes_monomial(aJ).all_primes
    ass_i = associated_primes_monomial(IJ).all_primes
    d["ass_mod_a"] = _primes_str(ass_a)
    d["ass_mod_I"] = _primes_str(ass_i)
    d.clause("ass_containment", ass_a <= ass_i)


def check_ass_containment(inst):
    """L07's `ass_containment` clause alone: Ass(M/aM) within Ass(M/IM)."""
    _require_linked(inst)
    d = _Details()
    _ass_contained(inst, d)
    return d.ok, d, None


# -- Mayer-Vietoris bound and the vanishing pattern ------------------------------


def _squarefree_monomial(I):
    """Is I a squarefree monomial ideal (the zero ideal included)?"""
    exps = single_term_exponents(I.groebner())
    return exps is not None and all(e <= 1 for m in exps for e in m)


def _pattern_clauses(inst, b, cd_ab, grade_ab, d, pattern_key=None, zero_link_key=None):
    """T8_MV's vanishing-pattern and zero-link clauses, under its keys.

    In the relative-CM setting (M = R, a squarefree, and cd(a + b) equal to
    grade_ab(), read last), Ext^i(R/a, R) is nonzero only for i in {grade a,
    grade(a + b)}: the degrees come from Ext and the grades from grade_oracle,
    which over M = R reads heights, so neither side restates the other.  For
    I = 0 and principal a, cd(a, M) = cd(a, M/bM)."""
    M = inst.module
    if cd_ab is not None and M.is_free() and _squarefree_monomial(inst.a) and cd_ab == grade_ab():
        degrees = set(nonzero_ext_degrees(inst.a, M))
        allowed = {grade_oracle(inst.a, M), cd_ab}  # here cd(a + b) = grade(a + b)
        d["nonvanishing_degrees"] = sorted(degrees)
        d["allowed_degrees"] = sorted(allowed)
        d.clause(pattern_key, degrees <= allowed)
    if inst.I.is_zero() and len(inst.a.groebner()) == 1:
        lhs = cd_oracle(inst.a, M)
        rhs = cd_oracle(inst.a, CyclicModule(inst.ring, M.plus_ann(b)))
        d["cd_a_on_M"] = lhs
        d["cd_a_on_M_mod_bM"] = rhs
        d.clause(zero_link_key, lhs == rhs)


def check_mv_bound(inst):
    """cd(a+b) <= max{cd a, cd b, t+1}, with equality when cd(a+b) >= t+1 or
    the pair is geometrically linked; plus the two-degree vanishing pattern
    and the I = 0 reduction, where their hypotheses apply."""
    b = _require_linked(inst)
    ab = _require_proper_sum(inst, b)
    M = inst.module
    t = inst.witness.length
    d = _Details(t=t)
    cd_a = cd_oracle(inst.a, M)
    cd_b = cd_oracle(b, M)
    cd_ab = cd_oracle(ab, M)
    geometric = is_geometrically_linked(inst.a, b, inst.I, M, inst.witness)
    d["geometric"] = geometric

    if None not in (cd_a, cd_b, cd_ab):
        bound = max(cd_a, cd_b, t + 1)
        d.update(cd_a=cd_a, cd_b=cd_b, cd_a_plus_b=cd_ab, bound=bound)
        holds = cd_ab <= bound
        if cd_ab >= t + 1 or geometric:
            holds = cd_ab == bound
            d["equality_required"] = True
        d.clause("bound_holds", holds)

    if cd_ab is not None:
        d["grade_a_plus_b"] = grade_oracle(ab, M)
    keys = "vanishing_pattern_holds", "zero_link_cd_equal"
    _pattern_clauses(inst, b, cd_ab, lambda: d["grade_a_plus_b"], d, *keys)
    if not d.decided:
        raise Inapplicable("no cd oracle applies to this instance")
    return d.ok, d, {"b": gens_str(b)}


def check_vanishing_pattern(inst):
    """T8_MV's `vanishing_pattern_holds` and `zero_link_cd_equal` clauses
    alone (relative CM case and I = 0 case), without their keys."""
    b = _require_linked(inst)
    ab = _require_proper_sum(inst, b)
    d = _Details()
    cd_ab = cd_oracle(ab, inst.module)
    _pattern_clauses(inst, b, cd_ab, lambda: grade_oracle(ab, inst.module), d)
    if not d.decided:
        raise Inapplicable("neither vanishing-pattern hypothesis applies")
    return d.ok, d, {"b": gens_str(b)}


# -- grade formula ----------------------------------------------------------------


def check_grade_formula(inst):
    """grade_M(a + b) = t + 1 for geometrically linked pairs."""
    b = _require_geometric(inst)
    ab = _require_proper_sum(inst, b)
    t = inst.witness.length
    grade_ab = grade_oracle(ab, inst.module)
    details = {"t": t, "grade_a_plus_b": grade_ab, "expected": t + 1}
    return grade_ab == t + 1, details, {"b": gens_str(b)}


# -- the cd formula --------------------------------------------------------------


def check_cd_formula(inst):
    """The cd membership formula with its unmixedness hypothesis.

    Branch 1 (every associated prime of M/IM contains a): cd = grade.
    Branch 2: with c the intersection of the excluded primes, the radical
    identity sqrt(I+J) = sqrt((a cap c)+J), the grade jump
    grade(a+c) >= t+1, the decomposition of sqrt(a+J) over the contained
    primes, and the implied cd of the auxiliary local-cohomology module
    (reported, never computed) at least 1.  With a geometric partner, the
    excluded primes are exactly the associated primes containing b."""
    b = _require_linked(inst)
    M = inst.module
    ring = inst.ring
    primes, in_v_a, excluded = _unmixed_ass(inst)

    d = _Details(ass_mod_I=_primes_str(primes))
    grade_a = grade_oracle(inst.a, M)
    d["grade_a"] = grade_a
    d["excluded_primes"] = _primes_str(excluded)
    cd_a = cd_oracle(inst.a, M)
    if cd_a is not None:
        d["cd_a"] = cd_a

    if not excluded:
        d["branch"] = "every associated prime contains a"
        if cd_a is None:
            raise Inapplicable("no cd oracle applies to this instance")
        d.clause("cd_equals_grade", cd_a == grade_a)
    else:
        d["branch"] = "excluded primes present"
        c = intersect_primes(ring, excluded)
        d["c"] = gens_str(c)
        d.clause(
            "radical_I_eq_a_cap_c",
            radicals_equal(M.plus_ann(inst.I), M.plus_ann(intersect_ideals(inst.a, c))),
        )
        grade_ac = grade_oracle(ideal_sum(inst.a, c), M)
        d["grade_a_plus_c"] = grade_ac
        d.clause("grade_jump_holds", grade_ac >= grade_a + 1)
        contained = intersect_primes(ring, in_v_a)
        d.clause("sqrt_a_decomposition_holds", radicals_equal(M.plus_ann(inst.a), contained))
        if cd_a is not None:
            implied = cd_a - grade_a
            d["implied_cd_of_H"] = implied
            # cd a is grade a, or grade a plus a cd of at least 1
            d.clause(None, implied >= 0)

    geometric = is_geometrically_linked(inst.a, b, inst.I, M, inst.witness)
    d["geometric"] = geometric
    if geometric:
        _excluded_eq_v_b(b, primes, excluded, d, "excluded_eq_v_b")
        if cd_a is not None:
            d["partner_invariant"] = 1 if cd_a == grade_a else cd_a - grade_a
    return d.ok, d, {"b": gens_str(b)}


def _excluded_eq_v_b(b, primes, excluded, d, key):
    """The clause, for a geometric partner b, that the excluded primes are
    exactly the associated primes containing b, recorded under key."""
    in_v_b = primes_containing(b, primes)
    d.clause(key, excluded == in_v_b)
    d["ass_in_v_b"] = _primes_str(in_v_b)


def check_e3_identity(inst):
    """T5_CD's `excluded_eq_v_b` clause alone, without its key: the
    excluded-primes identity for geometric links, with the derived cd
    formula value recorded when M is not relative Cohen-Macaulay wrt a."""
    b = _require_geometric(inst)
    primes, _, excluded = _unmixed_ass(inst)
    d = _Details(excluded_primes=_primes_str(excluded))
    _excluded_eq_v_b(b, primes, excluded, d, None)
    cd_a = cd_oracle(inst.a, inst.module)
    if cd_a is not None:
        grade_a = grade_oracle(inst.a, inst.module)
        if cd_a == grade_a:
            d["relative_cm_wrt_a"] = True
        else:
            d["derived_cd_formula_value"] = cd_a - grade_a
    return d.ok, d, {"b": gens_str(b)}


# -- a' construction --------------------------------------------------------------


def _radical_monomial_ideals_containing(a):
    """Every squarefree monomial ideal of a's ring that contains a, zero and
    unit ideals excluded; for the zero ideal a, all of them.  Exponential;
    callers gate on <= 4 vars.

    Supports are the variable bitmasks 1 .. 2^n - 1, each folded into the
    antichains it is incomparable with.  The list stays ordered by the subset
    mask of each antichain over the supports (a support's chains extend the
    list in its order, with a new highest bit), which is the order in which a
    scan over all sets of supports first meets each antichain.

    A monomial ideal contains a polynomial exactly when it contains each of
    its terms, and an antichain's ideal contains a monomial exactly when one
    of its supports lies inside the monomial's support.  So containment of a
    is decided on bitmasks, and an Ideal is built only for an antichain that
    passes."""
    ring = a.ring
    n = ring.nvars
    antichains = [()]
    for s in range(1, 1 << n):
        antichains += [c + (s,) for c in antichains if all(t & s != t for t in c)]
    term_supports = {
        sum(1 << i for i, e in enumerate(exps) if e) for g in a.gens for exps, _ in g.terms
    }
    ideals = []
    for chain in antichains[1:]:
        if all(any(t & m == t for t in chain) for m in term_supports):
            exps = sorted(tuple(s >> i & 1 for i in range(n)) for s in chain)
            ideals.append(Ideal(ring, tuple(ring.monomial(e) for e in exps)))
    return ideals


def check_aprime(inst):
    """The smallest-radical-fixed-ideal construction: containment, double-colon
    fixedness, radicality, independence of the linking ideal (against
    inst.alternate, an (ideal, witness) pair, when the file names alt_I;
    recorded as skipped when the alternate is outside the hypotheses of
    _aprime or its witness is invalid), brute-force minimality in small
    rings, and the radical identity on linked radical instances.

    Minimality, in rings of at most 4 variables and for squarefree monomial
    J = Ann M (M = R included; recorded as skipped otherwise): every
    squarefree monomial ideal cand containing a, with cand + J neither I + J
    nor the unit ideal, that the double colon fixes must contain a' modulo J
    (a' holds J).  Only an s-member with a' outside cand + J breaks this, so
    a' within cand + J is tested first and the double colon runs only on
    candidates that fail it: the same verdict, and none at all on linked
    instances over M = R, where a' = sqrt(a) (C4)."""
    M = inst.module
    ring = inst.ring
    IJ = M.plus_ann(inst.I)
    _require_monomial(IJ)
    # a's half of the linkage preconditions first, in candidate_link's words,
    # so _aprime never asks the grade of an a with aM = M; a partner that
    # fails its own half reads as no partner
    check_link_preconditions(inst.a, None, inst.I, M, inst.witness)
    try:
        b = _require_linked(inst)
    except (Inapplicable, WitnessError):
        b = None
    ap = _aprime(inst, inst.I, inst.witness)
    d = _Details(grade_a=inst.witness.length, aprime=gens_str(ap))
    d.clause("a_contained", ideal_contains(ap, inst.a))

    apJ = M.plus_ann(ap)
    if ideal_equal(IJ, apJ):
        # the construction presumes the sequence was deepened so that I sits
        # strictly inside a'; nothing to test against this linking ideal
        raise Inapplicable("a' collapses to I; the sequence is not strict")
    d.clause("s_membership", s_membership(ap, inst.I, M, inst.witness))
    d.clause("radical", _squarefree_monomial(ap))

    if inst.alternate is not None:
        alt_I, alt_witness = inst.alternate
        try:
            _require_monomial(M.plus_ann(alt_I))
            d.clause("alternate_I_same_aprime", ideal_equal(_aprime(inst, alt_I, alt_witness), ap))
        except (Inapplicable, WitnessError) as exc:
            d["alternate_I_same_aprime"] = f"skipped ({exc})"

    if ring.nvars <= 4:
        # the clause ranges over radical ideals cand + Ann M, which every
        # squarefree cand gives when Ann M is squarefree monomial; otherwise
        # the range is undefined.  Like _describe_inputs, the witness memo key
        # and cd_principal_cyclic, this gate reads Ann M outside CyclicModule.
        if _squarefree_monomial(M.defining_ideal):
            minimal = True
            for cand in _radical_monomial_ideals_containing(inst.a):
                candJ = M.plus_ann(cand)
                # a unit candJ contains a'; candJ = I + J does not (a' is
                # strictly larger), and s_membership rejects it
                if ideal_contains(candJ, ap) or ideal_equal(IJ, candJ):
                    continue
                if s_membership(cand, inst.I, M, inst.witness):
                    minimal = False
                    break
            d.clause("brute_force_minimality", minimal)
        else:
            d["brute_force_minimality"] = "skipped (Ann M is not a squarefree monomial ideal)"

    aJ = M.plus_ann(inst.a)
    if b is not None and _squarefree_monomial(aJ):
        d.clause("sqrt_a_equals_aprime", radicals_equal(aJ, ap))
    return d.ok, d, {"aprime": gens_str(ap), "b": b and gens_str(b)}


def check_c4(inst):
    """APRIME_T7's `sqrt_a_equals_aprime` clause without its gate that a + J
    be a radical monomial ideal: sqrt(a + Ann M) equals the intersection of
    associated primes over a (the a' construction), on linked instances."""
    _require_linked(inst)
    _require_monomial(inst.module.plus_ann(inst.I))
    ap = _aprime(inst, inst.I, inst.witness)
    aJ = inst.module.plus_ann(inst.a)
    ok = radicals_equal(aJ, ap)
    details = {"aprime": gens_str(ap), "sqrt_a_plus_ann": gens_str(aJ)}
    return ok, details, None


def check_s_reflex(inst):
    """Reflexivity criterion: a is linked to its double-colon candidate
    exactly when a is fixed by the double colon."""
    M = inst.module
    if ideal_equal(M.plus_ann(inst.I), M.plus_ann(inst.a)):
        raise Inapplicable("I equals a modulo J")
    cand = candidate_link(inst.a, inst.I, M, inst.witness)
    try:
        lhs = is_linked(inst.a, cand, inst.I, M, inst.witness)
    except WitnessError:  # a has passed, so the candidate failed its half
        lhs = False
    rhs = s_membership(inst.a, inst.I, M, inst.witness)
    details = {"candidate": gens_str(cand), "linked": lhs, "s_member": rhs}
    return lhs == rhs, details, None


# -- global checks ----------------------------------------------------------------


def check_c11(ring, corpus):
    """Length-2 parts of the variable regular sequence are never linked by a
    monomial complete intersection inside their intersection."""
    if ring.nvars < 4:
        raise Inapplicable("needs at least four variables")
    M = free_module(ring)
    v = [ring.gen(i) for i in range(4)]
    a = Ideal(ring, (v[0], v[1]))
    b = Ideal(ring, (v[2], v[3]))
    # the two pairs of quadrics in a cap b with disjoint supports
    pairs = [(v[0] * v[2], v[1] * v[3]), (v[0] * v[3], v[1] * v[2])]
    linked = [is_linked(a, b, Ideal(ring, pq), M, RegularSequenceWitness(pq)) for pq in pairs]
    details = {"candidates": [f"{p}, {q}" for p, q in pairs], "linked": linked}
    return not any(linked), details, None


def check_t1(ring, corpus):
    """When every associated prime of M/IM has small cd, every corpus ideal
    over I with the same grade keeps cd below dim R."""
    n = ring.nvars
    instances = [
        inst
        for inst in corpus
        if inst.module.is_free()
        and is_monomial_ideal(inst.I)
        and not (inst.I.is_zero() or inst.I.is_unit())
    ]
    if not instances:
        raise Inapplicable("no monomial instances over M = R in the corpus")
    details = {"dim": n}
    ok = True
    examined = 0
    for inst in instances:
        # t = grade I only for a valid witness
        try:
            validate_witness(inst.witness, inst.I, inst.module)
        except WitnessError:
            continue
        # a prime generated by k variables has cd k
        if any(len(p) >= n for p in associated_primes_monomial(inst.I).all_primes):
            continue
        t = inst.witness.length
        pool = [inst.a] + ([inst.b] if inst.b is not None else []) + [inst.I]
        for candidate in pool:
            if not is_monomial_ideal(candidate) or candidate.is_zero() or candidate.is_unit():
                continue
            if not ideal_contains(candidate, inst.I):
                continue
            if grade_oracle(candidate, inst.module) != t:
                continue
            examined += 1
            if cd_oracle(candidate, inst.module) >= n:
                ok = False
                details["counterexample"] = gens_str(candidate)
    details["ideals_examined"] = examined
    return ok, details, None


def check_c1(ring, corpus):
    """Witness search: some linked ideal attains cd equal to dim R.

    Searched in existence form over the self-link family (m linked by the
    complete intersection with one squared variable); the universally
    quantified reading is not checked."""
    n = ring.nvars
    M = free_module(ring)
    gens = [ring.gen(i) for i in range(n)]
    m = Ideal(ring, tuple(gens))
    details = {
        "dim": n,
        "form": "existence via witness search; the universal reading is not checked",
    }
    for k in range(n):
        elements = tuple(
            g * g if i == k else g for i, g in enumerate(gens)
        )
        I = Ideal(ring, elements)
        w = RegularSequenceWitness(elements)
        b = candidate_link(m, I, M, w)
        if b.is_unit():
            continue
        if not is_linked(m, b, I, M, w):
            continue
        cd_b = cd_oracle(b, M)
        if cd_b == n:
            details["b"] = gens_str(b)
            details["I"] = gens_str(I)
            details["cd_b"] = cd_b
            return True, details, None
    return False, details, {"searched": "self-link family"}


# -- runners ----------------------------------------------------------------------


CHECK_RUNNERS = {
    CheckId.L07: check_structure,
    CheckId.L1: check_ass_containment,
    CheckId.T8_MV: check_mv_bound,
    CheckId.L5: check_vanishing_pattern,
    CheckId.GRADE_FORMULA_T: check_grade_formula,
    CheckId.T5_CD: check_cd_formula,
    CheckId.C3_E3: check_e3_identity,
    CheckId.APRIME_T7: check_aprime,
    CheckId.C4: check_c4,
    CheckId.S_REFLEX: check_s_reflex,
    CheckId.C11_GLOBAL: check_c11,
    CheckId.T1_GLOBAL: check_t1,
    CheckId.C1_WITNESS: check_c1,
}


def _describe_inputs(check_id, subject):
    """Re-run data for a failing verdict: the ring of a global check, else
    the concrete instance, rendered."""
    if check_id in GLOBAL_CHECKS:
        return {"ring": repr(subject)}
    return {
        "instance": {
            "a": gens_str(subject.a),
            "b": subject.b and gens_str(subject.b),
            "I": gens_str(subject.I),
            "J": gens_str(subject.module.defining_ideal),
            "sequence": [repr(p) for p in subject.witness.elements],
        }
    }


def run_check(check_id, *args):
    """Run one check and wrap the outcome in a Verdict: args are (inst,) for
    a pair check and (ring, corpus) for one of GLOBAL_CHECKS."""
    start = time.perf_counter()
    witness = None
    try:
        ok, details, found = CHECK_RUNNERS[check_id](*args)
        status = HOLDS if ok else FAILS
        if not ok:
            witness = {**_describe_inputs(check_id, args[0]), **(found or {})}
    except (Inapplicable, WitnessError) as exc:
        status, details = INAPPLICABLE, {"hypothesis": str(exc)}
    except ResourceLimitError as exc:
        status, details = FAILS, {"reason": "resource limit exceeded"}
        witness = {"error": str(exc)}
    millis = (time.perf_counter() - start) * 1000.0
    return Verdict(check=check_id, status=status, details=details, witness=witness, millis=millis)


def run_suite(parsed):
    """Run every directive of a parsed file in file order, in one run under
    the enclosing run's caps: a pair check on directive.instance, one of
    GLOBAL_CHECKS on (ring, corpus) with corpus = parsed.instances()."""
    corpus = parsed.instances()
    with limits.run_context():
        return [
            run_check(d.check, parsed.ring, corpus) if d.instance is None
            else run_check(d.check, d.instance)
            for d in parsed.directives
        ]
