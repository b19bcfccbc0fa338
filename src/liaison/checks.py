"""One verdict-producing check per statement in scope, plus the suite runner.

Every check recomputes both sides of its identity from independent oracles
and gates on its hypotheses: a verdict is `holds`/`fails` only when every
hypothesis is satisfied, `inapplicable` (with the violated hypothesis named)
otherwise.  The one quantity that is reported but never computed is the
cohomological dimension of a local-cohomology module; the checks record the
value the cd formula implies for it.
"""

import time
from enum import Enum

from . import limits
from .errors import ResourceLimitError, WitnessError
from .groebner import Ideal, ideal_sum
from .ideal_ops import ideal_equal, ideal_quotient, intersect_ideals, radicals_equal
from .linkage import (
    CyclicModule,
    RegularSequenceWitness,
    aprime_construct,
    candidate_link,
    cd_oracle,
    cd_principal_cyclic,
    is_geometrically_linked,
    is_linked,
    s_membership,
)
from .monomials import (
    associated_primes_monomial,
    ext_nonvanishing_degrees,
    cd_monomial,
    intersect_primes,
    is_monomial_ideal,
    monomial_exponents,
    monomial_radical,
    prime_ideal,
)
from .record import Record
from .resolutions import grade_via_ext


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

    def holds(self):
        return self.status == HOLDS


class Inapplicable(Exception):
    """Raised inside a check when one of its hypotheses is violated."""

    def __init__(self, hypothesis):
        super().__init__(hypothesis)
        self.hypothesis = hypothesis


def _gens_str(I):
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
    if ideal_sum(ab, inst.module.defining_ideal).is_unit():
        raise Inapplicable("a + b acts as the unit ideal on M")
    return ab


def _require_monomial(*ideals):
    for I in ideals:
        if not is_monomial_ideal(I):
            raise Inapplicable("non-monomial data: associated primes unavailable")


def _unmixed_ass(inst):
    """Ass(M/IM) for monomial I + J with no embedded prime, together with the
    primes containing a and the excluded primes (those not containing a)."""
    IJ = ideal_sum(inst.I, inst.module.defining_ideal)
    _require_monomial(IJ)
    ass = associated_primes_monomial(IJ)
    if not ass.is_unmixed():
        raise Inapplicable("Ass(M/IM) has an embedded prime")
    in_v_a = _v_of(inst.a, ass.all_primes, inst.ring)
    return ass.all_primes, in_v_a, set(ass.all_primes) - in_v_a


def _aprime(inst):
    """a' of the instance, when the witness is a maximal regular sequence in a."""
    if grade_via_ext(inst.a, inst.module) != inst.witness.length:
        raise Inapplicable("witness is not a maximal regular sequence in a")
    return aprime_construct(inst.a, inst.I, inst.module, inst.witness)


def _v_of(I, prime_set, ring):
    """Subset of the given primes containing I."""
    out = set()
    for p in prime_set:
        pid = prime_ideal(ring, p)
        if all(pid.contains(g) for g in I.gens):
            out.add(p)
    return out


# -- structure checks (radical identities and Ass containment) ------------------


def check_structure(inst):
    """Radical identities of linked pairs: sqrt(I+J) = sqrt((a cap b)+J); for
    I = 0 also sqrt(J:a) = sqrt(b+J); with monomial data, the Ass containment
    Ass(M/aM) within Ass(M/IM)."""
    b = _require_linked(inst)
    J = inst.module.defining_ideal
    details = {}
    ok = True

    lhs = ideal_sum(inst.I, J)
    rhs = ideal_sum(intersect_ideals(inst.a, b), J)
    clause1 = radicals_equal(lhs, rhs)
    details["radical_I_plus_ann"] = _gens_str(lhs)
    details["radical_ab_plus_ann"] = _gens_str(rhs)
    details["radicals_agree"] = clause1
    ok = ok and clause1

    if inst.I.is_zero():
        ann_colon = ideal_quotient(J, inst.a) if not J.is_zero() else Ideal(
            inst.ring, ()
        )
        clause2 = radicals_equal(ann_colon, ideal_sum(b, J))
        details["zero_link_colon"] = _gens_str(ann_colon)
        details["zero_link_radicals_agree"] = clause2
        ok = ok and clause2

    try:
        contained = _ass_contained(inst, details)
        ok = ok and contained
    except Inapplicable:
        details["ass_containment"] = "skipped (non-monomial data)"
    return ok, details, {"b": _gens_str(b)}


def _ass_contained(inst, details):
    """Ass(M/aM) within Ass(M/IM), for monomial a + J and I + J."""
    J = inst.module.defining_ideal
    aJ = ideal_sum(inst.a, J)
    IJ = ideal_sum(inst.I, J)
    _require_monomial(aJ, IJ)
    ass_a = associated_primes_monomial(aJ).all_primes
    ass_i = associated_primes_monomial(IJ).all_primes
    details["ass_mod_a"] = _primes_str(ass_a)
    details["ass_mod_I"] = _primes_str(ass_i)
    contained = ass_a <= ass_i
    details["ass_containment"] = contained
    return contained


def check_ass_containment(inst):
    """The embedding consequence alone: Ass(M/aM) within Ass(M/IM)."""
    _require_linked(inst)
    details = {}
    ok = _ass_contained(inst, details)
    return ok, details, None


# -- Mayer-Vietoris bound and the vanishing pattern ------------------------------


def _pattern_applies(inst):
    """The relative-CM setting of the vanishing pattern: M = R, a squarefree."""
    if not inst.module.is_free() or not is_monomial_ideal(inst.a):
        return False
    return all(all(e <= 1 for e in m) for m in monomial_exponents(inst.a))


def _vanishing_pattern(inst, grade_ab, details):
    """Ext^i(R/a, R) is nonzero only for i in {grade a, grade(a + b)}."""
    degrees = ext_nonvanishing_degrees(inst.a)
    allowed = {grade_via_ext(inst.a, inst.module), grade_ab}
    details["nonvanishing_degrees"] = sorted(degrees)
    details["allowed_degrees"] = sorted(allowed)
    return degrees <= allowed


def _zero_link_cd(inst, b, details):
    """For I = 0 and principal a: cd(a, M) = cd(a, M/bM); None otherwise."""
    if not inst.I.is_zero():
        return None
    gb_a = inst.a.groebner()
    if len(gb_a) != 1:
        return None
    f = gb_a[0]
    lhs = cd_principal_cyclic(f, inst.module)
    J = inst.module.defining_ideal
    rhs = cd_principal_cyclic(f, CyclicModule(inst.ring, ideal_sum(b, J)))
    details["cd_a_on_M"] = lhs
    details["cd_a_on_M_mod_bM"] = rhs
    return lhs == rhs


def check_mv_bound(inst):
    """cd(a+b) <= max{cd a, cd b, t+1}, with equality when cd(a+b) >= t+1 or
    the pair is geometrically linked; plus the two-degree vanishing pattern
    and the I = 0 reduction, where their hypotheses apply."""
    b = _require_linked(inst)
    ab = _require_proper_sum(inst, b)
    M = inst.module
    t = inst.witness.length
    details = {"t": t}
    applicable = False
    ok = True

    cd_a = cd_oracle(inst.a, M)
    cd_b = cd_oracle(b, M)
    cd_ab = cd_oracle(ab, M)
    geometric = is_geometrically_linked(inst.a, b, inst.I, M, inst.witness)
    details["geometric"] = geometric

    if None not in (cd_a, cd_b, cd_ab):
        applicable = True
        bound = max(cd_a, cd_b, t + 1)
        details.update(cd_a=cd_a, cd_b=cd_b, cd_a_plus_b=cd_ab, bound=bound)
        clause = cd_ab <= bound
        if cd_ab >= t + 1 or geometric:
            clause = clause and cd_ab == bound
            details["equality_required"] = True
        details["bound_holds"] = clause
        ok = ok and clause

    if cd_ab is not None:
        grade_ab = grade_via_ext(ab, M)
        details["grade_a_plus_b"] = grade_ab
        if cd_ab == grade_ab and _pattern_applies(inst):
            applicable = True
            pattern = _vanishing_pattern(inst, grade_ab, details)
            details["vanishing_pattern_holds"] = pattern
            ok = ok and pattern

    equal = _zero_link_cd(inst, b, details)
    if equal is not None:
        applicable = True
        details["zero_link_cd_equal"] = equal
        ok = ok and equal

    if not applicable:
        raise Inapplicable("no cd oracle applies to this instance")
    return ok, details, {"b": _gens_str(b)}


def check_vanishing_pattern(inst):
    """The vanishing-pattern clauses alone (relative CM case and I = 0 case)."""
    b = _require_linked(inst)
    ab = _require_proper_sum(inst, b)
    details = {}
    ok = True
    applicable = False

    cd_ab = cd_oracle(ab, inst.module)
    if cd_ab is not None and _pattern_applies(inst):
        grade_ab = grade_via_ext(ab, inst.module)
        if cd_ab == grade_ab:
            applicable = True
            ok = ok and _vanishing_pattern(inst, grade_ab, details)
        else:
            details["relative_cm"] = False

    equal = _zero_link_cd(inst, b, details)
    if equal is not None:
        applicable = True
        ok = ok and equal

    if not applicable:
        raise Inapplicable("neither vanishing-pattern hypothesis applies")
    return ok, details, {"b": _gens_str(b)}


# -- grade formula ----------------------------------------------------------------


def check_grade_formula(inst):
    """grade_M(a + b) = t + 1 for geometrically linked pairs."""
    b = _require_geometric(inst)
    ab = _require_proper_sum(inst, b)
    t = inst.witness.length
    grade_ab = grade_via_ext(ab, inst.module)
    details = {"t": t, "grade_a_plus_b": grade_ab, "expected": t + 1}
    return grade_ab == t + 1, details, {"b": _gens_str(b)}


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
    J = M.defining_ideal
    primes, in_v_a, excluded = _unmixed_ass(inst)

    details = {"ass_mod_I": _primes_str(primes)}
    grade_a = grade_via_ext(inst.a, M)
    details["grade_a"] = grade_a
    details["excluded_primes"] = _primes_str(excluded)
    cd_a = cd_oracle(inst.a, M)
    if cd_a is not None:
        details["cd_a"] = cd_a
    ok = True

    if not excluded:
        details["branch"] = "every associated prime contains a"
        if cd_a is None:
            raise Inapplicable("no cd oracle applies to this instance")
        ok = cd_a == grade_a
        details["cd_equals_grade"] = ok
    else:
        details["branch"] = "excluded primes present"
        c = intersect_primes(ring, excluded)
        details["c"] = _gens_str(c)
        IJ = ideal_sum(inst.I, J)
        rad_ok = radicals_equal(IJ, ideal_sum(intersect_ideals(inst.a, c), J))
        details["radical_I_eq_a_cap_c"] = rad_ok
        grade_ac = grade_via_ext(ideal_sum(inst.a, c), M)
        jump_ok = grade_ac >= grade_a + 1
        details["grade_a_plus_c"] = grade_ac
        details["grade_jump_holds"] = jump_ok
        contained = intersect_primes(ring, in_v_a)
        e1_ok = radicals_equal(ideal_sum(inst.a, J), contained)
        details["sqrt_a_decomposition_holds"] = e1_ok
        ok = rad_ok and jump_ok and e1_ok
        if cd_a is not None:
            implied = cd_a - grade_a
            details["implied_cd_of_H"] = implied
            if cd_a != grade_a:
                ok = ok and implied >= 1

    geometric = is_geometrically_linked(inst.a, b, inst.I, M, inst.witness)
    details["geometric"] = geometric
    if geometric:
        in_v_b = _v_of(b, primes, ring)
        e3_ok = excluded == in_v_b
        details["excluded_eq_v_b"] = e3_ok
        details["ass_in_v_b"] = _primes_str(in_v_b)
        ok = ok and e3_ok
        if cd_a is not None:
            details["partner_invariant"] = 1 if cd_a == grade_a else cd_a - grade_a
    return ok, details, {"b": _gens_str(b)}


def check_e3_identity(inst):
    """The excluded-primes identity for geometric links, with the derived cd
    formula value recorded when M is not relative Cohen-Macaulay wrt a."""
    b = _require_geometric(inst)
    M = inst.module
    primes, _, excluded = _unmixed_ass(inst)
    in_v_b = _v_of(b, primes, inst.ring)
    ok = excluded == in_v_b
    details = {
        "excluded_primes": _primes_str(excluded),
        "ass_in_v_b": _primes_str(in_v_b),
    }
    cd_a = cd_oracle(inst.a, M)
    if cd_a is not None:
        grade_a = grade_via_ext(inst.a, M)
        if cd_a == grade_a:
            details["relative_cm_wrt_a"] = True
        else:
            details["derived_cd_formula_value"] = cd_a - grade_a
    return ok, details, {"b": _gens_str(b)}


# -- a' construction --------------------------------------------------------------


def _all_radical_monomial_ideals(ring):
    """Every squarefree monomial ideal of the ring (antichains of supports),
    zero and unit ideals excluded.  Exponential; callers gate on <= 4 vars.

    Supports are the variable bitmasks 1 .. 2^n - 1, each folded into the
    antichains it is incomparable with.  The list stays ordered by the subset
    mask of each antichain over the supports (a support's chains extend the
    list in its order, with a new highest bit), which is the order in which a
    scan over all sets of supports first meets each antichain."""
    n = ring.nvars
    antichains = [()]
    for s in range(1, 1 << n):
        antichains += [c + (s,) for c in antichains if all(t & s != t for t in c)]
    ideals = []
    for chain in antichains[1:]:
        exps = sorted(tuple(s >> i & 1 for i in range(n)) for s in chain)
        ideals.append(Ideal(ring, tuple(ring.monomial(e) for e in exps)))
    return ideals


def check_aprime(inst, alternate=None):
    """The smallest-radical-fixed-ideal construction: containment, double-colon
    fixedness, radicality, independence of the linking ideal (against
    alternate, an (ideal, witness) pair), brute-force minimality in small
    rings, and the radical identity on linked radical instances."""
    M = inst.module
    ring = inst.ring
    J = M.defining_ideal
    IJ = ideal_sum(inst.I, J)
    _require_monomial(IJ)
    try:
        b = _require_linked(inst)
    except Inapplicable:
        b = None
    ap = _aprime(inst)
    details = {"grade_a": inst.witness.length, "aprime": _gens_str(ap)}
    ok = True

    contain = all(ap.contains(g) for g in inst.a.gens)
    details["a_contained"] = contain
    ok = ok and contain

    apJ = ideal_sum(ap, J)
    if ideal_equal(IJ, apJ):
        # the construction presumes the sequence was deepened so that I sits
        # strictly inside a'; nothing to test against this linking ideal
        raise Inapplicable("a' collapses to I; the sequence is not strict")
    member = s_membership(ap, inst.I, M, inst.witness)
    details["s_membership"] = member
    ok = ok and member

    radical_ok = ideal_equal(ap, monomial_radical(ap))
    details["radical"] = radical_ok
    ok = ok and radical_ok

    if alternate is not None:
        alt_I, alt_witness = alternate
        ap_alt = aprime_construct(inst.a, alt_I, M, alt_witness)
        same = ideal_equal(ap_alt, ap)
        details["alternate_I_same_aprime"] = same
        ok = ok and same

    if ring.nvars <= 4:
        minimal_ok = True
        for cand in _all_radical_monomial_ideals(ring):
            if not all(cand.contains(g) for g in inst.a.gens):
                continue
            candJ = ideal_sum(cand, J)
            if ideal_equal(IJ, candJ) or candJ.is_unit():
                continue
            if not s_membership(cand, inst.I, M, inst.witness):
                continue
            if not all(cand.contains(g) for g in ap.gens):
                minimal_ok = False
                break
        details["brute_force_minimality"] = minimal_ok
        ok = ok and minimal_ok

    aJ = ideal_sum(inst.a, J)
    if b is not None and is_monomial_ideal(aJ) and ideal_equal(aJ, monomial_radical(aJ)):
        c4 = ideal_equal(aJ, apJ)
        details["sqrt_a_equals_aprime"] = c4
        ok = ok and c4
    return ok, details, {"aprime": _gens_str(ap), "b": b and _gens_str(b)}


def check_c4(inst):
    """sqrt(a + Ann M) equals the intersection of associated primes over a
    (the a' construction), on linked instances."""
    _require_linked(inst)
    _require_monomial(ideal_sum(inst.I, inst.module.defining_ideal))
    ap = _aprime(inst)
    aJ = ideal_sum(inst.a, inst.module.defining_ideal)
    ok = radicals_equal(aJ, ap)
    details = {"aprime": _gens_str(ap), "sqrt_a_plus_ann": _gens_str(aJ)}
    return ok, details, None


def check_s_reflex(inst):
    """Reflexivity criterion: a is linked to its double-colon candidate
    exactly when a is fixed by the double colon."""
    M = inst.module
    J = M.defining_ideal
    if ideal_equal(ideal_sum(inst.I, J), ideal_sum(inst.a, J)):
        raise Inapplicable("I equals a modulo J")
    cand = candidate_link(inst.a, inst.I, M, inst.witness)
    if ideal_sum(cand, J).is_unit() or cand.is_zero():
        lhs = False
    else:
        lhs = is_linked(inst.a, cand, inst.I, M, inst.witness)
    rhs = s_membership(inst.a, inst.I, M, inst.witness)
    details = {"candidate": _gens_str(cand), "linked": lhs, "s_member": rhs}
    return lhs == rhs, details, None


# -- global checks ----------------------------------------------------------------


def check_c11(ring, corpus):
    """Length-2 parts of the variable regular sequence are never linked by a
    monomial complete intersection inside their intersection."""
    if ring.nvars < 4:
        raise Inapplicable("needs at least four variables")
    M = CyclicModule(ring, Ideal(ring, ()))
    v = [ring.gen(i) for i in range(4)]
    a = Ideal(ring, (v[0], v[1]))
    b = Ideal(ring, (v[2], v[3]))
    quadrics = [v[0] * v[2], v[0] * v[3], v[1] * v[2], v[1] * v[3]]
    sample = []
    for i in range(len(quadrics)):
        for j in range(i + 1, len(quadrics)):
            mi = quadrics[i].terms[0][0]
            mj = quadrics[j].terms[0][0]
            if all(x == 0 or y == 0 for x, y in zip(mi, mj)):
                sample.append((quadrics[i], quadrics[j]))
    details = {"candidates": [f"{p}, {q}" for p, q in sample]}
    ok = True
    linked_list = []
    for p, q in sample:
        I = Ideal(ring, (p, q))
        w = RegularSequenceWitness((p, q))
        linked = is_linked(a, b, I, M, w)
        linked_list.append(linked)
        ok = ok and not linked
    details["linked"] = linked_list
    return ok, details, None


def check_t1(ring, corpus):
    """When every associated prime of M/IM has small cd, every corpus ideal
    over I with the same grade keeps cd below dim R."""
    n = ring.nvars
    instances = [
        inst
        for inst in corpus
        if inst.module.is_free() and is_monomial_ideal(inst.I) and not inst.I.is_zero()
    ]
    if not instances:
        raise Inapplicable("no monomial instances over M = R in the corpus")
    details = {"dim": n}
    ok = True
    examined = 0
    for inst in instances:
        ass = associated_primes_monomial(inst.I)
        if any(cd_monomial(prime_ideal(ring, p)) >= n for p in ass.all_primes):
            continue
        t = inst.witness.length
        pool = [inst.a] + ([inst.b] if inst.b is not None else []) + [inst.I]
        for candidate in pool:
            if not is_monomial_ideal(candidate) or candidate.is_zero():
                continue
            if not all(candidate.contains(g) for g in inst.I.gens):
                continue
            if grade_via_ext(candidate, inst.module) != t:
                continue
            examined += 1
            if cd_monomial(candidate) >= n:
                ok = False
                details["counterexample"] = _gens_str(candidate)
    details["ideals_examined"] = examined
    return ok, details, None


def check_c1(ring, corpus):
    """Witness search: some linked ideal attains cd equal to dim R.

    Searched in existence form over the self-link family (m linked by the
    complete intersection with one squared variable); the universally
    quantified reading is not checked."""
    n = ring.nvars
    M = CyclicModule(ring, Ideal(ring, ()))
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
        if not is_monomial_ideal(b):
            continue
        cd_b = cd_monomial(b)
        if cd_b == n:
            details["b"] = _gens_str(b)
            details["I"] = _gens_str(I)
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


def _describe_inputs(args):
    """Re-run data for a failing verdict: the concrete instance, rendered."""
    out = {}
    for arg in args:
        if hasattr(arg, "witness") and hasattr(arg, "a"):  # LinkageInstance
            J = arg.module.defining_ideal
            out["instance"] = {
                "a": _gens_str(arg.a),
                "b": None if arg.b is None else _gens_str(arg.b),
                "I": _gens_str(arg.I),
                "J": _gens_str(J),
                "sequence": [repr(p) for p in arg.witness.elements],
            }
        elif hasattr(arg, "vars"):  # PolyRing
            out["ring"] = repr(arg)
    return out or None


def run_check(check_id, *args, **kwargs):
    """Run one check and wrap the outcome in a Verdict."""
    runner = CHECK_RUNNERS[check_id]
    start = time.perf_counter()
    try:
        ok, details, witness = runner(*args, **kwargs)
        status = HOLDS if ok else FAILS
        if status == HOLDS:
            witness = None
        else:
            witness = {**(_describe_inputs(args) or {}), **(witness or {})}
    except Inapplicable as exc:
        status = INAPPLICABLE
        details = {"hypothesis": exc.hypothesis}
        witness = None
    except WitnessError as exc:
        status = INAPPLICABLE
        details = {"hypothesis": f"regular-sequence witness: {exc}"}
        witness = None
    except ResourceLimitError as exc:
        status = FAILS
        details = {"reason": "resource limit exceeded"}
        witness = {"error": str(exc)}
    millis = (time.perf_counter() - start) * 1000.0
    return Verdict(check=check_id, status=status, details=details, witness=witness, millis=millis)


def run_suite(parsed):
    """Run every check directive of a parsed instance file, in file order,
    in one run (limits.run_context) under the enclosing run's caps."""
    tasks = []
    corpus = parsed.instances()
    for directive in parsed.directives:
        if directive.check in GLOBAL_CHECKS:
            tasks.append((directive.check, (parsed.ring, corpus), {}))
        else:
            inst = parsed.instance_for(directive)
            kwargs = {}
            if directive.check is CheckId.APRIME_T7:
                kwargs = {"alternate": parsed.alternate_for(directive)}
            tasks.append((directive.check, (inst,), kwargs))
    with limits.run_context():
        return [run_check(cid, *args, **kw) for cid, args, kw in tasks]
