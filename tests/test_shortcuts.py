"""The shortcuts by which a value keeps what it already knows, checked
against the general path each one stands in for: the reduced basis that an
operation's result carries against a fresh reduced basis of its generators,
PolyRing.monomial against PolyRing.poly, and the identities that the ring
hash, the generator key, the memo and CyclicModule.plus_ann rely on; and
radical membership by plain membership against the saturation."""

from fractions import Fraction

import pytest

from liaison import ideal_ops, limits
from liaison.errors import ResourceLimitError
from liaison.fields import GF, QQ
from liaison.groebner import (
    Ideal,
    ideal_sum,
    reduced_groebner_basis,
)
from liaison.ideal_ops import ideal_equal
from liaison.linkage import CyclicModule, free_module
from liaison.rings import PolyRing


def test_every_carried_basis_is_the_reduced_basis_of_its_generators(workload_pass):
    carried = workload_pass["carried"]
    assert limits._RUN.get() is None
    # 2,268 distinct results, 270 of them with a generator of two or more
    # terms (colons by the syzygy route); the floors leave a margin
    assert len(carried) >= 2100
    assert sum(any(len(g.terms) > 1 for g in gens) for _, gens, _ in carried) >= 240
    for ring, gens, basis in carried:
        assert basis == reduced_groebner_basis(gens), (ring, gens)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_monomial_builds_what_poly_builds(field):
    ring = PolyRing(field, ["x", "y", "z"])
    exps = (2, 0, 1)
    for coeff in (None, 7, 9, 14, -3, -7, Fraction(6, 3), 0):
        expected = ring.poly([(exps, field.one if coeff is None else coeff)])
        for given in (exps, list(exps)):
            built = ring.monomial(given, coeff)
            assert built == expected, coeff
            assert [(e, type(c)) for e, c in built.terms] == [
                (e, type(c)) for e, c in expected.terms
            ]
    for bad in ((1, 2), (1, 2, 3, 4)):
        with pytest.raises(ValueError, match="exponent tuple length"):
            ring.monomial(bad)
        with pytest.raises(ValueError, match="exponent tuple length"):
            ring.poly([(bad, field.one)])
    with limits.run_context(degree=3):
        assert ring.monomial((1, 1, 1)) == ring.poly([((1, 1, 1), field.one)])
        with pytest.raises(ResourceLimitError, match="degree 4 exceeds cap 3"):
            ring.monomial((2, 1, 1))
        with pytest.raises(ResourceLimitError, match="degree 4 exceeds cap 3"):
            ring.poly([((2, 1, 1), field.one)])
        # the zero polynomial has no degree to cap, as from poly
        assert ring.monomial((2, 1, 1), 0).is_zero()


def test_equal_rings_built_apart_hash_alike_and_share_a_memo_entry():
    rings = [PolyRing(QQ, ["x", "y"]), PolyRing(QQ, ("x", "y"))]
    assert rings[0] is not rings[1]
    assert rings[0] == rings[1] and hash(rings[0]) == hash(rings[1])
    assert hash(PolyRing(GF(7), ["x"], "lex")) == hash(PolyRing(GF(7), ("x",), "lex"))
    assert PolyRing(QQ, ["x", "y"], "lex") != rings[0]
    ideals = []
    for ring in rings:
        x, y = ring.gens()
        ideals.append(Ideal(ring, (x**2 - y, x * y + ring.one)))
    with limits.run_context() as run:
        bases = [I.groebner() for I in ideals]
        assert bases[0] is bases[1]
        gb_keys = [key for key in run.memo if key[0] == "gb"]
        assert gb_keys == [("gb", (rings[0], ideals[0].gens_key()))]


def test_plus_ann_is_the_ideal_itself_over_r(r3):
    x, y, z = r3.gens()
    I = Ideal(r3, (x * y, z**2))
    assert free_module(r3).plus_ann(I) is I
    J = Ideal(r3, (x**2, y))
    total = CyclicModule(r3, J).plus_ann(I)
    assert total.gens == ideal_sum(I, J).gens
    assert ideal_equal(total, ideal_sum(I, J))


def test_gens_key_is_kept_and_drops_zero_generators(r3):
    x, y, _ = r3.gens()
    I = Ideal(r3, (x, r3.zero, y, x))
    key = I.gens_key()
    assert I.gens_key() is key
    assert key == frozenset({x, y})
    assert Ideal(r3, (r3.zero,)).gens_key() == frozenset()


def test_memo_computes_a_none_value_once():
    calls = []

    def compute():
        calls.append(1)

    with limits.run_context():
        assert limits.memo("witness", "key", compute) is None
        assert limits.memo("witness", "key", compute) is None
    assert len(calls) == 1


def test_radical_membership_of_a_member_needs_no_saturation(r3, monkeypatch):
    x, y, z = r3.gens()
    I = Ideal(r3, (x**2 - y * z, y**2, z**2))

    def no_saturation(I, J):
        raise AssertionError("saturated")

    monkeypatch.setattr(ideal_ops, "saturate", no_saturation)
    f = x * (x**2 - y * z) + z * y**2
    assert ideal_ops.radical_membership(f, I)
    # x is in sqrt(I) (x^4 = y^2 z^2 mod I) but not in I: that one saturates
    with pytest.raises(AssertionError, match="saturated"):
        ideal_ops.radical_membership(x, I)


def test_radical_membership_shortcut_agrees_with_the_saturation(workload_pass):
    # 119 distinct questions, 97 of them with f in I; the floors leave a
    # margin
    questions = list(workload_pass["radical_questions"].values())
    members = sum(I.contains(f) for f, I in questions)
    assert len(questions) >= 100
    assert members >= 80 and len(questions) - members >= 15
    for f, I in questions:
        saturated = ideal_ops.saturate(I, Ideal(I.ring, (f,))).is_unit()
        assert ideal_ops.radical_membership(f, I) == saturated, (f, I)
