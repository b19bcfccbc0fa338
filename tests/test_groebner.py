import pytest

from conftest import random_polynomial, seeded
from liaison.errors import ResourceLimitError, RingMismatchError
from liaison.fields import GF, QQ
from liaison.groebner import (
    Ideal,
    _check_coeff_bits,
    module_groebner_basis,
    module_normal_form,
    reduce_normal_form,
    reduced_groebner_basis,
    syzygy_module,
    unit_vector,
)
from liaison.limits import COEFF_BITS_CAP, run_context
from liaison.rings import PolyRing


def test_normal_form_examples(r2):
    x, y = r2.gens()
    assert reduce_normal_form(x**2 * y, [x**2 - y]) == y**2
    assert reduce_normal_form(x, [x]).is_zero()
    assert reduce_normal_form(y, [x]) == y


def test_normal_form_idempotent(r3):
    rng = seeded(3)
    for _ in range(15):
        f = random_polynomial(rng, r3)
        basis = [random_polynomial(rng, r3) for _ in range(2)]
        once = reduce_normal_form(f, basis)
        assert reduce_normal_form(once, basis) == once


def test_reduced_basis_examples(r2):
    x, y = r2.gens()
    assert reduced_groebner_basis([x - y, x + y]) == (x, y)
    assert reduced_groebner_basis([x]) == (x,)
    lex = PolyRing(QQ, ["x", "y"], "lex")
    xl, yl = lex.gens()
    gb = reduced_groebner_basis([xl**2 + yl**2 - lex.one, xl - yl])
    assert gb == (xl - yl, yl**2 - lex.constant(QQ.frac(1, 2)))


def test_reduced_basis_lives_in_the_generators_ring(r2):
    x, y = r2.gens()
    fp = PolyRing(GF(7), ["x", "y"])
    assert all(g.ring == r2 for g in reduced_groebner_basis([x + y, x - y]))
    with pytest.raises(RingMismatchError):
        reduced_groebner_basis([x, fp.gen(1)])
    with pytest.raises(TypeError):
        reduced_groebner_basis([x], fp)  # no ring can disagree with the generators


def test_mixed_rings_raise_on_every_call_and_memoize_nothing(r2):
    x, _ = r2.gens()
    foreign = PolyRing(GF(7), ["x", "y"]).gen(1)
    with run_context() as run:
        for _ in range(2):
            with pytest.raises(RingMismatchError):
                reduced_groebner_basis([x, foreign])
            with pytest.raises(RingMismatchError):
                reduce_normal_form(x, [foreign])
        assert not [key for key in run.memo if key[0] == "gb"]


def test_zero_and_unit_conventions(r2):
    assert reduced_groebner_basis([r2.zero]) == ()
    assert reduced_groebner_basis([r2.one]) == (r2.one,)
    assert Ideal(r2, ()).is_zero()
    assert Ideal(r2, (r2.constant(3),)).is_unit()


def test_membership_examples(r2):
    x, y = r2.gens()
    assert Ideal(r2, (x,)).contains(x * y)
    assert not Ideal(r2, (x**2,)).contains(x)
    assert Ideal(r2, (x - y,)).contains(x**2 - y**2)


def test_generators_always_members(r3):
    rng = seeded(5)
    for _ in range(10):
        gens = [random_polynomial(rng, r3) for _ in range(3)]
        I = Ideal(r3, tuple(gens))
        for g in gens:
            assert I.contains(g)


def test_basis_invariant_under_permutation(r3):
    rng = seeded(9)
    for _ in range(10):
        gens = [random_polynomial(rng, r3) for _ in range(3)]
        reference = reduced_groebner_basis(gens)
        flipped = list(reversed(gens))
        assert reduced_groebner_basis(flipped) == reference


def test_groebner_cache_write_once(r2):
    x, y = r2.gens()
    I = Ideal(r2, (x - y, x + y))
    first = I.groebner()
    assert I.groebner() is first


def test_module_membership_examples(r2):
    x, y = r2.gens()
    basis = module_groebner_basis([(x, r2.zero), (r2.zero, x)])
    assert not any(module_normal_form((x * y, x**2), basis))

    span = module_groebner_basis([(x, y)])
    assert any(module_normal_form((y, x), span))

    assert module_groebner_basis([]) == []


def test_module_rank_mismatch(r2):
    x, y = r2.gens()
    with pytest.raises((ValueError, RingMismatchError)):
        module_groebner_basis([(x,), (x, y)])


def test_syzygy_examples(r2):
    x, y = r2.gens()
    assert syzygy_module([(x,), (y,)]) == [(y, -x)]
    assert syzygy_module([(x**2,), (x * y,)]) == [(y, -x)]
    assert syzygy_module([(x + y,)]) == []


def test_syzygies_are_exact_relations(r3):
    rng = seeded(21)
    for _ in range(8):
        gens = [random_polynomial(rng, r3, max_degree=2, max_terms=3) for _ in range(3)]
        for syz in syzygy_module([(g,) for g in gens]):
            total = r3.zero
            for coeff, g in zip(syz, gens):
                total = total + coeff * g
            assert total.is_zero()


def test_syzygy_of_zero_generator(r2):
    x, _ = r2.gens()
    syz = syzygy_module([(r2.zero,), (x,)])
    assert unit_vector(r2, 2, 0) in syz


def test_relative_syzygies_reject_other_rings_and_ranks(r2):
    x, y = r2.gens()
    I = Ideal(r2, (x,))
    assert module_groebner_basis(syzygy_module([(y,)], (I,))) == [(x,)]
    other = Ideal(PolyRing(GF(7), ["x", "y"]), ())
    with pytest.raises(RingMismatchError):
        syzygy_module([(y,)], (other,))
    with pytest.raises(ValueError):
        syzygy_module([(y,)], (I, I))


def test_coefficient_growth_trips_the_cap():
    """Without a bound on coefficient size this module basis runs on and on:
    its new rows keep a few dozen terms and a low degree while their
    coefficients double in length, so neither the degree nor the term cap
    stops it."""
    ring = PolyRing(QQ, ["x", "y"], order="lex")
    P = ring.parse
    G = [
        (P("-x*y - 2*y - 1"), P("3*x^2 + 2")),
        (P("-2*x*y"), P("-3*x - 2*y")),
        (P("-x*y + 3*x + 3*y"), P("-2*x*y + y^2")),
        (P("-x*y"), P("-3")),
    ]
    rows = syzygy_module(G)[::2]
    with pytest.raises(ResourceLimitError, match=r"^groebner: coefficient of \d+ bits exceeds cap 16384$"):
        module_groebner_basis(rows)


def test_coefficient_cap_counts_numerator_and_denominator():
    ring = PolyRing(QQ, ["x"])
    x = ring.gens()[0]
    at_cap = 2**COEFF_BITS_CAP - 1
    _check_coeff_bits([(x.scale(at_cap), x.scale(QQ.frac(1, at_cap)))])
    over = f"groebner: coefficient of {COEFF_BITS_CAP + 1} bits exceeds cap"
    for c in (2**COEFF_BITS_CAP, QQ.frac(-1, 2**COEFF_BITS_CAP), QQ.frac(2**COEFF_BITS_CAP, 3)):
        with pytest.raises(ResourceLimitError, match=over):
            _check_coeff_bits([(ring.one, x.scale(c))])
