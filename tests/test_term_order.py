"""The cached order keys, the trusted constructor PolyRing.from_dict and the
normal-form remainder, each against a test-local reference: monomial orders
written out from their definitions, and the accumulate-and-sort
construction."""

from functools import cmp_to_key

import pytest

from conftest import random_polynomial, seeded
from liaison import limits
from liaison.errors import ResourceLimitError
from liaison.fields import GF, QQ
from liaison.groebner import _normal_form, _work, module_normal_form, reduce_normal_form
from liaison.rings import _KEYS, PolyRing

ORDERS = ("lex", "grevlex")
FIELDS = (QQ, GF(7))
VARS = ["x1", "x2", "x3", "x4", "x5"]


def _lex_greater(a, b):
    for x, y in zip(a, b):
        if x != y:
            return x > y
    return False


def _grevlex_greater(a, b):
    if sum(a) != sum(b):
        return sum(a) > sum(b)
    for x, y in zip(reversed(a), reversed(b)):
        if x != y:
            return x < y
    return False


def _greater(order, a, b):
    """a > b in the order, from its definition."""
    if order == "lex":
        return _lex_greater(a, b)
    return _grevlex_greater(a, b)


def _exponents(rng, n, max_degree=4):
    return tuple(rng.randrange(max_degree + 1) for _ in range(n))


def _is_decreasing(order, terms):
    return all(_greater(order, a, b) for (a, _), (b, _) in zip(terms, terms[1:]))


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("order", ORDERS)
def test_cached_key_is_the_raw_key_and_orders_by_definition(field, order):
    ring = PolyRing(field, VARS, order)
    rng = seeded(131)
    pool = [_exponents(rng, len(VARS)) for _ in range(60)]
    pool += pool[:20]  # repeats are read back from the cache
    for e in pool:
        assert ring.key(e) == _KEYS[order](e)
    for a in pool:
        for b in pool:
            assert (ring.key(a) > ring.key(b)) == _greater(order, a, b)
    # an equal ring has its own cache with the same keys
    twin = PolyRing(field, VARS, order)
    assert twin == ring and hash(twin) == hash(ring)
    assert [twin.key(e) for e in pool] == [ring.key(e) for e in pool]


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("order", ORDERS)
def test_from_dict_equals_accumulate_and_sort(field, order):
    ring = PolyRing(field, VARS, order)
    by_order = cmp_to_key(lambda a, b: _greater(order, a, b) - _greater(order, b, a))
    rng = seeded(137)
    for _ in range(80):
        items = []
        for _ in range(rng.randrange(12)):
            e = _exponents(rng, len(VARS), 3)
            c = field.of(rng.randrange(-3, 4))
            items.append((e, c))
            if rng.random() < 0.3:
                items.append((e, field.neg(c)))  # cancels
        acc = {}
        for e, c in items:
            acc[e] = field.add(acc.get(e, field.zero), c)
        acc = {e: c for e, c in acc.items() if c != field.zero}
        expected = tuple(
            (e, acc[e]) for e in sorted(acc, key=by_order, reverse=True)
        )
        assert ring.from_dict(dict(acc)).terms == expected
        assert ring.poly(items).terms == expected


@pytest.mark.parametrize("field", FIELDS, ids=str)
@pytest.mark.parametrize("order", ORDERS)
def test_normal_form_remainders_strictly_decrease(field, order):
    ring = PolyRing(field, VARS[:3], order)
    rng = seeded(139)
    for _ in range(40):
        basis = [random_polynomial(rng, ring) for _ in range(rng.randrange(1, 4))]
        f = random_polynomial(rng, ring, max_degree=4, max_terms=6)
        r = reduce_normal_form(f, basis)
        assert _is_decreasing(order, r.terms)
        leads = [b.terms[0][0] for b in basis if not b.is_constant()]
        for e, _ in r.terms:
            assert not any(all(x <= y for x, y in zip(m, e)) for m in leads)
        # rank 2, with the later position reduced alongside the first
        g = random_polynomial(rng, ring, max_degree=4, max_terms=6)
        rows = [(b, random_polynomial(rng, ring)) for b in basis]
        for p in module_normal_form((f, g), rows):
            assert _is_decreasing(order, p.terms)


def test_monomial_over_the_degree_cap_raises():
    ring = PolyRing(QQ, ["x", "y"])
    with limits.run_context(degree=3):
        assert ring.monomial((2, 1)).terms == (((2, 1), 1),)
        with pytest.raises(ResourceLimitError, match="degree 4 exceeds cap 3"):
            ring.monomial((2, 2))


def test_normal_form_remainder_over_the_degree_cap_raises():
    # under lex, x - y^5 rewrites x (degree 1) to y^5 (degree 5)
    ring = PolyRing(QQ, ["x", "y"], "lex")
    x, y = ring.gens()
    g = x - y**5
    with limits.run_context(degree=3):
        with pytest.raises(ResourceLimitError, match="degree 5 exceeds cap 3"):
            reduce_normal_form(x, [g])
    assert reduce_normal_form(x, [g]) == y**5


def test_trusted_paths_check_caps_through_the_module(monkeypatch):
    # a rebinding of limits.check_terms sees every polynomial they build
    seen = []
    check = limits.check_terms

    def recording(n_terms, max_degree):
        seen.append((n_terms, max_degree))
        return check(n_terms, max_degree)

    monkeypatch.setattr(limits, "check_terms", recording)
    ring = PolyRing(QQ, ["x", "y"], "lex")
    ring.monomial((1, 2))
    assert seen == [(1, 3)]
    ring.from_dict({(0, 1): 2, (1, 0): 1})
    assert seen[-1] == (2, 1)
    x, y = ring.gens()
    g, xy = x - y**5, x * y
    del seen[:]
    (r,) = _normal_form(ring, _work((xy,)), [(g,)])
    assert seen == [(1, 6)]
    assert r == y**6
