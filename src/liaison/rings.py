"""Multivariate polynomial rings over exact fields with global monomial orders.

Polynomials are immutable sparse term lists, strictly decreasing in the ring
order, with no zero coefficients; the zero polynomial is the empty list.  All
operations are pure, so values can be shared freely between threads.
"""

from functools import cache

from . import limits
from .errors import RingMismatchError

ORDERS = ("lex", "grevlex")


def _key_lex(exps):
    return exps


def _key_grevlex(exps):
    return (sum(exps), tuple(-e for e in reversed(exps)))


_KEYS = {"lex": _key_lex, "grevlex": _key_grevlex}


class PolyRing:
    """k[x1..xn] under a fixed global monomial order (lex or grevlex).

    Krull dimension equals the number of variables.  Rings compare equal iff
    field, variable list, and order coincide.  key maps an exponent tuple to
    its sort key and remembers it.
    """

    __slots__ = ("field", "vars", "order", "key", "_index", "_hash")

    def __init__(self, field, variables, order="grevlex"):
        variables = tuple(variables)
        if not variables:
            raise ValueError("a polynomial ring needs at least one variable")
        if len(set(variables)) != len(variables):
            raise ValueError("duplicate variable name")
        for v in variables:
            if not v or any(ch.isspace() for ch in v):
                raise ValueError(f"bad variable name {v!r}")
        if order not in ORDERS:
            raise ValueError(f"unknown monomial order {order!r}")
        self.field = field
        self.vars = variables
        self.order = order
        self.key = cache(_KEYS[order])
        self._index = {v: i for i, v in enumerate(variables)}
        self._hash = hash((field, variables, order))

    @property
    def nvars(self):
        return len(self.vars)

    def __eq__(self, other):
        if self is other:
            return True
        return (
            isinstance(other, PolyRing)
            and self.field == other.field
            and self.vars == other.vars
            and self.order == other.order
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"{self.field}[{', '.join(self.vars)}] {self.order}"

    # -- constructors ------------------------------------------------------

    def poly(self, items):
        """Canonical polynomial from (exponent tuple, coefficient) pairs.

        Collects duplicate monomials, drops zeros, sorts descending, and
        enforces the resource caps of the current run (see limits).
        """
        acc = {}
        field = self.field
        zero = field.zero
        n = self.nvars
        for exps, coeff in items:
            exps = tuple(exps)
            if len(exps) != n:
                raise ValueError("exponent tuple length does not match ring")
            prev = acc.get(exps, zero)
            cur = field.add(prev, coeff)
            if cur == zero:
                acc.pop(exps, None)
            else:
                acc[exps] = cur
        return self.from_dict(acc)

    def from_dict(self, d):
        """Trusted constructor: the polynomial whose terms are the items of
        d, distinct exponent tuples of this ring with nonzero canonical
        coefficients.  Sorts them descending and enforces the resource caps
        of the current run (see limits)."""
        if not d:
            return Polynomial(self, ())
        limits.check_terms(len(d), max(map(sum, d)))
        order = sorted(d, key=self.key, reverse=True)
        return Polynomial(self, tuple(zip(order, map(d.__getitem__, order))))

    @property
    def zero(self):
        return Polynomial(self, ())

    @property
    def one(self):
        return self.from_dict({(0,) * self.nvars: self.field.one})

    def monomial(self, exps, coeff=None):
        """The one-term polynomial coeff*x^exps (coeff 1 if None), built as
        poly builds it but without the term dict."""
        exps = tuple(exps)
        if len(exps) != len(self.vars):
            raise ValueError("exponent tuple length does not match ring")
        field = self.field
        coeff = field.one if coeff is None else field.add(field.zero, coeff)
        if coeff == field.zero:
            return Polynomial(self, ())
        limits.check_terms(1, sum(exps))
        return Polynomial(self, ((exps, coeff),))

    def gen(self, i):
        exps = [0] * self.nvars
        exps[i] = 1
        return self.monomial(exps)

    def gens(self):
        return tuple(self.gen(i) for i in range(self.nvars))

    def constant(self, value):
        return self.poly([((0,) * self.nvars, self.field.of(value))])

    def parse(self, src):
        from .parse import parse_polynomial

        return parse_polynomial(src, self)


class Polynomial:
    """Immutable sparse polynomial; terms strictly decreasing in the ring order."""

    __slots__ = ("ring", "terms", "_hash")

    def __init__(self, ring, terms):
        # Trusted constructor: terms must already be canonical.  Use
        # PolyRing.poly for arbitrary input, PolyRing.from_dict for a term
        # dict.
        self.ring = ring
        self.terms = terms

    # -- predicates and accessors ------------------------------------------

    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1 and sum(self.terms[0][0]) == 0)

    def is_monomial(self):
        return len(self.terms) == 1

    def is_homogeneous(self):
        if not self.terms:
            return True
        degs = {sum(e) for e, _ in self.terms}
        return len(degs) == 1

    # -- arithmetic ---------------------------------------------------------

    def _same_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("operands belong to different rings")

    def __add__(self, other):
        self._same_ring(other)
        return self.ring.poly(list(self.terms) + list(other.terms))

    def __sub__(self, other):
        return self + -other

    def __neg__(self):
        field = self.ring.field
        return Polynomial(self.ring, tuple((e, field.neg(c)) for e, c in self.terms))

    def __mul__(self, other):
        self._same_ring(other)
        field = self.ring.field
        zero = field.zero
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                cur = field.add(acc.get(e, zero), field.mul(c1, c2))
                if cur == zero:
                    acc.pop(e, None)
                else:
                    acc[e] = cur
        return self.ring.from_dict(acc)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one
        for _ in range(n):
            result = result * self
        return result

    def scale(self, coeff):
        field = self.ring.field
        if coeff == field.zero:
            return self.ring.zero
        return Polynomial(
            self.ring, tuple((e, field.mul(c, coeff)) for e, c in self.terms)
        )

    def monic(self):
        if not self.terms:
            return self
        lc = self.terms[0][1]
        if lc == self.ring.field.one:
            return self
        inv = self.ring.field.inv(lc)
        return self.scale(inv)

    # -- equality and printing ----------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Polynomial)
            and self.ring == other.ring
            and self.terms == other.terms
        )

    def __hash__(self):
        # Memo keys hash the same generators again and again, and each hash
        # walks every term; the value never changes, so it is kept.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((self.ring, self.terms))
            return self._hash

    def __repr__(self):
        return poly_str(self)


def poly_str(p):
    """Canonical text form; re-parsing it reproduces the polynomial exactly."""
    if not p.terms:
        return "0"
    field = p.ring.field
    names = p.ring.vars
    chunks = []
    for i, (exps, coeff) in enumerate(p.terms):
        if field.characteristic == 0 and coeff < 0:
            sign = "-"
            mag = -coeff
        else:
            sign = "+"
            mag = coeff
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        if not factors:
            body = str(mag)
        elif mag == field.one:
            body = "*".join(factors)
        else:
            body = str(mag) + "*" + "*".join(factors)
        if i == 0:
            chunks.append(body if sign == "+" else "-" + body)
        else:
            chunks.append((" + " if sign == "+" else " - ") + body)
    return "".join(chunks)
