"""Exact polynomial arithmetic and reduced Groebner bases.

Everything is exact: a rational coefficient is an int when integral and a
stdlib Fraction otherwise, a prime-field coefficient is a residue.  Reduced
bases are unique and deterministic, so they double as canonical forms for
ideals.
"""

from liaison import GF, QQ, Ideal, PolyRing, reduce_normal_form, reduced_groebner_basis, syzygy_module

ring = PolyRing(QQ, ["x", "y"])
x, y = ring.gens()

print("# parsing and arithmetic")
f = ring.parse("x^2 - 1/2*y")
print("f =", f)
print("f * (x + y) =", f * (x + y))

print()
print("# normal forms: divide x^2*y by {x^2 - y}")
print("NF =", reduce_normal_form(x**2 * y, [x**2 - y]))

print()
print("# reduced Groebner bases are canonical")
print("gb(x - y, x + y) =", reduced_groebner_basis([x - y, x + y]))
lex_ring = PolyRing(QQ, ["x", "y"], "lex")
xl, yl = lex_ring.gens()
print(
    "gb(x^2 + y^2 - 1, x - y) under lex =",
    reduced_groebner_basis([xl**2 + yl**2 - lex_ring.one, xl - yl]),
)

print()
print("# membership is a normal-form test")
I = Ideal(ring, (x - y,))
print("x^2 - y^2 in (x - y):", I.contains(x**2 - y**2))

print()
print("# syzygies: the relations among generators")
print("syz(x, y) =", syzygy_module([(x,), (y,)]))
print("syz(x^2, x*y) =", syzygy_module([(x**2,), (x * y,)]))

print()
print("# the same machinery over a prime field")
fp = PolyRing(GF(7), ["u", "v"])
u, v = fp.gens()
print("gb over GF(7):", reduced_groebner_basis([fp.parse("u^2 + 3*v"), u * v]))
