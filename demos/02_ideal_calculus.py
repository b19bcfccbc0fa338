"""The colon-ideal calculus: intersection, quotient, saturation, radicals.

These four operations carry the whole linkage story, since over a cyclic
module R/J the module colon IM :_M a is just the ideal quotient (I+J) : a.
"""

from liaison import (
    Ideal,
    PolyRing,
    QQ,
    ideal_quotient,
    intersect_ideals,
    radical_membership,
    radicals_equal,
    saturate,
)

ring = PolyRing(QQ, ["x", "y"])
x, y = ring.gens()

print("# intersection: pairwise lcms for monomial ideals, else the syzygy")
print("# colon (I e1 + J e2) : (1, 1)")
print("(x) cap (y) =", intersect_ideals(Ideal(ring, (x,)), Ideal(ring, (y,))).gens)
print(
    "(x + y) cap (x - y) =",
    intersect_ideals(Ideal(ring, (x + y,)), Ideal(ring, (x - y,))).gens,
)

print()
print("# colon ideals")
print("(xy) : (x) =", ideal_quotient(Ideal(ring, (x * y,)), Ideal(ring, (x,))).groebner())
print(
    "(x^2, y) : (x, y) =",
    ideal_quotient(Ideal(ring, (x**2, y)), Ideal(ring, (x, y))).groebner(),
)

print()
print("# saturation iterates the quotient to a fixed point")
print(
    "(x^2*y) : (y)^inf =",
    saturate(Ideal(ring, (x**2 * y,)), Ideal(ring, (y,))).groebner(),
)
print(
    "(x^2, x*y) : (x)^inf =",
    saturate(Ideal(ring, (x**2, x * y)), Ideal(ring, (x,))).groebner(),
)

print()
print("# radical membership without computing the radical: f lies in sqrt(I)")
print("# exactly when I : f^inf is the unit ideal")
print("x in sqrt(x^2):", radical_membership(x, Ideal(ring, (x**2,))))
print("x in sqrt(y):", radical_membership(x, Ideal(ring, (y,))))
print(
    "x + y in sqrt((x^2 - y^2)^2, x^3):",
    radical_membership(x + y, Ideal(ring, ((x**2 - y**2) ** 2, x**3))),
)
print(
    "sqrt(xy) = sqrt((x) cap (y)):",
    radicals_equal(
        Ideal(ring, (x * y,)),
        intersect_ideals(Ideal(ring, (x,)), Ideal(ring, (y,))),
    ),
)
