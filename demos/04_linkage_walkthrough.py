"""Linkage of ideals over a module, end to end on the flagship instance.

a = (x1,x2) cap (x3,x4) is the union of two planes in affine 4-space.  Inside
it sits the complete intersection I = (x1*x3, x2*x4).  The colon b = I : a is
the union of the two other coordinate planes, the pair is geometrically
linked, and the numbers line up: grade 2, cd 3, grade(a+b) = 3 = t + 1.
"""

from liaison import Ideal, PolyRing, QQ
from liaison.groebner import ideal_sum
from liaison.linkage import (
    RegularSequenceWitness,
    aprime_construct,
    candidate_link,
    cd_oracle,
    free_module,
    is_geometrically_linked,
    is_linked,
    s_membership,
)
from liaison.resolutions import grade_via_ext, pd_via_resolution

ring = PolyRing(QQ, ["x1", "x2", "x3", "x4"])
x1, x2, x3, x4 = ring.gens()
M = free_module(ring)

a = Ideal(ring, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))
I = Ideal(ring, (x1 * x3, x2 * x4))
witness = RegularSequenceWitness((x1 * x3, x2 * x4))

print("# the only possible partner is the colon ideal")
b = candidate_link(a, I, M, witness)
print("b = I : a =", b.groebner())

print()
print("# both colon conditions hold, and so does the intersection identity")
print("linked:", is_linked(a, b, I, M, witness))
print("geometrically linked:", is_geometrically_linked(a, b, I, M, witness))

print()
print("# invariants on each side")
for name, ideal in (("a", a), ("b", b)):
    grade, cd, pd = grade_via_ext(ideal, M), cd_oracle(ideal, M), pd_via_resolution(ideal)
    print(f"{name}: grade {grade}, cd {cd}, pd {pd}")
print("grade(a + b) =", grade_via_ext(ideal_sum(a, b), M), "= t + 1 with t = 2")

print()
print("# a is fixed by the double colon, and it is its own smallest")
print("# radical fixed ideal")
print("double-colon fixed:", s_membership(a, I, M, witness))
aprime = aprime_construct(a, I, M, witness)
print("a' =", aprime.groebner())

print()
print("# the two coordinate planes themselves are never linked by a")
print("# monomial complete intersection inside their intersection")
p12 = Ideal(ring, (x1, x2))
p34 = Ideal(ring, (x3, x4))
for gens in ((x1 * x3, x2 * x4), (x1 * x4, x2 * x3)):
    J = Ideal(ring, gens)
    w = RegularSequenceWitness(gens)
    print(f"linked by {J.gens}:", is_linked(p12, p34, J, M, w))
