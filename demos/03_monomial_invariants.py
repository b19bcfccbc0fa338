"""Monomial-ideal combinatorics and the two invariant oracles.

For a squarefree monomial ideal the projective dimension of R/I can be read
off reduced cohomology of vertex restrictions of its Stanley-Reisner complex
(the vertex sets containing no generator support), and it equals both the
length of the minimal free resolution and (for the radical) the cohomological
dimension.  Running the two independent routes on the same ideal is the
library's built-in cross-check.
"""

from liaison import Ideal, PolyRing, QQ
from liaison.linkage import free_module
from liaison.monomials import associated_primes_monomial, cd_monomial, hochster_pd
from liaison.resolutions import (
    free_resolution,
    grade_via_ext,
    nonzero_ext_degrees,
    pd_via_resolution,
)

ring = PolyRing(QQ, ["x1", "x2", "x3", "x4"])
x1, x2, x3, x4 = ring.gens()
union_of_planes = Ideal(ring, (x1 * x3, x1 * x4, x2 * x3, x2 * x4))
R = free_module(ring)

print("# associated primes, from the irreducible components")
ass = associated_primes_monomial(union_of_planes)
print("associated primes:", sorted(sorted(p) for p in ass.all_primes))
print("minimal primes:", sorted(sorted(p) for p in ass.minimal))
print("unmixed:", ass.is_unmixed())

print()
print("# route one: restriction cohomology")
print("pd via restrictions:", hochster_pd(union_of_planes))
print("# route two: the minimal free resolution")
res = free_resolution(union_of_planes)
print("resolution ranks:", res.ranks)
print("pd via resolution:", pd_via_resolution(union_of_planes))

print()
print("# grade and cohomological dimension")
print("grade:", grade_via_ext(union_of_planes, R))
print("cd:", cd_monomial(union_of_planes))
print("nonvanishing Ext degrees:", list(nonzero_ext_degrees(union_of_planes, R)))
