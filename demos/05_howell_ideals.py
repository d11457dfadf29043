# Ideal arithmetic in Z/2^d[T]/(p(T)) with Howell normal form.
#
# Over Z/2^d, row echelon form cannot decide membership (zero divisors);
# the Howell form can, and it is canonical: two generating sets give the
# same ideal exactly when they produce identical Howell rows.
#
# An ideal is held as a pair: M, its lowest-degree monic element, and the
# Howell rows of J/(M) in rank deg M.  p(T) is T^rank mod 2, so Weierstrass
# preparation turns any element with an odd coefficient into a monic
# polynomial generating the same ideal; deg M is therefore small (2-6 on the
# published rows) however large the ring's rank 2^n is.

import numpy as np

from greenberg.group_ring import (HowellIdeal, RingSpec, canonical_generators, norm_element,
                                  poly_str, weierstrass_polynomial)

spec = RingSpec(3, 2, divided=False)   # Z/8[T] / ((T+1)^4 - 1)
print(f"ring: Z/{spec.modulus}[T] / ((T+1)^{spec.rank} - 1)\n")

# Weierstrass: 2 + 4T + T^2 + 3T^3 has its lowest odd coefficient at T^2,
# so it generates the same ideal as a monic polynomial of degree 2
r = np.array([2, 4, 1, 3])
print(f"{poly_str(r)} generates the ideal of the monic "
      f"{poly_str(weierstrass_polynomial(r, spec.d))}\n")

gens = [(2,), (0, 0, 1)]
ideal = HowellIdeal.from_generators(spec, gens)   # (2, T^2)
print("ideal (2, T^2):")
print("  lowest monic element M =", poly_str(ideal.ring.relation))
print(f"  Howell rows of J/(M) in rank {ideal.ring.rank} (ascending by pivot degree):")
print(ideal.rows)
print("  pivots (degree, valuation):", ideal.pivots)
print("  log2 of the index:", ideal.log2_index())

# membership is reduction modulo M, then against the rows; the norm element
# of level 2 is inside, the one of level 1 is not -- that is exactly what
# the stabilization level n0 = 2 of f = 949 means
print("\nnorm element of level 2 member:", ideal.contains(norm_element(2, spec)))
print("norm element of level 1 member:", ideal.contains(norm_element(1, spec)))

# different generators, same ideal (each holds the other's generators),
# identical canonical pair (M, rows)
other_gens = [(2, 2), (2,), (0, 2, 1)]
other = HowellIdeal.from_generators(spec, other_gens)
same = all(other.contains(g) for g in gens) and all(ideal.contains(g) for g in other_gens)
print("\n(2+2T, 2, 2T+T^2) equals (2, T^2):", same, "| identical M and rows:", ideal == other)

# canonical minimal generators: the strict descents of pivot valuation,
# closed by M, which is how tables of such ideals are conventionally printed
print("\ncanonical generators:", canonical_generators(ideal))
print("of a messier ideal:",
      canonical_generators(HowellIdeal.from_generators(spec, [(4,), (2, 2, 1)])))
print("of the zero ideal (M is the relation itself):",
      canonical_generators(HowellIdeal.empty(spec)))
