# The non-split worked example, f = 949 = 13 * 73 (f = 5 mod 8, h = 2).
#
# Levels accumulate ideals J_n from pair functionals of auxiliary-prime
# log-polynomials; at level 2 the quotient cardinality already drops below
# 2^(m + m0), certifying that the tower stabilized at level 1.

from greenberg.cyclo_logs import compute_record, find_split_primes
from greenberg.group_ring import canonical_generators, to_T_basis
from greenberg.quadratic import character_kernel, class_number
from greenberg.verify import RunConfig, verify

f = 949
info = class_number(f)
print(f"f = {f}: h = {info.h}, m0 = {info.m0}, gate = {info.gate}\n")

# the level-1 log-polynomials at the first six split primes, in the
# parameter T = X - 1 (compare: each prime's pair is unique up to one
# invertible scalar of the group ring)
ker = character_kernel(f)
mod = 4     # logs are taken mod 2^(n+1)
print("r        eta(T)     beta(T)/T")
for r in find_split_primes(f, 1, 6):
    rec = compute_record(f, 1, r, ker)
    eta = tuple(to_T_basis(rec.eta, mod).tolist())
    q = tuple(to_T_basis(rec.beta, mod).tolist())[1:] + (0,)   # beta has no constant term
    print(f"{r:<9}{str(eta):<11}{q}")

print("\nrunning the certification:")
rep = verify(f, RunConfig(primes=15))
for lv in rep.levels:
    print(f"  level {lv.n}: J_{lv.n} = {canonical_generators(lv.ideal)}, "
          f"index 2^{lv.log2_index}")
print(f"\nterminated at m = {rep.m} via the {rep.criterion} criterion")
print(f"certificate: J = {rep.reported}, n0 = {rep.n0}, N = 2^{rep.log2_index}")
print(f"the 2-class tower of Q(sqrt({f})) is stable from level <= {rep.stable_from}")
