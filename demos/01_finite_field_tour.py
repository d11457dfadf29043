# A tour of the finite-field layer: split primes, certified roots of unity,
# and 2-power discrete logarithms.
#
# Everything downstream evaluates cyclotomic units at primes
# r = 1 mod 2^(n+2)*f, where F_{r^2} = F_r(sqrt(q)) contains a root of unity
# of exact order 2^(n+3)*f: zeta = (a + sqrt(q))^((r^2-1)/(2^(n+3)*f)) for a
# suitable a. Every root the run uses is a power zeta^j with (r+1) | j, so it
# is a power of the norm N = (a + sqrt(q))^(r+1) = a^2 - q, which lies in F_r.
# One deterministic choice of a is the "context".

from greenberg.cyclo_logs import find_split_primes
from greenberg.finite_field import build_field_context, dlog_two_power, factorize, is_prime

f, n = 949, 1
print(f"f = {f}, level n = {n}: need primes r = 1 mod 2^{n+2}*{f} = {(1 << (n+2)) * f}")

primes = find_split_primes(f, n, 6)
print("first six:", primes)
assert all(is_prime(r) for r in primes)

ctx = build_field_context(primes[0], n, f)
r = ctx.r
print(f"\ncontext at r = {r}: q = {ctx.q} (the smallest nonresidue), F_(r^2) = F_r(sqrt(q))")
print(f"candidate a = {ctx.a}: N = a^2 - q = {ctx.norm} mod r")

# the certificate: zeta has exact order 2^(n+3)*f exactly when
# zeta^(order/p) = N^((r-1)/p) != 1 for every prime p | 2f
for p in [2] + sorted(factorize(f)):
    print(f"  N^((r-1)/{p}) = {pow(ctx.norm, (r - 1) // p, r)}  (must not be 1)")

# derived roots: zeta_m = N^((r-1)/m), all in F_r
print(f"\nzeta4 = N^((r-1)/4) = {ctx.zeta4}")
print(f"w = zeta_(2^{n+3})^2 = N^((r-1)/2^{n+2}) = {ctx.w}")
print(f"zeta_f = N^((r-1)/{f}) = {ctx.zeta_f}")
print(f"zeta_2k = N^((r-1)/2^{ctx.k}) = {ctx.zeta_2k}")

# the discrete log: u -> e with u^((r-1)/2^k) = zeta_2k^e, k = n+1
print("\nsome discrete logs mod 2^%d:" % ctx.k)
for u in (1, r - 1, 2, 3, 5):
    e = dlog_two_power(u, ctx)
    check = pow(u, (r - 1) >> ctx.k, r) == pow(ctx.zeta_2k, e, r)
    print(f"  log({u}) = {e}   defining identity holds: {check}")
print("\nnote log(-1) = 0: the whole construction is insensitive to unit signs.")
