"""Arithmetic in F_r for split primes r, with certified roots of unity.

A verification run at level n with radicand f draws auxiliary primes
r = 1 mod 2^(n+2)*f.  For such r the field F_{r^2} = F_r(sqrt(q)), with q
the smallest positive quadratic nonresidue mod r, contains an element of
exact multiplicative order 2^(n+3)*f; a :class:`FieldContext` packages one
deterministic choice of that element through the roots of unity every
log-polynomial evaluation needs.  Each of those roots is a power of the
norm a^2 - q of the chosen candidate a + sqrt(q), so all of them, and all
arithmetic here, live in F_r: elements are plain ints in [0, r).

The log-polynomials are computed on residue vectors: numpy arrays of
elements of F_r with elementwise products (:func:`mulmod_vec`), powers,
power tables and 2-power discrete logs (:func:`dlog_two_power_vec`).  The
array's dtype and r pick the arithmetic, in one code path: int64 products
for r < 2^31, float-corrected int64 products for r < 2^50, and object
arrays of Python ints beyond.  The int64 branch reduces a short product
with the remainder, one hardware divide per entry, and a long one as
p - (p // r) * r, since numpy's floor division by a scalar multiplies and
shifts instead of dividing.  Every branch accepts signed operands in
(-r, r) and returns residues in [0, r).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

_NUMPY_LIMIT = 1 << 31          # int64 products of two residues stay exact
_FLOAT_LIMIT = 1 << 50          # float-corrected int64 products are exact below this
# int64 products of at least this many entries reduce by floor division.
# Measured with numpy 2.4 on a 2-core Xeon: the two forms tie near 1,024
# entries; below that the remainder's two numpy calls beat floor
# division's four (1.4-1.9 us against 3.0-4.0 us), and 8,192 products
# reduce in 13.5 us by floor division against 32.6 us by the remainder.
_FLOORDIV_MIN = 1 << 11

# Miller-Rabin with the first t prime witnesses is deterministic below
# psi_t, the least strong pseudoprime to all of them (OEIS A014233); the
# test uses the fewest witnesses its input needs and refuses inputs past
# the last bound.  Split primes stay below PRIME_SWEEP_CAP * 2^22 * f
# (levels n <= 20), far under it.
_MR_TIERS = (
    (3_215_031_751, (2, 3, 5, 7)),
    (341_550_071_728_321, (2, 3, 5, 7, 11, 13, 17)),
    (3_825_123_056_546_413_051, (2, 3, 5, 7, 11, 13, 17, 19, 23)),
    (318_665_857_834_031_151_167_461, (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)),
)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(m: int) -> bool:
    """Deterministic primality test for m < 318665857834031151167461
    (beyond 64 bits); larger m raise ValueError."""
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m == p:
            return True
        if m % p == 0:
            return False
    witnesses = next((w for bound, w in _MR_TIERS if m < bound), None)
    if witnesses is None:
        raise ValueError(f"is_prime: {m} is past the deterministic witness bound")
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in witnesses:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def smallest_nonresidue(r: int) -> int:
    """Smallest positive quadratic nonresidue mod the odd prime r."""
    e = (r - 1) // 2
    q = 2
    while pow(q, e, r) == 1:
        q += 1
    return q


def factorize(m: int) -> dict[int, int]:
    """Prime factorization by trial division (radicands are small)."""
    out: dict[int, int] = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1 if d == 2 else 2
    if m > 1:
        out[m] = out.get(m, 0) + 1
    return out


@dataclass(frozen=True)
class FieldContext:
    """One deterministic embedding of the order-2^(n+3)*f roots of unity.

    All log-polynomial evaluations at the prime r share this context.  The
    records depend on the choice: they are pinned to the sweep's first
    candidate, and only the level ideals built from them are independent of
    the embedding.

    The embedding is zeta = y^((r^2-1)/(2^(n+3)*f)) for y = a + sqrt(q) in
    F_{r^2}, but every root the run uses is a power zeta^j with (r+1) | j, so
    it is a power of the norm N = y^(r+1) = a^2 - q, which lies in F_r:
    zeta_m = N^((r-1)/m).  All fields are F_r integers.

    Invariants certified at construction time:
      * r = 1 mod 2^(n+2)*f,
      * zeta has exact order 2^(n+3)*f (N^((r-1)/p) != 1 for every prime p | 2f).
    """

    r: int
    n: int
    f: int
    k: int                    # log precision, n + 1
    q: int                    # smallest quadratic nonresidue mod r
    a: int                    # the embedding's candidate y = a + sqrt(q)
    norm: int                 # N = a^2 - q, a quadratic nonresidue
    w: int                    # order 2^(n+2): the square of zeta_{2^(n+3)}
    zeta_f: int               # order f
    zeta_2k: int              # order 2^k

    # tables every record at r shares, built on first use

    @cached_property
    def w_powers(self) -> np.ndarray:
        """w^j for j < 2^(n+2), the order of w."""
        return power_table(self.w, 1 << (self.n + 2), self.r)

    @cached_property
    def zeta_2k_sorted(self) -> tuple[np.ndarray, np.ndarray]:
        """The 2^k powers of zeta_2k in ascending order, and their exponents.

        zeta_2k = w^2 exactly (2^(n+2) divides r - 1), so they are the even
        entries of w's table."""
        table = self.w_powers[::2]
        order = np.argsort(table)
        return table[order], order


def build_field_context(r: int, n: int, f: int) -> FieldContext:
    """Construct the shared embedding for the prime r at level n.

    Candidates y = a + sqrt(q) are swept over a = 0, 1, 2, ...; y gives a
    root of exact order 2^(n+3)*f when its norm N = a^2 - q passes
    N^((r-1)/p) != 1 for p = 2 and every prime p | f.  The first passing
    candidate wins, so contexts are reproducible.  The log precision is
    k = n + 1.
    """
    modulus = (1 << (n + 2)) * f
    if r % modulus != 1:
        raise ValueError(f"r={r} is not 1 mod 2^(n+2)*f = {modulus}")
    if not is_prime(r):
        raise ValueError(f"r={r} is not prime")

    q = smallest_nonresidue(r)
    divisors = [2] + sorted(factorize(f))
    for a in range(r):
        norm = (a * a - q) % r
        if all(pow(norm, (r - 1) // p, r) != 1 for p in divisors):
            break
    else:
        raise ValueError(f"no generator of order {(1 << (n + 3)) * f} found for r={r}")
    k = n + 1
    return FieldContext(r=r, n=n, f=f, k=k, q=q, a=a, norm=norm,
                        w=pow(norm, (r - 1) >> (n + 2), r),
                        zeta_f=pow(norm, (r - 1) // f, r),
                        zeta_2k=pow(norm, (r - 1) >> k, r))


# ---------------------------------------------------------------------------
# residue vectors: F_r elementwise over numpy arrays.  Scalars mixed in are
# Python ints, so that object arrays never meet a wrapping numpy int64.

def _dtype(r: int):
    return np.int64 if r < _FLOAT_LIMIT else object


def residue_vec(values, r: int) -> np.ndarray:
    """Residues mod r as a vector whose dtype selects the arithmetic branch."""
    return np.asarray(values, dtype=_dtype(r)) % r


def mulmod_vec(a: np.ndarray, b, r: int) -> np.ndarray:
    """Exact elementwise a*b mod r in [0, r) for residue vectors (b a vector
    or an int); entries may be signed, in (-r, r)."""
    if a.dtype == object:
        return a * b % r
    if r < _NUMPY_LIMIT:
        # |a*b| < r^2 < 2^62, and floor division rounds toward -infinity,
        # so both forms land signed products in [0, r)
        prod = a * b
        return prod % r if prod.size < _FLOORDIV_MIN else prod - prod // r * r
    # float-corrected product: the quotient estimate is off by at most a few
    # ulps, and the int64 wraparound of a*b - q*r equals the exact signed
    # remainder because |remainder| < 3r < 2^63
    q = np.floor(a.astype(np.float64) * np.asarray(b, dtype=np.float64) / r).astype(np.int64)
    rem = a * b - q * r
    while (rem < 0).any():
        rem[rem < 0] += r
    while (rem >= r).any():
        rem[rem >= r] -= r
    return rem


def pow_vec(base: np.ndarray, e: int, r: int) -> np.ndarray:
    """Elementwise base^e mod r by square-and-multiply (e >= 0), a new array.
    The accumulator starts as the power at the lowest set bit of e, so no
    product by 1 is formed."""
    acc = None
    while e:
        if e & 1:
            acc = base % r if acc is None else mulmod_vec(acc, base, r)
        e >>= 1
        if e:
            base = mulmod_vec(base, base, r)
    return np.ones_like(base) if acc is None else acc


def power_table(g: int, count: int, r: int) -> np.ndarray:
    """g^0, g^1, ..., g^(count-1) mod r, by doubling the known prefix."""
    out = np.empty(count, dtype=_dtype(r))
    out[:1] = 1
    done, step = 1, g % r
    while done < count:
        more = min(done, count - done)
        out[done:done + more] = mulmod_vec(out[:more], step, r)
        done += more
        step = step * step % r
    return out


def dlog_two_power_vec(u: np.ndarray, ctx: FieldContext) -> np.ndarray:
    """Discrete logs of u^((r-1)/2^k) to base zeta_2k, elementwise.

    Well defined for every entry in F_r^x: the power lands in the unique
    cyclic subgroup of order 2^k, generated by zeta_2k.  One vector power
    sends every entry there; each exponent in [0, 2^k) is then found in the
    context's sorted table of the 2^k powers of zeta_2k.
    """
    r, k = ctx.r, ctx.k
    u = u % r
    if (u == 0).any():
        raise ZeroDivisionError("dlog of zero")
    v = pow_vec(u, (r - 1) >> k, r)
    ranked, order = ctx.zeta_2k_sorted
    pos = np.minimum(np.searchsorted(ranked, v), len(ranked) - 1)
    if not (ranked[pos] == v).all():
        raise AssertionError("element outside the order-2^k subgroup")
    return order[pos]


def dlog_two_power(u: int, ctx: FieldContext) -> int:
    """:func:`dlog_two_power_vec` of the single residue u mod r."""
    return int(dlog_two_power_vec(residue_vec([u % ctx.r], ctx.r), ctx)[0])
