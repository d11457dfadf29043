"""Arithmetic in F_r and F_{r^2} for split primes r, with certified roots of unity.

A verification run at level n with radicand f draws auxiliary primes
r = 1 mod 2^(n+2)*f.  For such r the field F_{r^2} contains an element of
exact multiplicative order 2^(n+3)*f; a :class:`FieldContext` packages one
deterministic choice of that element together with the derived roots of
unity every log-polynomial evaluation needs.  Elements of F_r are plain
ints in [0, r); elements of F_{r^2} = F_r(sqrt(q)) are (a, b) pairs meaning
a + b*sqrt(q), with q the smallest positive quadratic nonresidue mod r.
Only the context's construction and a few prefactors work in F_{r^2}.

The log-polynomials are computed on residue vectors: numpy arrays of
elements of F_r with elementwise products (:func:`mulmod_vec`), powers,
power tables and 2-power discrete logs (:func:`dlog_two_power_vec`).  The
array's dtype and r pick the arithmetic, in one code path: int64 products
for r < 2^31, float-corrected int64 products for r < 2^50, and object
arrays of Python ints beyond.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

Fp2 = tuple[int, int]

_NUMPY_LIMIT = 1 << 31          # int64 products of two residues stay exact
_FLOAT_LIMIT = 1 << 50          # float-corrected int64 products are exact below this

# Witnesses making Miller-Rabin deterministic for all n < 3.3 * 10^24,
# in particular for the full 64-bit range.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(m: int) -> bool:
    """Deterministic primality test (fixed witness set, valid beyond 64 bits)."""
    if m < 2:
        return False
    for p in _SMALL_PRIMES:
        if m == p:
            return True
        if m % p == 0:
            return False
    d = m - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
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


class Fp2Field:
    """F_{r^2} = F_r(sqrt(q)) with elements as (a, b) = a + b*sqrt(q)."""

    __slots__ = ("r", "q")

    def __init__(self, r: int, q: int | None = None):
        self.r = r
        self.q = smallest_nonresidue(r) if q is None else q

    def mul(self, x: Fp2, y: Fp2) -> Fp2:
        r = self.r
        a = (x[0] * y[0] + self.q * (x[1] * y[1] % r)) % r
        b = (x[0] * y[1] + x[1] * y[0]) % r
        return a, b

    def pow(self, x: Fp2, e: int) -> Fp2:
        acc: Fp2 = (1, 0)
        base = x
        while e > 0:
            if e & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            e >>= 1
        return acc

    def inv(self, x: Fp2) -> Fp2:
        # (a + b*sqrt(q))^(-1) = (a - b*sqrt(q)) / (a^2 - q*b^2)
        r = self.r
        norm = (x[0] * x[0] - self.q * (x[1] * x[1] % r)) % r
        if norm == 0:
            raise ZeroDivisionError("inverse of zero in F_{r^2}")
        ninv = pow(norm, -1, r)
        return x[0] * ninv % r, (r - x[1]) * ninv % r

    def in_base(self, x: Fp2) -> bool:
        """Frobenius-fixed elements are exactly those with zero sqrt(q) part."""
        return x[1] == 0


@dataclass(frozen=True)
class FieldContext:
    """One deterministic embedding of the order-2^(n+3)*f roots of unity.

    All log-polynomial evaluations at the prime r share this context, so the
    three functionals at r differ from any other valid choice by a single
    invertible element of Z/2^k[G_n].

    Invariants certified at construction time:
      * r = 1 mod 2^(n+2)*f,
      * zeta has exact order 2^(n+3)*f (zeta^(N/p) != 1 for every prime p | 2f),
      * zeta_2k, zeta4 and zeta_f land in F_r.
    """

    r: int
    n: int
    f: int
    k: int
    q: int
    zeta: Fp2                 # exact order 2^(n+3) * f
    zeta4: int                # order 4, in F_r
    zeta_2n3: Fp2             # order 2^(n+3)
    zeta_f: int               # order f, in F_r
    zeta_2k: int              # order 2^k, in F_r
    field: Fp2Field = field(repr=False, default=None, compare=False)  # type: ignore[assignment]


def _exact_order_certificate(gf: Fp2Field, z: Fp2, order: int, prime_divisors) -> bool:
    if gf.pow(z, order) != (1, 0):
        return False
    return all(gf.pow(z, order // p) != (1, 0) for p in prime_divisors)


def build_field_context(r: int, n: int, f: int, *, k: int | None = None,
                        candidate_offset: int = 0) -> FieldContext:
    """Construct the shared embedding for the prime r at level n.

    Candidates y = a + sqrt(q) are swept over a = 0, 1, 2, ... and raised to
    (r^2-1)/(2^(n+3)*f); the first power of exact order wins, so contexts are
    reproducible.  ``candidate_offset`` skips that many valid candidates
    (used by the unit-invariance checks to build an alternative embedding).
    ``k`` is the log precision, at most n+1 (the default).
    """
    if k is None:
        k = n + 1
    if not 1 <= k <= n + 1:
        raise ValueError(f"log precision k={k} must be in [1, n+1]")
    modulus = (1 << (n + 2)) * f
    if r % modulus != 1:
        raise ValueError(f"r={r} is not 1 mod 2^(n+2)*f = {modulus}")
    if not is_prime(r):
        raise ValueError(f"r={r} is not prime")

    gf = Fp2Field(r)
    order = (1 << (n + 3)) * f
    cofactor = (r * r - 1) // order
    divisors = [2] + sorted(factorize(f))

    zeta: Fp2 | None = None
    skip = candidate_offset
    for a in range(r):
        z = gf.pow((a, 1), cofactor)
        if _exact_order_certificate(gf, z, order, divisors):
            if skip == 0:
                zeta = z
                break
            skip -= 1
    if zeta is None:
        raise ValueError(f"no generator of order {order} found for r={r}")

    zeta4 = gf.pow(zeta, order // 4)
    zeta_2n3 = gf.pow(zeta, f)
    zeta_f = gf.pow(zeta, order // f) if f > 1 else (1, 0)
    zeta_2k = gf.pow(zeta, order >> k)
    # 2^k and 4 divide r-1, and f divides r-1: these roots are rational.
    assert zeta4[1] == 0 and zeta_f[1] == 0 and zeta_2k[1] == 0
    return FieldContext(r=r, n=n, f=f, k=k, q=gf.q, zeta=zeta, zeta4=zeta4[0],
                        zeta_2n3=zeta_2n3, zeta_f=zeta_f[0], zeta_2k=zeta_2k[0],
                        field=gf)


def subcontext(ctx: FieldContext, m: int, *, k: int | None = None) -> FieldContext:
    """Level-m context whose roots are the 2^(n-m)-th powers of ctx's roots.

    Used by the norm-compatibility checks, which need the two levels to share
    one embedding and one log precision.  Every stored root is the literal
    2^(n-m)-th power of the parent's (in particular the order-f root, whose
    powered version only coincides with the parent's when 2 is in the
    character kernel); the order-4 and order-2^k roots collapse back to the
    parent's own, which keeps the discrete-log scale identical.
    """
    if m > ctx.n:
        raise ValueError("subcontext level must not exceed the parent level")
    if k is None:
        k = m + 1
    if k > m + 1:
        raise ValueError("log precision exceeds the subcontext level bound")
    gf = ctx.field
    shift = ctx.n - m
    order = (1 << (m + 3)) * ctx.f
    zeta = gf.pow(ctx.zeta, 1 << shift)
    divisors = [2] + sorted(factorize(ctx.f))
    assert _exact_order_certificate(gf, zeta, order, divisors)
    zeta_2n3 = gf.pow(ctx.zeta_2n3, 1 << shift)
    zeta_f = pow(ctx.zeta_f, 1 << shift, ctx.r)
    zeta_2k = gf.pow(zeta, order >> k)
    assert zeta_2k[1] == 0
    if k == ctx.k:
        # equal precision means the identical discrete-log base
        assert zeta_2k[0] == ctx.zeta_2k
    return FieldContext(r=ctx.r, n=m, f=ctx.f, k=k, q=ctx.q, zeta=zeta,
                        zeta4=ctx.zeta4, zeta_2n3=zeta_2n3, zeta_f=zeta_f,
                        zeta_2k=zeta_2k[0], field=gf)


def dlog_two_power(u: int, ctx: FieldContext) -> int:
    """Discrete log of u^((r-1)/2^k) to base zeta_2k, bit by bit.

    Well defined for every u in F_r^x: the power lands in the unique cyclic
    subgroup of order 2^k, generated by zeta_2k.  Returns e in [0, 2^k).
    """
    r, k = ctx.r, ctx.k
    u %= r
    if u == 0:
        raise ZeroDivisionError("dlog of zero")
    v = pow(u, (r - 1) >> k, r)
    g_inv = pow(ctx.zeta_2k, -1, r)
    e = 0
    for j in range(k):
        w = pow(v * pow(g_inv, e, r) % r, 1 << (k - 1 - j), r)
        if w != 1:
            assert w == r - 1, "element outside the order-2^k subgroup"
            e |= 1 << j
    return e


# ---------------------------------------------------------------------------
# residue vectors: F_r elementwise over numpy arrays.  Scalars mixed in are
# Python ints, so that object arrays never meet a wrapping numpy int64.

def residue_vec(values, r: int) -> np.ndarray:
    """Residues mod r as a vector whose dtype selects the arithmetic branch."""
    return np.asarray(values, dtype=np.int64 if r < _FLOAT_LIMIT else object) % r


def mulmod_vec(a: np.ndarray, b, r: int) -> np.ndarray:
    """Exact elementwise a*b mod r for residue vectors (b a vector or an int)."""
    if a.dtype == object or r < _NUMPY_LIMIT:
        return a * b % r
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
    """Elementwise base^e mod r by square-and-multiply (e >= 0)."""
    acc = np.ones_like(base)
    while e:
        if e & 1:
            acc = mulmod_vec(acc, base, r)
        e >>= 1
        if e:
            base = mulmod_vec(base, base, r)
    return acc


def power_table(g: int, count: int, r: int) -> np.ndarray:
    """g^0, g^1, ..., g^(count-1) mod r, by doubling the known prefix."""
    out = residue_vec([1], r)
    step = g % r
    while len(out) < count:
        out = np.concatenate([out, mulmod_vec(out, step, r)])
        step = step * step % r
    return out[:count]


def dlog_two_power_vec(u: np.ndarray, ctx: FieldContext) -> np.ndarray:
    """:func:`dlog_two_power` elementwise over a residue vector.

    One vector power sends every entry into the order-2^k subgroup; each
    exponent is then found in the sorted table of the 2^k powers of zeta_2k.
    """
    r, k = ctx.r, ctx.k
    u = u % r
    if (u == 0).any():
        raise ZeroDivisionError("dlog of zero")
    v = pow_vec(u, (r - 1) >> k, r)
    table = power_table(ctx.zeta_2k, 1 << k, r)
    order = np.argsort(table)
    ranked = table[order]
    pos = np.minimum(np.searchsorted(ranked, v), len(ranked) - 1)
    assert (ranked[pos] == v).all(), "element outside the order-2^k subgroup"
    return order[pos]
