"""Log-polynomials of the three cyclotomic-unit families at a split prime.

For a prime r = 1 mod 2^(n+2)*f and a context embedding the order-2^(n+3)*f
roots of unity in F_{r^2}, each unit u gives a polynomial whose X^i
coefficient is the 2-power discrete log of the i-th conjugate of u reduced
mod r.  Every product is computed in F_r: the roots it needs are powers of
the context's norm N, an element of F_r.  The three families:

  * eta:   products of ker(chi)-conjugates of zeta4 * (zeta_{2^(n+3)} zeta_f
           - their inverses); one product of phi(f)/2 factors per coefficient
           (the hot loop).  Each factor is a power of zeta_{2^(n+3)} times
           an element of F_r, so the loop is an F_r product over the kernel,
           vectorized over all 2^n conjugates, times one prefactor per
           conjugate, a power of N,
  * beta:  a single cyclotomic-unit ratio of 2-power roots per coefficient,
  * delta (only f = 1 mod 8): a G_n-invariant unit, so one scalar c with
           log-polynomial c * (1 + X + ... + X^(2^n - 1)).

eta and beta take their discrete logs as one vector over the conjugates
(:func:`~greenberg.finite_field.dlog_two_power_vec`).  Every eta product is
asserted to land in F_r before its discrete log is taken; a failure means
inputs outside the algorithm's domain and must never happen in a run.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from greenberg.finite_field import (FieldContext, build_field_context, dlog_two_power,
                                    dlog_two_power_vec, is_prime, mulmod_vec, power_table)
from greenberg.group_ring import to_T_basis
from greenberg.quadratic import KernelSet

PRIME_SWEEP_CAP = 10_000_000
_BLOCK = 1 << 13                # residues per eta block (kernel rows x conjugates)

CACHE_VERSION = "greenberg-logcache v1 (X-basis coefficients)"

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class LogPoly:
    """X-basis coefficients of f_r^u (coefficient i belongs to the i-th
    conjugate), length 2^n, entries mod 2^k."""

    n: int
    k: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != 1 << self.n:
            raise ValueError(f"log-polynomial needs {1 << self.n} coefficients, "
                             f"got {len(self.coeffs)}")

    def to_T(self) -> tuple[int, ...]:
        """The coefficients in the basis T = X - 1."""
        return tuple(int(x) for x in to_T_basis(self.coeffs, 1 << self.k))

    def aug(self) -> int:
        """Evaluation at the group identity (X = 1)."""
        return sum(self.coeffs) % (1 << self.k)


@dataclass(frozen=True)
class PrimeLogRecord:
    """The three log-polynomials of one auxiliary prime (delta as a scalar)."""

    r: int
    eta: LogPoly
    beta: LogPoly
    delta_scalar: int | None

    def __post_init__(self):
        if self.beta.aug() != 0:
            raise ValueError("beta log-polynomial must lie in the augmentation ideal")


def find_split_primes(f: int, n: int, count: int, *, cap: int = PRIME_SWEEP_CAP) -> list[int]:
    """First ``count`` primes r = 1 mod 2^(n+2)*f, in increasing order."""
    modulus = (1 << (n + 2)) * f
    out: list[int] = []
    t = 1
    while len(out) < count:
        if t > cap:
            raise RuntimeError(f"prime sweep cap {cap} hit for f={f}, n={n}")
        c = 1 + t * modulus
        if is_prime(c):
            out.append(c)
        t += 1
    return out


def _conjugate_exponents(n: int) -> np.ndarray:
    """3^i mod 2^(n+3) for the 2^n conjugates i (3 generates G_n)."""
    mod = 1 << (n + 3)
    return np.asarray([pow(3, i, mod) for i in range(1 << n)], dtype=np.int64)


def _row_product(m: np.ndarray, r: int) -> np.ndarray:
    """Product mod r of the rows of a 2-d residue array, folded pairwise."""
    while len(m) > 1:
        half = len(m) // 2
        folded = mulmod_vec(m[:half], m[half:2 * half], r)
        m = np.concatenate([folded, m[2 * half:]]) if len(m) % 2 else folded
    return m[0]


def log_poly_eta(ctx: FieldContext, kernel: KernelSet) -> LogPoly:
    """Coefficients of f_r^eta: one kernel product per conjugate.

    Coefficient i is the discrete log of

        prod_{a in ker} zeta4^(3^i) (A_i zeta_f^a - A_i^(-1) zeta_f^(-a)),

    with A_i = zeta_{2^(n+3)}^(3^i).  Each factor is
    A_i^(-1) zeta_f^(-a) (w^(3^i) zeta_f^(2a) - 1) with w = A_0^2, and w and
    zeta_f lie in F_r.  So the product is the prefactor

        zeta4^(3^i |ker|) A_i^(-|ker|) zeta_f^(-sum ker)

    times an F_r product, formed for all 2^n conjugates at once: a block of
    kernel residues by the 2^n conjugates at a time, each block folded to
    one vector by pairwise products.  With y = a + sqrt(q) the context's
    candidate, A_0 = y^((r^2-1)/2^(n+3)), so A_0^(-|ker|) is the power
    N^(-|ker| (r-1)/2^(n+3)) of the norm N = y^(r+1), and it lies in F_r
    only when that exponent is an integer.
    """
    assert kernel.f == ctx.f, "kernel and context disagree on f"
    r, n, f = ctx.r, ctx.n, ctx.f
    ord2 = 1 << (n + 3)
    ksize = len(kernel.residues)
    # conjugate i's prefactor is the 3^i-th power of conjugate 0's
    # (A_(i+1) = A_i^3), and an odd power of a 2-power root of unity lies in
    # F_r exactly when the root does
    assert ksize * (r - 1) % ord2 == 0, "eta conjugate product left F_r"
    pre = pow(ctx.zeta4, ksize, r) * pow(ctx.norm, -(ksize * (r - 1) // ord2), r) % r
    e3 = _conjugate_exponents(n)
    acc = mulmod_vec(power_table(pre, ord2, r)[e3],
                     pow(ctx.zeta_f, -sum(kernel.residues) % f, r), r)
    wpow = power_table(ctx.w, ord2 // 2, r)[e3 % (ord2 // 2)]
    zsq = power_table(ctx.zeta_f ** 2 % r, f, r)[list(kernel.residues)]
    rows = max(1, _BLOCK >> n)
    for start in range(0, ksize, rows):
        factors = (mulmod_vec(zsq[start:start + rows, None], wpow, r) - 1) % r
        acc = mulmod_vec(acc, _row_product(factors, r), r)
    coeffs = dlog_two_power_vec(acc, ctx)
    return LogPoly(n=n, k=ctx.k, coeffs=tuple(coeffs.tolist()))


def log_poly_beta(ctx: FieldContext) -> LogPoly:
    """Coefficients of f_r^beta.

    Coefficient i is the discrete log of

        zeta_{2^(n+2)}^((3^i - 3^(i+1))/2) *
            (1 - zeta_{2^(n+2)}^(3^(i+1))) / (1 - zeta_{2^(n+2)}^(3^i)),

    with the half-exponent resolved exactly: (3^i - 3^(i+1))/2 = -3^i.
    All factors are rational over F_r, and the log of the quotient is the
    difference of the logs.  The coefficient sum vanishes mod 2^k (the
    functional kills the norm-compatible unit family).
    """
    r, n = ctx.r, ctx.n
    ord2 = 1 << (n + 2)
    e = _conjugate_exponents(n) % ord2
    wpow = power_table(ctx.w, ord2, r)
    num = mulmod_vec(wpow[-e % ord2], (1 - wpow[3 * e % ord2]) % r, r)
    den = (1 - wpow[e]) % r
    logs = dlog_two_power_vec(np.concatenate([num, den]), ctx)
    coeffs = (logs[:1 << n] - logs[1 << n:]) % (1 << ctx.k)
    poly = LogPoly(n=n, k=ctx.k, coeffs=tuple(coeffs.tolist()))
    assert poly.aug() == 0, "beta lies in the augmentation ideal"
    return poly


def log_scalar_delta(ctx: FieldContext, kernel: KernelSet, f_prime: bool) -> int:
    """The scalar c with f_r^delta = c * (norm element), for f = 1 mod 8.

    Non-prime f: c = log of prod_{a in ker}(1 - zeta_f^a).  Prime f: the
    product runs over ker/{+-1} (residues a <= (f-1)/2) of

        zeta_f^(a (s-1)/2) (1 - zeta_f^a) / (1 - zeta_f^(a s)),

    where s is the smallest non-kernel residue and (s-1)/2 is resolved by
    the inverse of 2 mod f.  As in :func:`log_poly_eta`, the factors form a
    residue array folded by pairwise products, and the roots of unity in
    front combine into the single power zeta_f^((s-1)/2 * sum a).
    """
    if ctx.f % 8 != 1:
        raise ValueError("delta exists only when f = 1 mod 8")
    assert kernel.sign_case == "chi_f"
    r, f = ctx.r, ctx.f
    ztab = power_table(ctx.zeta_f, f, r)
    ker = np.asarray(kernel.residues, dtype=np.int64)
    if not f_prime:
        val = int(_row_product((1 - ztab[ker, None]) % r, r)[0])
    else:
        s = next(a for a in range(2, f) if a not in kernel)
        ker = ker[ker <= (f - 1) // 2]
        half = (s - 1) * pow(2, -1, f) % f
        # one row per residue: the numerator and denominator factors
        num, den = _row_product((1 - ztab[np.stack([ker, ker * s % f], axis=1)]) % r,
                                r).tolist()
        val = pow(ctx.zeta_f, half * int(ker.sum()) % f, r) * num % r * pow(den, -1, r) % r
    assert val % r != 0, "delta product degenerated"
    return dlog_two_power(val, ctx)


def compute_record(f: int, n: int, r: int, kernel: KernelSet, *,
                   k: int | None = None) -> PrimeLogRecord:
    """All log data for one auxiliary prime, under one shared embedding."""
    ctx = build_field_context(r, n, f, k=k)
    eta = log_poly_eta(ctx, kernel)
    beta = log_poly_beta(ctx)
    delta = None
    if f % 8 == 1:
        delta = log_scalar_delta(ctx, kernel, f_prime=is_prime(f))
    return PrimeLogRecord(r=r, eta=eta, beta=beta, delta_scalar=delta)


# ---------------------------------------------------------------------------
# record cache (text, versioned; keyed by (f, n))

def cache_path(cache_dir: str | Path, f: int, n: int) -> Path:
    return Path(cache_dir) / f"logs_{f}_{n}.txt"


def _record_line(f: int, n: int, rec: PrimeLogRecord) -> str:
    eta = " ".join(str(c) for c in rec.eta.coeffs)
    beta = " ".join(str(c) for c in rec.beta.coeffs)
    delta = "-" if rec.delta_scalar is None else str(rec.delta_scalar)
    return f"{f} {n} {rec.r} | {eta} | {beta} | {delta}"


def store_records(cache_dir: str | Path, f: int, n: int,
                  records: dict[int, PrimeLogRecord]) -> Path:
    """Write the (f, n) cache file: a temporary file renamed over it, so an
    interrupted store leaves the previous file (or none), never part of one."""
    path = cache_path(cache_dir, f, n)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [f"# {CACHE_VERSION}"]
    lines += [_record_line(f, n, records[r]) for r in sorted(records)]
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("\n".join(lines) + "\n")
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    return path


def load_records(cache_dir: str | Path, f: int, n: int
                 ) -> tuple[dict[int, PrimeLogRecord], list[str]]:
    """Cached records plus a list of warnings for skipped corrupt entries.

    Lines are split at "\n" only, the separator :func:`store_records`
    writes, and undecodable bytes become U+FFFD, so each corrupt line is
    skipped with exactly one warning.
    """
    path = cache_path(cache_dir, f, n)
    records: dict[int, PrimeLogRecord] = {}
    warnings: list[str] = []
    if not path.exists():
        return records, warnings
    lines = path.read_bytes().decode("utf-8", errors="replace").split("\n")
    if lines[0].strip() != f"# {CACHE_VERSION}":
        warnings.append(f"{path}: version mismatch, cache ignored")
        return records, warnings
    k = n + 1
    for ln, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            head, eta_s, beta_s, delta_s = (part.strip() for part in line.split("|"))
            ff, nn, r = (int(x) for x in head.split())
            if (ff, nn) != (f, n):
                raise ValueError("key mismatch")
            eta = LogPoly(n, k, tuple(int(x) % (1 << k) for x in eta_s.split()))
            beta = LogPoly(n, k, tuple(int(x) % (1 << k) for x in beta_s.split()))
            delta = None if delta_s == "-" else int(delta_s)
            records[r] = PrimeLogRecord(r=r, eta=eta, beta=beta, delta_scalar=delta)
        except ValueError as exc:
            warnings.append(f"{path}:{ln}: corrupt cache line skipped ({exc})")
    return records, warnings


def iter_records(f: int, n: int, primes: list[int], kernel: KernelSet, *,
                 cache_dir: str | Path | None = None) -> Iterator[PrimeLogRecord]:
    """Records for the given primes in ascending order, computed as they
    are asked for.

    The cache is read once, before the first record, and written once,
    when the iteration ends or is closed, if any record was computed.
    """
    cached: dict[int, PrimeLogRecord] = {}
    if cache_dir is not None:
        cached, warnings = load_records(cache_dir, f, n)
        for w in warnings:
            log.warning("cache warning: %s", w)
    fresh = False
    try:
        for r in sorted(primes):
            rec = cached.get(r)
            if rec is None:
                rec = compute_record(f, n, r, kernel)
                cached[r] = rec
                fresh = True
            yield rec
    finally:
        if cache_dir is not None and fresh:
            store_records(cache_dir, f, n, cached)


def get_records(f: int, n: int, primes: list[int], kernel: KernelSet, *,
                cache_dir: str | Path | None = None) -> list[PrimeLogRecord]:
    """All records for the given primes, cache-backed (see :func:`iter_records`)."""
    return list(iter_records(f, n, primes, kernel, cache_dir=cache_dir))


def default_cache_dir() -> Path | None:
    env = os.environ.get("GREENBERG_CACHE")
    return Path(env) if env else None
