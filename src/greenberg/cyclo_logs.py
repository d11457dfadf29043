"""Log-polynomials of the three cyclotomic-unit families at a split prime.

For a prime r = 1 mod 2^(n+2)*f and a context embedding the order-2^(n+3)*f
roots of unity in F_{r^2}, each unit u gives a polynomial whose X^i
coefficient is the 2-power discrete log of the i-th conjugate of u reduced
mod r.  Every product is computed in F_r: the roots it needs are powers of
the context's norm N, an element of F_r.  The three families:

  * eta:   products of ker(chi)-conjugates of zeta4 * (zeta_{2^(n+3)} zeta_f
           - their inverses), one per coefficient (the hot loop).  Each
           factor is a root of unity times an F_r element of the form
           "point - constant", with one point per conjugate and one constant
           per kernel residue; for f = 1 mod 4 the residues a and -a share
           one factor, so the F_r product has |ker|/2 factors per
           coefficient, else |ker|.  It is vectorized over all 2^n
           conjugates,
  * beta:  a single cyclotomic-unit ratio of 2-power roots per coefficient,
  * delta (only f = 1 mod 8): a G_n-invariant unit, so one scalar c with
           log-polynomial c * (1 + X + ... + X^(2^n - 1)).

The roots of unity in front of the products are never multiplied in: each
is a power N^j, with discrete log j mod 2^k, and those of odd order (the
powers of zeta_f) have log 0, so their logs are added to the product's.
eta and beta take their discrete logs as one vector over the conjugates
(:func:`~greenberg.finite_field.dlog_two_power_vec`).  Every eta prefactor
is asserted to lie in F_r before the logs are taken; a failure means
inputs outside the algorithm's domain and must never happen in a run.
"""

from __future__ import annotations

import logging
import os
from collections.abc import Iterator
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path
from warnings import catch_warnings, filterwarnings

import numpy as np

# dlog_two_power and to_T_basis are unused here but stay bound:
# bench/tracer.py wraps every name it traces at the modules that import it
from greenberg.finite_field import (FieldContext, build_field_context,  # noqa: F401
                                    dlog_two_power, dlog_two_power_vec, is_prime, mulmod_vec,
                                    power_table)
from greenberg.group_ring import to_T_basis  # noqa: F401
from greenberg.quadratic import KernelSet

PRIME_SWEEP_CAP = 10_000_000
_BLOCK = 1 << 13                # residues per eta block (kernel rows x conjugates)

CACHE_VERSION = "greenberg-logcache v1 (X-basis coefficients)"
_INT64_MAX = np.iinfo(np.int64).max

log = logging.getLogger(__name__)


@dataclass(frozen=True, eq=False)
class PrimeLogRecord:
    """The logs of one auxiliary prime at level n: eta and beta as int64
    X-basis vectors of length 2^n (entry i belongs to the i-th conjugate)
    with entries in [0, 2^k), k = n + 1, and delta as a scalar.  The
    checks raise ValueError, so they hold under ``python -O``; the vectors
    are made read-only."""

    r: int
    eta: np.ndarray
    beta: np.ndarray
    delta_scalar: int | None

    def __post_init__(self):
        size = len(self.eta)
        if len(self.beta) != size or not size or size & (size - 1):
            raise ValueError(f"eta, beta lengths {size}, {len(self.beta)}: not one power of 2")
        mod = 2 * size      # 2^k
        for v in (self.eta, self.beta):
            if v.dtype != np.int64 or v.min() < 0 or v.max() >= mod:
                raise ValueError(f"log-polynomial entries must be int64 in [0, {mod})")
            v.flags.writeable = False
        if self.beta.sum() % mod:
            raise ValueError("beta log-polynomial must lie in the augmentation ideal")

    def __eq__(self, other):
        return (isinstance(other, PrimeLogRecord)
                and (self.r, self.delta_scalar) == (other.r, other.delta_scalar)
                and np.array_equal(self.eta, other.eta)
                and np.array_equal(self.beta, other.beta))


def find_split_primes(f: int, n: int, count: int) -> list[int]:
    """First ``count`` primes r = 1 mod 2^(n+2)*f, in increasing order
    (at most ``PRIME_SWEEP_CAP`` candidates are tried)."""
    modulus = (1 << (n + 2)) * f
    out: list[int] = []
    t = 1
    while len(out) < count:
        if t > PRIME_SWEEP_CAP:
            raise RuntimeError(f"prime sweep cap {PRIME_SWEEP_CAP} hit for f={f}, n={n}")
        c = 1 + t * modulus
        if is_prime(c):
            out.append(c)
        t += 1
    return out


@lru_cache(maxsize=None)
def _conjugate_exponents(n: int) -> np.ndarray:
    """3^i mod 2^(n+3) for the 2^n conjugates i (3 generates G_n), as int64
    indices whatever the arithmetic branch; built once per level (read-only)."""
    e3 = power_table(3, 1 << n, 1 << (n + 3)).astype(np.int64)
    e3.flags.writeable = False
    return e3


@lru_cache(maxsize=None)
def _beta_exponents(n: int) -> np.ndarray:
    """3^j mod 2^(n+2) for j = 0..2^n, beta's exponents of w; built once
    per level (read-only)."""
    e3 = _conjugate_exponents(n)
    e = np.append(e3, 3 * e3[-1]) % (1 << (n + 2))
    e.flags.writeable = False
    return e


@lru_cache(maxsize=None)
def _eta_residues(kernel: KernelSet) -> np.ndarray:
    """The kernel residues eta's F_r product runs over: for f = 1 mod 4 one
    of each pair a, -a (a < f/2), else all; built once per kernel (read-only)."""
    ker = np.asarray(kernel.residues, dtype=np.int64)
    if kernel.f % 4 == 1:
        ker = ker[2 * ker < kernel.f]
    ker.flags.writeable = False
    return ker


def _row_product(m: np.ndarray, r: int) -> np.ndarray:
    """Product mod r of the rows of a 2-d residue array, folded pairwise.
    Entries may be signed, in (-r, r); with two or more rows the product
    lies in [0, r)."""
    while len(m) > 1:
        half = len(m) // 2
        folded = mulmod_vec(m[:half], m[half:2 * half], r)
        if len(m) % 2:
            folded[0] = mulmod_vec(folded[0], m[-1], r)
        m = folded
    return m[0]


def log_poly_eta(ctx: FieldContext, kernel: KernelSet) -> np.ndarray:
    """X-basis coefficients of f_r^eta mod 2^k: one kernel product per conjugate.

    Coefficient i is the discrete log of

        prod_{a in ker} zeta4^(3^i) (A_i z_a - A_i^(-1) z_a^(-1)),

    with A_i = zeta_{2^(n+3)}^(3^i) and z_a = zeta_f^a.  Each factor is
    A_i^(-1) z_a^(-1) (x_i z_a^2 - 1) with x_i = w^(3^i), w = A_0^2, and
    x_i and z_a lie in F_r.  The roots of unity in front are dropped from
    the product and added as logs: every root the run uses is a power N^j
    of the context's norm N, with log j mod 2^k, and roots of odd order
    (the powers of zeta_f) have log 0.  With y = a + sqrt(q) the context's
    candidate, A_0 = y^((r^2-1)/2^(n+3)), so A_0^(-|ker|) is
    N^(-|ker| (r-1)/2^(n+3)), and it lies in F_r only when that exponent is
    an integer.

    What is left is an F_r product of "point - constant" factors, formed
    for all 2^n conjugates at once:

      * f = 1 mod 4: -1 lies in ker, and a, -a pair up as
        (x z_a^2 - 1)(x z_a^(-2) - 1) = x (u - c_a) with u = x + x^(-1) and
        c_a = z_a^2 + z_a^(-2), so the product runs over the |ker|/2
        residues a < f/2 at the points u_i, and x_i^(|ker|/2) joins the
        prefactor;
      * f = 3 mod 4: x z_a^2 - 1 = z_a^2 (x - z_a^(-2)), at the points x_i.

    No factor vanishes: x_i has 2-power order > 1 and z_a odd order.
    """
    assert kernel.f == ctx.f, "kernel and context disagree on f"
    r, n, f = ctx.r, ctx.n, ctx.f
    ord2 = 1 << (n + 3)
    ksize = len(kernel.residues)
    # conjugate i's prefactor zeta4^(3^i |ker|) A_i^(-|ker|) is the 3^i-th
    # power of conjugate 0's (A_(i+1) = A_i^3), and an odd power of a
    # 2-power root of unity lies in F_r exactly when the root does
    assert ksize * (r - 1) % ord2 == 0, "eta conjugate product left F_r"
    ordw = ord2 // 2
    # conjugate 0's prefactor zeta4^|ker| A_0^(-|ker|) is N^j for this j
    pre_log = ksize * (r - 1) // 4 - ksize * (r - 1) // ord2
    e3 = _conjugate_exponents(n)
    wpow = ctx.w_powers
    x = wpow[e3 % ordw]
    zsq = power_table(ctx.zeta_f ** 2 % r, f, r)
    ker = _eta_residues(kernel)
    if f % 4 == 1:
        pre_log += (ksize // 2) * (r - 1) // ordw       # x_0^(|ker|/2), w = N^((r-1)/ordw)
        points = (x + wpow[-e3 % ordw]) % r
        consts = (zsq[ker] + zsq[f - ker]) % r
    else:
        points, consts = x, zsq[f - ker]
    # a block of constants by all 2^n points at a time, each block of
    # signed differences in (-r, r) folded to one vector by pairwise products
    acc = np.ones_like(points)
    rows = max(1, _BLOCK >> n)
    for start in range(0, len(consts), rows):
        acc = mulmod_vec(acc, _row_product(points - consts[start:start + rows, None], r), r)
    mod = 1 << ctx.k
    return (dlog_two_power_vec(acc, ctx) + e3 * (pre_log % mod)) % mod


def log_poly_beta(ctx: FieldContext) -> np.ndarray:
    """X-basis coefficients of f_r^beta mod 2^k.

    Coefficient i is the discrete log of

        zeta_{2^(n+2)}^((3^i - 3^(i+1))/2) *
            (1 - zeta_{2^(n+2)}^(3^(i+1))) / (1 - zeta_{2^(n+2)}^(3^i)),

    with the half-exponent resolved exactly: (3^i - 3^(i+1))/2 = -3^i.
    All factors are rational over F_r, and the log of the quotient is the
    difference of the logs.  Conjugate i's numerator is conjugate i+1's
    denominator, so one discrete-log vector of 1 - w^(3^j), j = 0..2^n,
    serves both, with w = zeta_{2^(n+2)}; the prefactor w^(-3^i) = N^j for
    j = -3^i (r-1)/2^(n+2) has log j.  The coefficient sum vanishes mod 2^k
    (the functional kills the norm-compatible unit family).
    """
    r, n = ctx.r, ctx.n
    ord2 = 1 << (n + 2)
    e = _beta_exponents(n)
    logs = dlog_two_power_vec((1 - ctx.w_powers[e]) % r, ctx)
    mod = 1 << ctx.k
    return (logs[1:] - logs[:-1] - e[:-1] * ((r - 1) // ord2 % mod)) % mod


def log_scalar_delta(ctx: FieldContext, kernel: KernelSet, f_prime: bool) -> int:
    """The scalar c with f_r^delta = c * (norm element), for f = 1 mod 8.

    Non-prime f: c = log of prod_{a in ker}(1 - zeta_f^a).  Prime f: the
    product runs over ker/{+-1} (residues a <= (f-1)/2) of

        zeta_f^(a (s-1)/2) (1 - zeta_f^a) / (1 - zeta_f^(a s)),

    where s is the smallest non-kernel residue.  As in
    :func:`log_poly_eta`, the factors form a residue array folded by
    pairwise products, and the roots of unity in front, of odd order, have
    log 0; c is the log of the numerator product minus that of the
    denominator product, both from one discrete-log vector.
    """
    if ctx.f % 8 != 1:
        raise ValueError("delta exists only when f = 1 mod 8")
    assert kernel.sign_case == "chi_f"
    r, f = ctx.r, ctx.f
    ztab = power_table(ctx.zeta_f, f, r)
    ker = np.asarray(kernel.residues, dtype=np.int64)
    if not f_prime:
        cols = ker[:, None]
    else:
        s = next(a for a in range(2, f) if a not in kernel)
        ker = ker[ker <= (f - 1) // 2]
        # one row per residue: the numerator and denominator factors
        cols = np.stack([ker, ker * s % f], axis=1)
    vals = _row_product((1 - ztab[cols]) % r, r)
    assert (vals != 0).all(), "delta product degenerated"
    logs = dlog_two_power_vec(vals, ctx).tolist()
    return logs[0] if not f_prime else (logs[0] - logs[1]) % (1 << ctx.k)


def compute_record(f: int, n: int, r: int, kernel: KernelSet) -> PrimeLogRecord:
    """All log data for one auxiliary prime, under one shared embedding."""
    ctx = build_field_context(r, n, f)
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
    eta = " ".join(str(c) for c in rec.eta.tolist())
    beta = " ".join(str(c) for c in rec.beta.tolist())
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
    skipped with exactly one warning.  So is a line whose delta is present
    although f != 1 mod 8, or absent although f = 1 mod 8, and one with a
    coefficient beyond int64.
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
    size = 1 << n
    mod = 2 * size      # 2^k, k = n + 1

    def coeffs(field: str) -> np.ndarray:
        # one C pass per field.  fromstring reads a lone sign as 0, saturates
        # a token past int64 and stops at trailing data; such fields, never
        # written by store_records, are read one int() per token instead,
        # where a token past int64 is an OverflowError
        v = None
        if "-" not in field and "+" not in field:
            try:
                v = np.fromstring(field, dtype=np.int64, sep=" ")
            except (ValueError, DeprecationWarning):
                pass
            if v is not None and len(v) and v.max() == _INT64_MAX:
                v = None
        if v is None:
            v = np.array(field.split(), dtype=np.int64)
        if len(v) != size:
            raise ValueError(f"log-polynomial needs {size} coefficients, got {len(v)}")
        return v % mod

    with catch_warnings():
        # numpy 2 raises at trailing data, numpy < 2 only warns with this
        filterwarnings("error", "string or file could not be read", DeprecationWarning)
        for ln, line in enumerate(lines[1:], start=2):
            if not line.strip():
                continue
            try:
                head, eta_s, beta_s, delta_s = (part.strip() for part in line.split("|"))
                ff, nn, r = (int(x) for x in head.split())
                if (ff, nn) != (f, n):
                    raise ValueError("key mismatch")
                eta, beta = coeffs(eta_s), coeffs(beta_s)
                if (delta_s == "-") != (f % 8 != 1):
                    raise ValueError("delta present exactly when f = 1 mod 8")
                delta = None if delta_s == "-" else int(delta_s) % mod
                records[r] = PrimeLogRecord(r=r, eta=eta, beta=beta, delta_scalar=delta)
            except (ValueError, OverflowError) as exc:
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
