"""Independent oracles the tests check production code against.

Each deliberately takes a different route than the implementation it
audits: trial division vs Miller-Rabin, twelve Miller-Rabin witnesses vs
the fewest the input's size needs, Euler's criterion over the
factorization of a vs the binary Jacobi algorithm with reciprocity, the
analytic class number formula vs form-cycle counting, explicit fundamental
units vs the principal form cycle, exhaustive module
enumeration vs Howell reduction, the series division vs the shortcut for
an already monic element in Weierstrass preparation, the full-rank Howell
engine vs the ideal engine that works modulo the lowest monic element,
full-rank T-basis pair functionals vs the pairing modulo that element in
the X-basis, a numpy Howell form vs the one on Python ints, the
cyclotomic-norm square identity vs the eta product formula, the
conjugate-by-conjugate F_{r^2} kernel product vs the F_r product vectorized
over conjugates, the F_{r^2} candidate sweep vs the sweep over norms in F_r,
the scalar loops over the kernel vs the folded residue-vector delta
product, two beta discrete-log vectors with the prefactor multiplied in vs
one vector with the prefactor added as a log, the bit-by-bit 2-power
discrete log vs the sorted-table vector lookup, Horner's rule vs the
blockwise Taylor shift for X = T + 1, and the per-token cache parser vs
one array conversion per coefficient field.

It also holds what only the tests need: ideal equality by double
containment, the parser of printed polynomials, the context of another
candidate of the sweep, and the level-m context sharing a level-n embedding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from math import isqrt

import numpy as np

from greenberg.cyclo_logs import CACHE_VERSION, PrimeLogRecord, cache_path
from greenberg.finite_field import (FieldContext, dlog_two_power_vec, factorize, is_prime,
                                    mulmod_vec, power_table, smallest_nonresidue)
from greenberg.group_ring import (HowellIdeal, RingSpec, Vec, _series_inverse, from_coeffs,
                                  norm_element, poly_mul_mod, t_shift)
from greenberg.quadratic import KernelSet


def trial_is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def is_prime_12_witnesses(m: int) -> bool:
    """Miller-Rabin with the prime witnesses 2..37 whatever the size of m,
    deterministic below 318665857834031151167461."""
    if m < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Euler's criterion, for odd primes p."""
    a %= p
    if a == 0:
        return 0
    v = pow(a, (p - 1) // 2, p)
    return 1 if v == 1 else -1


def jacobi(b: int, a: int) -> int:
    """Jacobi symbol (b|a) for odd positive a, by reciprocity."""
    b %= a
    t = 1
    while b:
        while b % 2 == 0:
            b //= 2
            if a % 8 in (3, 5):
                t = -t
        a, b = b, a
        if a % 4 == 3 and b % 4 == 3:
            t = -t
        b %= a
    return t if a == 1 else 0


def kronecker_oracle(D: int, a: int) -> int:
    """(D|a) assembled from Euler's criterion over the factorization of a."""
    if a == 0:
        return 1 if D in (1, -1) else 0
    out = 1
    for p, e in factorize(a).items():
        if p == 2:
            if D % 2 == 0:
                return 0
            s = 1 if D % 8 in (1, 7) else -1
        else:
            s = legendre(D, p)
        if s == 0:
            return 0
        out *= s ** (e % 2)
    return out


# ---------------------------------------------------------------------------
# fundamental units and the analytic class number formula

def pell_unit(f: int) -> tuple[int, int]:
    """Minimal x + y*sqrt(f) with x^2 - f y^2 = +-1, via the CF of sqrt(f)."""
    s = isqrt(f)
    assert s * s != f
    P, Q, a = 0, 1, s
    p_prev, p = 1, a
    q_prev, q = 0, 1
    while p * p - f * q * q not in (1, -1):
        P = a * Q - P
        Q = (f - P * P) // Q
        a = (P + s) // Q
        p_prev, p = p, a * p + p_prev
        q_prev, q = q, a * q + q_prev
    return p, q


def _icbrt(m: int) -> int:
    if m < 0:
        return -_icbrt(-m)
    x = round(m ** (1 / 3)) + 1
    while x * x * x > m:
        x -= 1
    return x


def fundamental_unit_xy(f: int) -> tuple[int, int]:
    """(x, y) with epsilon = (x + y*sqrt(f))/2 the fundamental unit of
    Q(sqrt(f)).  For f = 1 mod 4 the Pell unit may be the cube of a
    half-integer unit; detect that exactly."""
    p, q = pell_unit(f)
    x, y = 2 * p, 2 * q
    if f % 4 == 1:
        # epsilon^3 = x/2 + y/2 sqrt(f) forces f*y0^3 + 3*n*y0 = y with
        # n = norm(epsilon) and x0^2 = f*y0^2 + 4n
        for n in (1, -1):
            y0 = _icbrt(y // f)
            for cand in (y0 - 1, y0, y0 + 1, y0 + 2):
                if cand <= 0:
                    continue
                if f * cand**3 + 3 * n * cand != y:
                    continue
                x0sq = f * cand * cand + 4 * n
                if x0sq <= 0:
                    continue
                x0 = isqrt(x0sq)
                if x0 * x0 == x0sq and x0 * (x0 * x0 + 3 * f * cand * cand) == 4 * x:
                    return x0, cand
    return x, y


def unit_norm_oracle(f: int) -> int:
    """Norm of the fundamental unit from the explicit unit itself."""
    x, y = fundamental_unit_xy(f)
    n4 = x * x - f * y * y
    assert n4 in (4, -4)
    return n4 // 4


def analytic_class_number(f: int) -> int:
    """Exact-character-sum evaluation of the class number of Q(sqrt(f)).

    h = -(sum over 0 < a < D/2 of chi(a) log sin(pi a / D)) / log eps.
    """
    D = f if f % 4 == 1 else 4 * f
    x, y = fundamental_unit_xy(f)
    # log((x + y sqrt(f))/2) via big-int logs (x, y can exceed float range)
    t = math.log(y) + 0.5 * math.log(f) - math.log(x)
    log_eps = math.log(x) + math.log1p(math.exp(t)) - math.log(2)
    total = 0.0
    for a in range(1, (D + 1) // 2):
        chi = kronecker_oracle(D, a)
        if chi:
            total -= chi * math.log(math.sin(math.pi * a / D))
    h = total / log_eps
    assert abs(h - round(h)) < 1e-6, f"analytic formula not near an integer for f={f}"
    return round(h)


# ---------------------------------------------------------------------------
# exhaustive module arithmetic over Z/2^d (tiny ranks only)

def enumerate_span(rows: list[tuple[int, ...]], d: int, rank: int) -> frozenset:
    """All Z/2^d-linear combinations of the given rows (callers pass the
    full T-shift closure, so this enumerates the ideal as a set)."""
    mod = 1 << d
    span = {tuple(0 for _ in range(rank))}
    for row in rows:
        row = tuple(v % mod for v in row)
        span = {tuple((b + c * r) % mod for b, r in zip(base, row))
                for base in span for c in range(mod)}
    return frozenset(span)


def contains_ideal(a: HowellIdeal, b: HowellIdeal) -> bool:
    """b inside a: a contains b's monic element M and its Howell rows."""
    return a.contains(b.ring.relation) and all(a.contains(row) for row in b.howell_rows()[0])


def mutual_membership(a: HowellIdeal, b: HowellIdeal) -> bool:
    """Ideal equality by double containment (generator sets are not unique)."""
    return contains_ideal(a, b) and contains_ideal(b, a)


def parse_poly(text: str) -> tuple[int, ...]:
    """Inverse of :func:`greenberg.group_ring.poly_str`, for fixtures written
    as published (e.g. "T^2 + 2012")."""
    text = text.strip()
    if text in ("0", ""):
        return (0,)
    coeffs: dict[int, int] = {}
    for term in text.replace("-", "+ -").split("+"):
        term = term.strip().replace(" ", "")
        if not term:
            continue
        if "T" in term:
            head, _, exp = term.partition("T")
            c = int(head) if head not in ("", "-") else (-1 if head == "-" else 1)
            j = int(exp.lstrip("^")) if exp else 1
        else:
            c, j = int(term), 0
        coeffs[j] = coeffs.get(j, 0) + c
    top = max(coeffs)
    return tuple(coeffs.get(j, 0) for j in range(top + 1))


class FullRankIdeal:
    """An ideal of Z/2^d[T]/(p) as the Howell form of its full T-shift
    closure in rank 2^n: every insertion runs Howell on the old rows plus
    all rank T-shifts of the new element."""

    def __init__(self, spec: RingSpec, rows=None, pivots=()):
        self.spec = spec
        self.rows = np.zeros((0, spec.rank), dtype=np.int64) if rows is None else rows
        self.pivots = list(pivots)

    @classmethod
    def from_generators(cls, spec: RingSpec, gens) -> "FullRankIdeal":
        ideal = cls(spec)
        for g in gens:
            ideal = ideal.insert(from_coeffs(g, spec))
        return ideal

    def reduce_vec(self, v):
        mod = self.spec.modulus
        v = np.asarray(v, dtype=np.int64) % mod
        for (col, e), row in zip(reversed(self.pivots), reversed(self.rows)):
            t = int(v[col]) >> e
            if t:
                v = (v - t * row) % mod
        return v

    def contains(self, v) -> bool:
        return not self.reduce_vec(v).any()

    def insert(self, g) -> "FullRankIdeal":
        rem = self.reduce_vec(g)
        if not rem.any():
            return self
        shifts = [rem]
        for _ in range(self.spec.rank - 1):
            shifts.append(t_shift(shifts[-1], self.spec))
        rows, pivots = howell_form_numpy(np.vstack([self.rows] + shifts), self.spec.d,
                                         self.spec.rank)
        return FullRankIdeal(self.spec, rows, pivots)

    def log2_index(self) -> int:
        free = self.spec.rank - len({col for col, _ in self.pivots})
        return free * self.spec.d + sum(e for _, e in self.pivots)

    def generators(self) -> tuple[tuple[int, ...], ...]:
        """Strict descents of the pivot valuation, 2^d when degree 0 has no
        pivot, and the reduced relation when no pivot is a unit."""
        spec = self.spec
        pivot_map = {col: (e, row) for (col, e), row in zip(self.pivots, self.rows)}
        gens = []
        v_prev = spec.d + 1
        for col in range(spec.rank):
            if col in pivot_map:
                e, row = pivot_map[col]
                if e < v_prev:
                    gens.append(tuple(int(x) for x in np.trim_zeros(row, "b")))
                    v_prev = e
            elif col == 0:
                gens.append((spec.modulus,))
                v_prev = spec.d
        if v_prev > 0:
            rem = self.reduce_vec(spec.relation[:spec.rank])
            gens.append(tuple(int(x) for x in rem) + (1,))
        return tuple(gens)

    def n0(self) -> int:
        """Least t with the level-t norm element in the ideal."""
        spec = self.spec
        return next(t for t in range(spec.n + spec.d + 1)
                    if self.contains(norm_element(t, spec)))


def howell_form_numpy(G: np.ndarray, d: int, rank: int
                      ) -> tuple[np.ndarray, list[tuple[int, int]]]:
    """:func:`greenberg.group_ring.howell_form` on an int64 matrix with
    entries in [0, 2^d): the same steps, one numpy pass per column."""
    mod = 1 << d
    G = np.asarray(G, dtype=np.int64).reshape(-1, rank) % mod
    G = G[G.any(axis=1)]
    m = G.shape[0]
    # one annihilator row can appear per pivot, so m + rank slots suffice
    A = np.zeros((m + rank, rank), dtype=np.int64)
    A[:m] = G
    count = m
    active = list(range(m))
    res: list[np.ndarray] = []
    pivots: list[tuple[int, int]] = []
    for col in range(rank - 1, -1, -1):
        if not active:
            break
        act = np.asarray(active)
        nz = A[act, col] != 0
        if not nz.any():
            continue
        sel = act[nz]
        # the first row of least 2-valuation at this degree
        low = np.bitwise_and(A[sel, col], -A[sel, col])
        combined = int(np.bitwise_or.reduce(low))
        e = (combined & -combined).bit_length() - 1
        p = int(sel[int(np.argmax(low == (1 << e)))])
        unit_inv = pow(int(A[p, col]) >> e, -1, mod)
        A[p] = A[p] * unit_inv % mod
        others = sel[sel != p]
        if len(others):
            t = A[others, col] >> e
            A[others] = (A[others] - t[:, None] * A[p][None, :]) % mod
        res.append(A[p].copy())
        pivots.append((col, e))
        # retire the pivot row; keep untouched rows and nonzero remainders
        touched = set(int(i) for i in sel)
        active = [i for i in active if i not in touched]
        active.extend(int(i) for i in others if A[i].any())
        if e > 0:
            ann = A[p] * (1 << (d - e)) % mod
            if ann.any():
                A[count] = ann
                active.append(count)
                count += 1
    if not res:
        return np.zeros((0, rank), dtype=np.int64), []
    R = np.array(res)
    # reduce every row's entries at the lower pivot degrees (a row's support
    # sits at degrees <= its pivot, so later passes never disturb earlier ones)
    for j in range(1, len(pivots)):
        cj, ej = pivots[j]
        t = R[:j, cj] >> ej
        nzr = np.nonzero(t)[0]
        if len(nzr):
            R[nzr] = (R[nzr] - t[nzr, None] * R[j][None, :]) % mod
    order = np.argsort([c for c, _ in pivots])
    return R[order], [pivots[i] for i in order]


def weierstrass_polynomial_series(r: Vec, d: int) -> Vec:
    """The monic P of degree v with (P) = (r) in Z/2^d[[T]], v the lowest
    degree of an odd coefficient of r, always by the series division (the
    production :func:`greenberg.group_ring.weierstrass_polynomial` returns
    an r that is already monic of degree v as it is)."""
    mod = 1 << d
    r = np.asarray(r, dtype=np.int64) % mod
    v = int(np.flatnonzero(r & 1)[0])
    if v == 0:
        return np.ones(1, dtype=np.int64)
    k = (d + 2) * v
    u = np.zeros(k, dtype=np.int64)
    top = r[v:v + k]
    u[:len(top)] = top
    c = np.convolve(_series_inverse(u, k, mod), r[:v])[:k] % mod   # U^-1 alpha
    h = np.zeros(k, dtype=np.int64)
    h[v] = 1
    for _ in range(d + 1):
        if not h[v:].any():
            break
        prod = np.convolve(h[v:], c)[:k]
        h[v:] = 0
        h[:len(prod)] = (h[:len(prod)] - prod) % mod
    assert not h[v:].any(), "Weierstrass division failed to converge"
    return np.append(-h[:v] % mod, 1)


# ---------------------------------------------------------------------------
# pair functionals at full rank in the T-basis

def to_T_basis_horner(xcoeffs, mod: int) -> np.ndarray:
    """Substitute X = T + 1 by Horner's rule, one coefficient at a time;
    the blockwise Taylor shift :func:`greenberg.group_ring.to_T_basis` is
    checked against it."""
    a = np.asarray(list(xcoeffs), dtype=np.int64)
    res = np.zeros(len(a), dtype=np.int64)
    for i in range(len(a) - 1, -1, -1):
        res[1:] = (res[1:] + res[:-1]) % mod
        res[0] = (res[0] + a[i]) % mod
    return res


def to_X_basis(tcoeffs, mod: int) -> np.ndarray:
    """Substitute T = X - 1 (Horner); inverse of
    :func:`greenberg.group_ring.to_T_basis`, for T-basis fixtures."""
    c = np.asarray(list(tcoeffs), dtype=np.int64)
    res = np.zeros(len(c), dtype=np.int64)
    for j in range(len(c) - 1, -1, -1):
        res[1:], res[0] = (res[:-1] - res[1:]) % mod, (-res[0]) % mod
        res[0] = (res[0] + c[j]) % mod
    return res


def divide_by_aug(p: Vec, spec: RingSpec, out_spec: RingSpec | None = None) -> Vec:
    """Canonical quotient q with T*q = p, for p in the augmentation ideal.

    In the T-basis the augmentation condition is simply a zero constant term
    (coefficients are the least nonnegative lift), so division is an exact
    left shift.  Quotients are only defined up to the annihilator of T; this
    canonical representative is the one fixed throughout.
    """
    if p[0] % spec.modulus != 0:
        raise ValueError("element is not in the augmentation ideal")
    target = spec if out_spec is None else out_spec
    out = np.zeros(target.rank, dtype=np.int64)
    k = min(spec.rank - 1, target.rank)
    out[:k] = p[1:k + 1] % target.modulus
    return out


def full_rank_pair_functionals(records, spec: RingSpec) -> list[Vec]:
    """Every g-vector of a level, in the order the production pairing forms
    them, each product taken at rank 2^n in the T-basis.

    Non-split (``spec`` full): each record gives the functional (eta,
    beta/T).  Split (``spec`` divided): each record i combines with every
    earlier j into h = a rec_i - b rec_j, with a = c_j / 2^s and
    b = c_i / 2^s for the delta scalars c and s their lowest 2-valuation.
    Each new functional pairs with every earlier one as
    g = q_new e_old - q_old e_new, divided by T into ``spec`` when split.
    """
    full = RingSpec(spec.d, spec.n, divided=False)
    mod = full.modulus
    seen, funcs, out = [], [], []
    for rec in records:
        eta = from_coeffs(to_T_basis_horner(rec.eta, mod), full)
        quot = divide_by_aug(from_coeffs(to_T_basis_horner(rec.beta, mod), full), full)
        if spec.divided:
            c = rec.delta_scalar % mod
            new = []
            for eta_j, quot_j, c_j in seen:
                if c_j or c:
                    s = min((x & -x).bit_length() - 1 for x in (c_j, c) if x)
                    a, b = c_j >> s, c >> s
                    new.append(((a * eta - b * eta_j) % mod, (a * quot - b * quot_j) % mod))
            seen.append((eta, quot, c))
        else:
            new = [(eta, quot)]
        for e, q in new:
            for e_old, q_old in funcs:
                g = (poly_mul_mod(q, e_old, full) - poly_mul_mod(q_old, e, full)) % mod
                out.append(divide_by_aug(g, full, spec) if spec.divided else g)
            funcs.append((e, q))
    return out


# ---------------------------------------------------------------------------
# F_{r^2} and the embedding built there

Fp2 = tuple[int, int]


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


def _exact_order_certificate(gf: Fp2Field, z: Fp2, order: int, prime_divisors) -> bool:
    if gf.pow(z, order) != (1, 0):
        return False
    return all(gf.pow(z, order // p) != (1, 0) for p in prime_divisors)


@dataclass(frozen=True)
class Fp2Context:
    """The embedding zeta of exact order 2^(n+3)*f as seen from F_{r^2}: its
    candidate a, zeta_2n3 = zeta^f, and the roots that land in F_r as ints."""

    a: int
    zeta4: int
    zeta_2n3: Fp2
    zeta_f: int
    zeta_2k: int


def build_field_context_fp2(r: int, n: int, f: int, *, k: int | None = None,
                            candidate_offset: int = 0) -> Fp2Context:
    """The embedding found in F_{r^2}: candidates y = a + sqrt(q) for
    a = 0, 1, 2, ... are raised to (r^2-1)/(2^(n+3)*f), and the first power
    whose exact order F_{r^2} arithmetic certifies wins (after
    ``candidate_offset`` skips)."""
    k = n + 1 if k is None else k
    assert (r - 1) % ((1 << (n + 2)) * f) == 0 and is_prime(r)
    gf = Fp2Field(r)
    order = (1 << (n + 3)) * f
    cofactor = (r * r - 1) // order
    divisors = [2] + sorted(factorize(f))
    skip = candidate_offset
    for a in range(r):
        zeta = gf.pow((a, 1), cofactor)
        if _exact_order_certificate(gf, zeta, order, divisors):
            if skip == 0:
                break
            skip -= 1
    else:
        raise ValueError(f"no generator of order {order} found for r={r}")
    zeta4 = gf.pow(zeta, order // 4)
    zeta_f = gf.pow(zeta, order // f)
    zeta_2k = gf.pow(zeta, order >> k)
    # 4, f and 2^k divide r-1: these roots are Frobenius-fixed
    assert gf.in_base(zeta4) and gf.in_base(zeta_f) and gf.in_base(zeta_2k)
    return Fp2Context(a=a, zeta4=zeta4[0], zeta_2n3=gf.pow(zeta, f),
                      zeta_f=zeta_f[0], zeta_2k=zeta_2k[0])


def field_context_fp2(r: int, n: int, f: int, *, candidate_offset: int = 0) -> FieldContext:
    """The context of the F_{r^2} sweep's candidate (after ``candidate_offset``
    skips), its roots the F_{r^2} powers of that candidate's zeta.  At offset
    0 it is the production context; at offset 1 it is the alternative
    embedding of the unit-invariance check."""
    ref = build_field_context_fp2(r, n, f, candidate_offset=candidate_offset)
    q = smallest_nonresidue(r)
    w, w_sqrt_q = Fp2Field(r, q).pow(ref.zeta_2n3, 2)
    assert w_sqrt_q == 0
    return FieldContext(r=r, n=n, f=f, k=n + 1, q=q, a=ref.a, norm=(ref.a * ref.a - q) % r,
                        w=w, zeta_f=ref.zeta_f, zeta_2k=ref.zeta_2k)


def subcontext(ctx: FieldContext, m: int) -> FieldContext:
    """Level-m context whose embedding is the 2^(n-m)-th power of ctx's, at
    log precision m + 1.

    Used by the norm-compatibility checks, which need the two levels to share
    one embedding.  w and the order-f root are the literal 2^(n-m)-th powers
    of the parent's, the parts of zeta^(2^(n-m)) (deliberately not
    N^((r-1)/f): the level-m units must come from that root for their logs
    to be partial sums of the level-n ones); the order-4 and order-2^(m+1)
    roots are the norm's own, which keeps the discrete-log scale identical:
    a level-m log is the parent's mod 2^(m+1).
    """
    if m > ctx.n:
        raise ValueError("subcontext level must not exceed the parent level")
    r, shift = ctx.r, 1 << (ctx.n - m)
    return FieldContext(r=r, n=m, f=ctx.f, k=m + 1, q=ctx.q, a=ctx.a, norm=ctx.norm,
                        w=pow(ctx.w, shift, r),
                        zeta_f=pow(ctx.zeta_f, shift, r),
                        zeta_2k=pow(ctx.norm, (r - 1) >> (m + 1), r))


def embedding_root(ctx: FieldContext, order: int) -> Fp2:
    """The root (a + sqrt(q))^((r^2-1)/order) of F_{r^2}, rebuilt from the
    context's candidate a: zeta for order 2^(n+3)*f, A = zeta_{2^(n+3)}
    for order 2^(n+3)."""
    return Fp2Field(ctx.r, ctx.q).pow((ctx.a, 1), (ctx.r * ctx.r - 1) // order)


def dlog_two_power_bits(u: int, ctx: FieldContext) -> int:
    """Discrete log of u^((r-1)/2^k) to base zeta_2k, bit by bit."""
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


def eta_square_log(ctx: FieldContext, kernel: KernelSet, i: int) -> int:
    """Discrete log of the i-th conjugate of eta^2 via the cyclotomic-norm
    product prod_{c in {1,-1}, a in ker}(1 - zeta_{2^(n+2)}^(c 3^i) zeta_f^(2a)),
    evaluated directly in F_r (f = 1 mod 4 case).

    Both roots are the SQUARES of the context's: the context's eta is built
    from the primitive 2^(n+3)f root Z * z, and its square from (Z * z)^2,
    whose f-part is z^2 (only for f = 1 mod 8 does 2 lie in the kernel and
    make the squared and unsquared f-products coincide).
    """
    assert kernel.sign_case == "chi_f"
    r = ctx.r
    w, w_sqrt_q = embedding_root(ctx, 1 << (ctx.n + 2))      # A^2
    assert w_sqrt_q == 0
    zf2 = ctx.zeta_f * ctx.zeta_f % r
    ord2 = 1 << (ctx.n + 2)
    e = pow(3, i, ord2)
    acc = 1
    for c in (e, ord2 - e):
        wc = pow(w, c, r)
        for a in kernel.residues:
            acc = acc * (1 - wc * pow(zf2, a, r)) % r
    return dlog_two_power_bits(acc, ctx)


def eta_square_log_3mod4(ctx: FieldContext, kernel: KernelSet, i: int) -> int:
    """The f = 3 mod 4 analogue of :func:`eta_square_log`.

    Here sqrt(f) = sqrt(-1) * sqrt(-f), so the norm group pairs the
    trivial 2-part with the kernel of chi_{-f} and the inverting 2-part
    with its complement:

        eta^2 conj = prod_{a in ker}(1 - w^(3^i) z2^a)
                     * prod_{b not in ker}(1 - w^(-3^i) z2^b),

    with w and z2 the squared context roots as before.
    """
    assert kernel.sign_case == "chi_minus_f"
    r, f = ctx.r, ctx.f
    w, w_sqrt_q = embedding_root(ctx, 1 << (ctx.n + 2))      # A^2
    assert w_sqrt_q == 0
    z2 = ctx.zeta_f * ctx.zeta_f % r
    ord2 = 1 << (ctx.n + 2)
    e = pow(3, i, ord2)
    wp, wm = pow(w, e, r), pow(w, ord2 - e, r)
    kerset = set(kernel.residues)
    acc = 1
    for a in range(1, f):
        if math.gcd(a, f) != 1:
            continue
        acc = acc * (1 - (wp if a in kerset else wm) * pow(z2, a, r)) % r
    return dlog_two_power_bits(acc, ctx)


def log_poly_eta_fp2(ctx: FieldContext, kernel: KernelSet) -> np.ndarray:
    """f_r^eta one conjugate at a time, as a product of F_{r^2} factors.

    Coefficient i is the discrete log of

        prod_{a in ker} zeta4^(3^i) (zeta_{2^(n+3)}^(3^i) zeta_f^a
                                     - zeta_{2^(n+3)}^(-3^i) zeta_f^(-a)),

    multiplied out factor by factor in F_{r^2}; only the full product is
    required to be Frobenius-fixed.
    """
    assert kernel.f == ctx.f, "kernel and context disagree on f"
    gf = Fp2Field(ctx.r, ctx.q)
    A0 = embedding_root(ctx, 1 << (ctx.n + 3))
    r, q, n = ctx.r, ctx.q, ctx.n
    ord2 = 1 << (n + 3)
    ksize = len(kernel.residues)
    tab = [pow(ctx.zeta_f, j, r) for j in range(ctx.f)]
    zeta4, zeta4_sqrt_q = gf.pow(A0, ord2 // 4)
    assert zeta4_sqrt_q == 0        # 4 divides r - 1
    coeffs = []
    for i in range(1 << n):
        e3 = pow(3, i, ord2)
        A = gf.pow(A0, e3)
        Ai = gf.pow(A0, ord2 - e3)
        pa, pb = 1, 0
        for a in kernel.residues:
            z, zi = tab[a], tab[ctx.f - a]
            fa = (A[0] * z - Ai[0] * zi) % r
            fb = (A[1] * z - Ai[1] * zi) % r
            pa, pb = (pa * fa + q * (pb * fb % r)) % r, (pa * fb + pb * fa) % r
        z4 = pow(zeta4, (e3 % 4) * ksize % 4, r)
        pa = pa * z4 % r
        pb = pb * z4 % r
        assert pb == 0 and pa != 0, "eta conjugate product left F_r"
        coeffs.append(dlog_two_power_bits(pa, ctx))
    return np.array(coeffs, dtype=np.int64)


def log_scalar_delta_loop(ctx: FieldContext, kernel: KernelSet, f_prime: bool) -> int:
    """The delta scalar of :func:`greenberg.cyclo_logs.log_scalar_delta`,
    one kernel residue at a time with scalar products mod r."""
    assert ctx.f % 8 == 1 and kernel.sign_case == "chi_f"
    r, f = ctx.r, ctx.f
    tab = [pow(ctx.zeta_f, j, r) for j in range(f)]
    if not f_prime:
        num = 1
        for a in kernel.residues:
            num = num * (1 - tab[a]) % r
        return dlog_two_power_bits(num, ctx)
    s = next(a for a in range(2, f) if a not in kernel)
    half = (s - 1) * pow(2, -1, f) % f
    num, den = 1, 1
    for a in kernel.residues:
        if a > (f - 1) // 2:
            continue
        num = num * tab[a * half % f] % r * (1 - tab[a]) % r
        den = den * (1 - tab[a * s % f]) % r
    return dlog_two_power_bits(num * pow(den, -1, r), ctx)


def log_poly_beta_two_vectors(ctx: FieldContext) -> np.ndarray:
    """f_r^beta of :func:`greenberg.cyclo_logs.log_poly_beta` with the
    prefactor multiplied into the numerator and separate discrete-log
    vectors for the numerators and the denominators."""
    r, n = ctx.r, ctx.n
    ord2 = 1 << (n + 2)
    e = np.asarray([pow(3, i, ord2) for i in range(1 << n)], dtype=np.int64)
    wpow = power_table(ctx.w, ord2, r)
    num = mulmod_vec(wpow[-e % ord2], (1 - wpow[3 * e % ord2]) % r, r)
    den = (1 - wpow[e]) % r
    logs = dlog_two_power_vec(np.concatenate([num, den]), ctx)
    return (logs[:1 << n] - logs[1 << n:]) % (1 << ctx.k)


def load_records_per_token(cache_dir, f: int, n: int
                           ) -> tuple[dict[int, PrimeLogRecord], list[str]]:
    """:func:`greenberg.cyclo_logs.load_records` with every coefficient
    token read by its own ``int()``, so a token past int64 is reduced
    mod 2^k instead of making its line corrupt."""
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

    def coeffs(field: str) -> np.ndarray:
        v = [int(x) % (1 << k) for x in field.split()]
        if len(v) != 1 << n:
            raise ValueError(f"log-polynomial needs {1 << n} coefficients, got {len(v)}")
        return np.array(v, dtype=np.int64)

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
            delta = None if delta_s == "-" else int(delta_s) % (1 << k)
            records[r] = PrimeLogRecord(r=r, eta=eta, beta=beta, delta_scalar=delta)
        except ValueError as exc:
            warnings.append(f"{path}:{ln}: corrupt cache line skipped ({exc})")
    return records, warnings
