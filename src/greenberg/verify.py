"""Level-by-level certification that the unit-index modules stabilize.

For each level n the auxiliary-prime log-polynomials combine into pair
functionals that vanish on the norm-compatible unit families; their values
on eta generate an ideal J_n annihilating the dual of the level-n module.
Two termination criteria (a quotient-cardinality bound and a norm-element
membership) certify that the tower has stabilized; either ends the run.

One pairing path serves both cases; only the functionals differ.  For
f = 1 mod 8 (2 split) the functionals are the h-combinations of the
primes, which vanish on the delta family, and J_n lives in the T-divided
presentation, so the pairings are divided by T; otherwise each prime is
its own functional and J_n lives in the full group ring.  Pairs are formed
modulo the ideal's lowest monic element M, cyclically in the X-basis while
M still has the relation's degree.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from greenberg.cyclo_logs import (PrimeLogRecord, default_cache_dir, find_split_primes,
                                  get_records, iter_records)
from greenberg.group_ring import (MAX_LEVEL, HowellIdeal, ReportedIdeal, RingSpec, Vec,
                                  canonical_generators, divided_spec, from_coeffs,
                                  from_X_coeffs, full_spec, mul_matrix, norm_element, one,
                                  poly_mul_mod, power_table, reduce_poly, scalar)
from greenberg.quadratic import (GATE_TRIVIAL, KernelSet, QuadFieldInfo, character_kernel,
                                 class_number)

CRITERION_CARDINALITY = "cardinality"
CRITERION_NORM = "norm_annihilation"
CRITERION_TRIVIAL = "trivial"

_ADAPTIVE_QUIET = 5     # consecutive no-growth primes that end an adaptive level
_ADAPTIVE_CAP = 4       # adaptive mode fetches at most this many times config.primes


@dataclass(frozen=True)
class RunConfig:
    """Knobs for a verification run (defaults mirror the reference runs)."""

    primes: int = 15
    max_level: int = 13
    adaptive: bool = False
    cache_dir: str | Path | None = None

    def __post_init__(self):
        if self.primes < 2:
            raise ValueError(f"primes={self.primes}: a pair functional needs two primes")
        if not 1 <= self.max_level <= MAX_LEVEL:
            raise ValueError(f"max_level={self.max_level} is outside [1, {MAX_LEVEL}], "
                             "the levels int64 arithmetic holds exactly")

    def resolved_cache_dir(self) -> Path | None:
        if self.cache_dir is not None:
            return Path(self.cache_dir)
        return default_cache_dir()


@dataclass
class LevelResult:
    """One computed level: the accumulated ideal plus bookkeeping."""

    n: int
    ideal: HowellIdeal
    primes_used: tuple[int, ...]
    stabilized_after: int         # trailing insertions that were no-ops
    seconds: float

    @property
    def log2_index(self) -> int:
        return self.ideal.log2_index()


@dataclass
class VerificationReport:
    """Certified outcome for one radicand.

    ``m`` is the termination level (absent when the level cap was reached),
    ``criterion`` which termination condition fired, ``stable_from`` the certified
    stabilization level (an upper bound when ``stable_exact`` is False,
    which is the cardinality criterion's case), ``n0`` the least level whose
    norm element lies in the reported ideal.
    """

    f: int
    gate: str
    info: QuadFieldInfo | None
    m: int | None = None
    criterion: str | None = None
    stable_from: int | None = None
    stable_exact: bool = False
    reported: ReportedIdeal | None = None
    n0: int | None = None
    log2_index: int | None = None
    levels: list[LevelResult] = field(default_factory=list)
    down_projection_ok: bool | None = None

    @property
    def resolved(self) -> bool:
        return self.criterion is not None


def _split_case(f: int) -> bool:
    return f % 8 == 1


def _over_T(v: Vec, mod: int) -> Vec:
    """v/T for an X-basis vector v of augmentation 0 (X = T + 1): then
    v = sum_i v_i (X^i - 1), so coefficient j of v/(X - 1) is the sum of
    v_i over i > j."""
    if v.sum() % mod:
        raise ValueError("only the augmentation ideal divides by T")
    out = np.zeros_like(v)
    out[:-1] = np.cumsum(v[:0:-1])[::-1] % mod
    return out


def _circulant(x: Vec) -> np.ndarray:
    """Rows X^j x mod X^N - 1, j < N: the matrix of multiplication by x in
    Z[X]/(X^N - 1), as a strided view of x repeated (no copy)."""
    n = len(x)
    return sliding_window_view(np.concatenate([x, x]), n)[n:0:-1]


class PairAccumulator:
    """The pair functionals of one level, fed one prime at a time, and the
    g-vectors their pairings contribute to J_n.

    A functional is a pair (e, q) of X-basis vectors: its value on eta,
    divided by T^s, and its value on beta, divided by T (s = 1 in the
    divided presentation, 0 in the full one).  Non-split, each prime is one
    functional.  Split, the delta family comes first: each new prime i
    combines with every earlier j into h = a rec_i - b rec_j, with a and b
    the delta scalars c_j, c_i stripped of their common 2-power, so h
    vanishes on delta and h(eta) lies in the augmentation ideal.  Each new
    functional is paired with every registered one:
    g = q_new e_old - q_old e_new, which is the pairing divided by T^s.

    The registered functionals are kept as two stacked matrices E and Q,
    so a new functional's g-vectors are one product E S(q) - Q S(e), for
    S(x) the matrix of multiplication by x.  g is formed in the ideal's
    ring Z/2^d[T]/(M).  While M has the relation's degree, S is the
    circulant of cyclic X-shifts, the product is taken modulo X^N - 1,
    which is T^s times the relation, and the rows are then reduced modulo
    M; once M drops, E and Q go once through the table of (T+1)^i mod M
    and are held in that ring from then on, and S(x) holds the T-shifts
    of x mod M, rank deg M.  The table is built when M first drops, and it
    and E and Q are reduced modulo the new M only when deg M drops again.
    A product or a row that changes by a multiple of M, of an earlier M or
    of the relation, all in J, generates the same ideal, and every
    membership test reads the canonical Howell remainder of its coset.
    """

    def __init__(self, spec: RingSpec):
        self.spec = spec
        self.records: list[tuple[Vec, Vec, int]] = []     # split: eta, beta, delta
        width = 1 << spec.n
        # E, Q: X-basis rows until M drops, then rows of width deg M
        self.functionals = (np.zeros((0, width), dtype=np.int64),) * 2
        self._xpow: np.ndarray | None = None      # (T+1)^i mod M, once M drops

    def add_prime(self, rec: PrimeLogRecord, ring: RingSpec) -> np.ndarray:
        """The g-vectors this prime contributes, one per row, as elements
        of ``ring``, the ideal's ring Z/2^d[T]/(M)."""
        # the record's entries and delta lie in [0, 2^d): the ring's own residues
        mod, eta, beta = self.spec.modulus, rec.eta, rec.beta
        if not self.spec.divided:
            return self._pair(eta, _over_T(beta, mod), ring)
        assert rec.delta_scalar is not None
        c = rec.delta_scalar
        gs = [np.zeros((0, ring.rank), dtype=np.int64)]
        for eta_j, beta_j, c_j in self.records:
            if c_j == 0 and c == 0:
                continue
            s = min((x & -x).bit_length() - 1 for x in (c_j, c) if x)
            a, b = c_j >> s, c >> s
            gs.append(self._pair(_over_T((a * eta - b * eta_j) % mod, mod),
                                 _over_T((a * beta - b * beta_j) % mod, mod), ring))
        self.records.append((eta, beta, c))
        return np.vstack(gs)

    def _pair(self, e: Vec, q: Vec, ring: RingSpec) -> np.ndarray:
        """Pair the functional (e, q) with every registered one, then
        register it."""
        mod = ring.modulus
        E, Q = self.functionals
        if ring.rank == self.spec.rank:
            if len(E):
                g = from_X_coeffs((E @ _circulant(q) - Q @ _circulant(e)) % mod, ring)
            else:       # a level's first functional: nothing to pair with
                g = np.zeros((0, ring.rank), dtype=np.int64)
        else:
            if self._xpow is None:
                self._xpow = power_table(from_coeffs((1, 1), ring), len(e), ring)
                E, Q = E @ self._xpow % mod, Q @ self._xpow % mod
            elif ring.rank < E.shape[1]:
                self._xpow, E, Q = (reduce_poly(x, ring) for x in (self._xpow, E, Q))
            e, q = e @ self._xpow % mod, q @ self._xpow % mod
            g = (E @ mul_matrix(q, ring) - Q @ mul_matrix(e, ring)) % mod
        self.functionals = (np.vstack([E, e]), np.vstack([Q, q]))
        return g


def run_level(f: int, n: int, config: RunConfig,
              kernel: KernelSet | None = None) -> LevelResult:
    """Accumulate the level-n ideal from config.primes auxiliary primes,
    pairing each prime's functionals modulo the ideal's monic element (see
    :class:`PairAccumulator`)."""
    t0 = time.perf_counter()
    kernel = kernel or character_kernel(f)
    spec = divided_spec(n) if _split_case(f) else full_spec(n)
    ideal = HowellIdeal.empty(spec)
    cache_dir = config.resolved_cache_dir()
    if config.adaptive:
        # records are computed as the level asks for them, with one cache
        # read and at most one write for the whole level
        records = iter_records(f, n, find_split_primes(f, n, config.primes * _ADAPTIVE_CAP),
                               kernel, cache_dir=cache_dir)
    else:
        records = get_records(f, n, find_split_primes(f, n, config.primes), kernel,
                              cache_dir=cache_dir)
    pairs = PairAccumulator(spec)

    used: list[int] = []
    trailing_noops = 0
    quiet_primes = 0
    for count, rec in enumerate(records, start=1):
        used.append(rec.r)
        gs = pairs.add_prime(rec, ideal.ring)
        grew = False
        # the prime's g-vectors in order: one stacked reduction finds the
        # first non-member, which alone is inserted; the rest are reduced
        # again against the grown ideal
        while len(gs):
            outside = np.flatnonzero(ideal.reduce_vec(gs).any(axis=1))
            if not len(outside):
                trailing_noops += len(gs)
                break
            ideal = ideal.insert(gs[outside[0]])
            trailing_noops = 0
            grew = True
            gs = gs[outside[0] + 1:]
        quiet_primes = 0 if grew or count < 2 else quiet_primes + 1
        if config.adaptive and quiet_primes >= _ADAPTIVE_QUIET:
            break
    if config.adaptive:
        records.close()
    return LevelResult(n=n, ideal=ideal, primes_used=tuple(used),
                       stabilized_after=trailing_noops,
                       seconds=time.perf_counter() - t0)


def check_termination(level: LevelResult, info: QuadFieldInfo) -> str | None:
    """The two end-of-algorithm conditions at level m = level.n.

    Non-split: needs 2^m in J_m; then (a) quotient cardinality below
    2^(m+m0), else (b) the norm element of level m-1 in J_m.  Split: needs
    m >= m0 and 2^(m-m0) in the divided ideal; (a) cardinality below 2^m,
    else (b) the norm-element image in the divided ideal (annihilating the
    quotient ring is membership, the quotient having an identity).
    """
    m = level.n
    ideal = level.ideal
    ring = ideal.ring    # membership in J is membership in J/(M)
    power, bound = (m - info.m0, m) if _split_case(info.f) else (m, m + info.m0)
    if power < 0 or not ideal.contains(scalar(1 << power, ring)):
        return None
    if ideal.log2_index() < bound:
        return CRITERION_CARDINALITY
    if ideal.contains(norm_element(m - 1, ring)):
        return CRITERION_NORM
    return None


def _n0_sweep(ideal: HowellIdeal) -> int:
    """Least t with the level-t norm element in the (lifted) ideal.

    Membership stabilizes: inside the quotient the norm element of level
    n + d is 2^d times that of level n, hence zero, so the sweep terminates.
    """
    spec, ring = ideal.spec, ideal.ring
    # the norm element of level t is prod_{j<t} (1 + (T+1)^(2^j)): each step
    # multiplies in one factor, as norm_element builds it
    norm, sq = one(ring), from_coeffs((1, 1), ring)
    for t in range(0, spec.n + spec.d + 1):
        if ideal.contains(norm):
            return t
        norm = poly_mul_mod(norm, (sq + one(ring)) % ring.modulus, ring)
        sq = poly_mul_mod(sq, sq, ring)
    raise AssertionError("norm-element sweep failed to terminate")


def _down_projection_ok(reported: ReportedIdeal, prev: LevelResult) -> bool:
    """Diagnostic: the reported ideal, read one level down, sits inside the
    previously computed ideal.  Recorded, not asserted (not a theorem)."""
    return all(prev.ideal.contains(gen) for gen in reported.generators)


def verify(f: int, config: RunConfig | None = None) -> VerificationReport:
    """Run the whole certification for one radicand.

    Levels 1, 2, ... are computed until a termination criterion fires or
    config.max_level is exceeded; the latter is the distinguished
    "unresolved" outcome, not an error.
    """
    config = config or RunConfig()
    info = class_number(f)
    report = VerificationReport(f=f, gate=info.gate, info=info)
    if info.gate == GATE_TRIVIAL:
        report.criterion = CRITERION_TRIVIAL
        report.stable_from = 0
        report.stable_exact = True
        report.n0 = 0
        report.log2_index = 0
        return report

    kernel = character_kernel(f)
    for n in range(1, config.max_level + 1):
        level = run_level(f, n, config, kernel)
        report.levels.append(level)
        crit = check_termination(level, info)
        if crit is not None:
            report.m = n
            report.criterion = crit
            report.stable_from = n - 1
            report.stable_exact = crit == CRITERION_NORM
            report.reported = canonical_generators(level.ideal)
            report.n0 = _n0_sweep(level.ideal)
            report.log2_index = report.reported.log2_index
            if len(report.levels) >= 2:
                report.down_projection_ok = _down_projection_ok(
                    report.reported, report.levels[-2])
            return report
    return report
