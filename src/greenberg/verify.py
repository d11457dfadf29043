"""Level-by-level certification that the unit-index modules stabilize.

For each level n the auxiliary-prime log-polynomials combine into pair
functionals that vanish on the norm-compatible unit families; their values
on eta generate an ideal J_n annihilating the dual of the level-n module.
Two termination criteria (a quotient-cardinality bound and a norm-element
membership) certify that the tower has stabilized; either ends the run.

f = 1 mod 8 (2 split) uses a two-stage pair construction and the T-divided
quotient presentation; otherwise the single-stage construction and the full
group-ring quotient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from greenberg.cyclo_logs import (PrimeLogRecord, default_cache_dir, find_split_primes,
                                  get_records, iter_records)
from greenberg.group_ring import (HowellIdeal, ReportedIdeal, RingSpec, Vec,
                                  canonical_generators, divide_by_aug, divided_spec,
                                  from_coeffs, full_spec, norm_element, poly_mul_mod,
                                  power_table, scalar, to_T_basis)
from greenberg.quadratic import (GATE_EXCLUDED, GATE_TRIVIAL, KernelSet, QuadFieldInfo,
                                 character_kernel, class_number)

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
    candidate_offset: int = 0     # alternative root-of-unity sweep (invariance checks)
    force_python: bool = False    # disable the vectorized field arithmetic

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


def _record_vectors(records: list[PrimeLogRecord], spec: RingSpec
                    ) -> tuple[list[Vec], list[Vec]]:
    etas = [from_coeffs(rec.eta.to_T().coeffs, spec) for rec in records]
    betas = [from_coeffs(rec.beta.to_T().coeffs, spec) for rec in records]
    return etas, betas


def build_pair_functionals_nonsplit(records: list[PrimeLogRecord],
                                    spec: RingSpec) -> list[Vec]:
    """g_(i,j) = (f_ri(beta)/T) f_rj(eta) - (f_rj(beta)/T) f_ri(eta), j < i."""
    etas, betas = _record_vectors(records, spec)
    quots = [divide_by_aug(b, spec) for b in betas]
    out = []
    for i in range(len(records)):
        for j in range(i):
            g = (poly_mul_mod(quots[i], etas[j], spec)
                 - poly_mul_mod(quots[j], etas[i], spec)) % spec.modulus
            out.append(g)
    return out


def _x_basis_values(rec: PrimeLogRecord, mod: int) -> tuple[Vec, Vec]:
    """eta and beta/T of a record in the X-basis (X = T + 1).  beta has
    augmentation 0, so beta/T = sum_i beta_i (X^i - 1)/(X - 1): coefficient
    j is the sum of beta_i over i > j (the quotient divide_by_aug takes)."""
    eta = np.asarray(rec.eta.to_X().coeffs, dtype=np.int64) % mod
    beta = np.asarray(rec.beta.to_X().coeffs, dtype=np.int64)
    quot = np.zeros_like(beta)
    quot[:-1] = np.cumsum(beta[:0:-1])[::-1] % mod
    return eta, quot


def _cyclic_mul(a: Vec, b: Vec, mod: int) -> Vec:
    """Product in Z/2^d[X]/(X^N - 1)."""
    c = np.convolve(a, b) % mod
    c[:len(a) - 1] += c[len(a):]
    return c[:len(a)] % mod


class _SplitAccumulator:
    """Incremental two-stage construction for f = 1 mod 8.

    Stage one combines delta scalars into functionals h vanishing on delta;
    stage two pairs the h's exactly like the non-split construction and
    divides the eta-values by T into the divided presentation.
    """

    def __init__(self, spec_full: RingSpec, spec_div: RingSpec, k: int):
        self.spec_full = spec_full
        self.spec_div = spec_div
        self.k = k
        self.etas: list[Vec] = []
        self.betas: list[Vec] = []
        self.deltas: list[int] = []
        self.h_eta: list[Vec] = []
        self.h_quot: list[Vec] = []   # divide_by_aug of h(beta)

    def add_prime(self, rec: PrimeLogRecord) -> list[Vec]:
        """Returns the new divided g-vectors contributed by this prime."""
        spec = self.spec_full
        eta = from_coeffs(rec.eta.to_T().coeffs, spec)
        beta = from_coeffs(rec.beta.to_T().coeffs, spec)
        assert rec.delta_scalar is not None
        i = len(self.etas)
        self.etas.append(eta)
        self.betas.append(beta)
        self.deltas.append(rec.delta_scalar % (1 << self.k))

        gs: list[Vec] = []
        for j in range(i):
            cj, ci = self.deltas[j], self.deltas[i]
            if cj == 0 and ci == 0:
                continue
            s = min(_v2_capped(cj, self.k), _v2_capped(ci, self.k))
            a, b = cj >> s, ci >> s
            h_eta = (a * self.etas[i] - b * self.etas[j]) % spec.modulus
            h_beta = (a * self.betas[i] - b * self.betas[j]) % spec.modulus
            assert h_eta[0] % spec.modulus == 0, "h(eta) must lie in the augmentation ideal"
            q_new = divide_by_aug(h_beta, spec)
            # pair the fresh functional with every registered one
            for e_old, q_old in zip(self.h_eta, self.h_quot):
                g = (poly_mul_mod(q_old, h_eta, spec)
                     - poly_mul_mod(q_new, e_old, spec)) % spec.modulus
                gs.append(divide_by_aug(g, spec, self.spec_div))
            self.h_eta.append(h_eta)
            self.h_quot.append(q_new)
        return gs


def _v2_capped(c: int, k: int) -> int:
    if c == 0:
        return k
    return min((c & -c).bit_length() - 1, k)


def build_pair_functionals_split(records: list[PrimeLogRecord], spec_full: RingSpec,
                                 spec_div: RingSpec) -> list[Vec]:
    acc = _SplitAccumulator(spec_full, spec_div, spec_full.d)
    out: list[Vec] = []
    for rec in records:
        out.extend(acc.add_prime(rec))
    return out


def run_level(f: int, n: int, config: RunConfig,
              kernel: KernelSet | None = None) -> LevelResult:
    """Accumulate the level-n ideal from config.primes auxiliary primes.

    Non-split pairs are formed in the ideal's own ring Z/2^d[T]/(M): each
    eta and beta/T is reduced modulo M once, through the table of
    (T+1)^i mod M, and a product that changes by a multiple of M, which
    lies in J, generates the same ideal.
    """
    t0 = time.perf_counter()
    kernel = kernel or character_kernel(f)
    split = _split_case(f)
    spec_full = full_spec(n)
    spec = divided_spec(n) if split else spec_full
    ideal = HowellIdeal.empty(spec)
    fetch = dict(cache_dir=config.resolved_cache_dir(),
                 candidate_offset=config.candidate_offset, force_python=config.force_python)
    if config.adaptive:
        # records are computed as the level asks for them, with one cache
        # read and at most one write for the whole level
        records = iter_records(f, n, find_split_primes(f, n, config.primes * _ADAPTIVE_CAP),
                               kernel, **fetch)
    else:
        records = get_records(f, n, find_split_primes(f, n, config.primes), kernel, **fetch)
    acc = _SplitAccumulator(spec_full, spec, spec_full.d) if split else None
    mod, rank = spec_full.modulus, spec_full.rank
    etas_x: list[Vec] = []
    quots_x: list[Vec] = []
    ring = None          # the ring etas and quots are reduced in, once M drops
    etas: list[Vec] = []
    quots: list[Vec] = []

    used: list[int] = []
    trailing_noops = 0
    quiet_primes = 0
    for count, rec in enumerate(records, start=1):
        used.append(rec.r)
        if split:
            gs = acc.add_prime(rec)
        else:
            eta_x, q_x = _x_basis_values(rec, mod)
            if ideal.ring.rank == rank:
                # no monic element below the relation yet: pair in
                # Z/2^d[X]/(X^N - 1), where reduction is a fold
                gs = [to_T_basis((_cyclic_mul(q_x, e, mod) - _cyclic_mul(qj, eta_x, mod)) % mod,
                                 mod) for e, qj in zip(etas_x, quots_x)]
            else:
                if ideal.ring is not ring:
                    ring = ideal.ring
                    xpow = power_table(from_coeffs((1, 1), ring), rank, ring)
                    etas = [e @ xpow % mod for e in etas_x]
                    quots = [q @ xpow % mod for q in quots_x]
                eta, q = eta_x @ xpow % mod, q_x @ xpow % mod
                gs = [(poly_mul_mod(q, e, ring) - poly_mul_mod(qj, eta, ring)) % mod
                      for e, qj in zip(etas, quots)]
                etas.append(eta)
                quots.append(q)
            etas_x.append(eta_x)
            quots_x.append(q_x)
        grew = False
        for g in gs:
            new_ideal = ideal.insert(g)
            if new_ideal is ideal:
                trailing_noops += 1
            else:
                trailing_noops = 0
                grew = True
            ideal = new_ideal
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
    2^(m-m0) in the divided ideal; (a) cardinality below 2^m, else (b) the
    norm-element image in the divided ideal (annihilating the quotient ring
    is membership, the quotient having an identity).
    """
    m = level.n
    ideal = level.ideal
    ring = ideal.ring    # membership in J is membership in J/(M)
    if _split_case(info.f):
        if m < info.m0:
            return None
        if not ideal.contains(scalar(1 << (m - info.m0), ring)):
            return None
        if ideal.log2_index() < m:
            return CRITERION_CARDINALITY
        if ideal.contains(norm_element(m - 1, ring)):
            return CRITERION_NORM
        return None
    if not ideal.contains(scalar(1 << m, ring)):
        return None
    if ideal.log2_index() < m + info.m0:
        return CRITERION_CARDINALITY
    if ideal.contains(norm_element(m - 1, ring)):
        return CRITERION_NORM
    return None


def _n0_sweep(ideal: HowellIdeal) -> int:
    """Least t with the level-t norm element in the (lifted) ideal.

    Membership stabilizes: inside the quotient the norm element of level
    n + d is 2^d times that of level n, hence zero, so the sweep terminates.
    """
    spec = ideal.spec
    for t in range(0, spec.n + spec.d + 1):
        if ideal.contains(norm_element(t, ideal.ring)):
            return t
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
    if info.gate == GATE_EXCLUDED:
        raise ValueError(f"f={f} is outside the verifiable family")
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
