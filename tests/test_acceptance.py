"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s`.  The long f=8045 row is
tagged slow and excluded by default (`pytest -m slow` runs it).
"""

import time
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from greenberg import cyclo_logs
from greenberg.cyclo_logs import compute_record, find_split_primes, get_records
from greenberg.finite_field import build_field_context
from greenberg.group_ring import HowellIdeal, RingSpec, from_coeffs, norm_element, scalar
from greenberg.quadratic import GATE_TRIVIAL, character_kernel, class_number, is_squarefree
from greenberg.verify import RunConfig, verify
from oracles import (analytic_class_number, enumerate_span, eta_square_log, field_context_fp2,
                     mutual_membership, parse_poly, subcontext, unit_norm_oracle)


@contextmanager
def criterion(cid: str, desc: str):
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"\n[ACCEPTANCE {cid}] FAIL  {desc}")
        raise
    print(f"\n[ACCEPTANCE {cid}] PASS  {desc}  ({time.perf_counter() - t0:.1f}s)")


def _expected_ideal(spec, text: str) -> HowellIdeal:
    gens = [parse_poly(p) for p in text.split(";")]
    return HowellIdeal.from_generators(spec, gens)


def test_criterion_1_f949_end_to_end():
    with criterion("1", "f=949 terminates at m=2 via (a) with J=(2,T^2), n0=2, N=2^2"):
        t0 = time.perf_counter()
        rep = verify(949, RunConfig(primes=15))
        elapsed = time.perf_counter() - t0
        assert rep.m == 2
        assert rep.criterion == "cardinality"
        assert rep.n0 == 2
        assert rep.log2_index == 2
        expected = _expected_ideal(rep.levels[-1].ideal.spec, "2;T^2")
        assert mutual_membership(rep.levels[-1].ideal, expected)
        assert elapsed < 60.0


# the published per-level ideals for f=6817 with 15 auxiliary primes
F6817_LEVELS = {
    1: ("4;T + 2", 2),
    2: ("8;4T;2T^2;T^3 + 2T + 4", 6),
    3: ("8;4T;2T^2;T^4", 7),
    4: ("16;4T;2T^2;T^4", 8),
    5: ("32;4T;2T^2;T^4", 9),
    6: ("64;4T;2T^2;T^4 + 32", 10),
    7: ("64;4T;2T^2;T^4 + 32", 10),
}


def test_criterion_2_f6817_levels():
    with criterion("2", "f=6817, M=15: levels 1..7 match the published divided ideals; "
                        "terminates at m=7 via (b); stable from 6"):
        t0 = time.perf_counter()
        rep = verify(6817, RunConfig(primes=15))
        elapsed = time.perf_counter() - t0
        assert rep.m == 7 and rep.criterion == "norm_annihilation"
        assert rep.stable_from == 6 and rep.stable_exact
        assert len(rep.levels) == 7
        for lv in rep.levels:
            text, log2 = F6817_LEVELS[lv.n]
            assert lv.log2_index == log2, lv.n
            assert mutual_membership(lv.ideal, _expected_ideal(lv.ideal.spec, text)), lv.n
        final = rep.levels[-1].ideal
        assert final.contains(scalar(1 << 6, final.spec))
        assert final.contains(norm_element(6, final.spec))
        assert elapsed < 1800.0


# published sample rows for f = 5 mod 8: f -> (generators, n0, log2 N)
TABLE_ROWS = {
    85: ("2;T^2", 2, 2),
    165: ("4;2T;T^2", 2, 3),
    533: ("4;2T;T^2 + 2", 2, 3),
    565: ("2;T^3", 2, 3),
    861: ("4;2T;T^3", 2, 4),
    645: ("8;2T + 4;T^2 + 4", 2, 4),
    1565: ("4;T^2 + 2T + 2", 2, 4),
    1085: ("4;2T^2;T^3 + 2T", 2, 5),
    2005: ("16;2T + 8;T^2", 4, 5),
    1221: ("32;2T + 8;T^2 + 16", 5, 6),
}


def test_criterion_3_table_sample():
    with criterion("3", "ten published f=5 mod 8 rows reproduce (J, n0, N) exactly"):
        for f, (text, n0, log2) in TABLE_ROWS.items():
            rep = verify(f, RunConfig(primes=15))
            assert rep.resolved, f
            assert rep.n0 == n0, f
            assert rep.log2_index == log2, f
            final = rep.levels[-1].ideal
            assert mutual_membership(final, _expected_ideal(final.spec, text)), f


@pytest.mark.slow
def test_criterion_3_slow_row_f8045():
    with criterion("3s", "slow row f=8045 -> (2048, 2T+1036, T^2+2012), n0=10, N=2^12"):
        rep = verify(8045, RunConfig(primes=15))
        assert rep.resolved
        assert rep.n0 == 10
        assert rep.log2_index == 12
        final = rep.levels[-1].ideal
        assert mutual_membership(final,
                                 _expected_ideal(final.spec, "2048;2T + 1036;T^2 + 2012"))


def test_criterion_4_trivial_gate():
    with criterion("4", "every f = 3,5,7 mod 8 with odd h in [3,200] is trivially "
                        "stable with zero levels"):
        seen = []
        for f in range(3, 201, 2):
            if not is_squarefree(f) or f % 8 == 1:
                continue
            info = class_number(f)
            if info.h % 2 == 1:
                rep = verify(f)
                assert rep.gate == GATE_TRIVIAL
                assert rep.criterion == "trivial"
                assert rep.levels == []
                seen.append(f)
        for f in (3, 7, 11):
            assert f in seen


def test_criterion_5i_beta_augmentation(rng, runnable_radicands):
    with criterion("5i", "beta log-polynomials lie in the augmentation ideal"):
        from greenberg.cyclo_logs import log_poly_beta
        for _ in range(40):
            f = rng.choice(runnable_radicands)
            n = rng.randrange(0, 4)
            r = rng.choice(find_split_primes(f, n, 3))
            ctx = build_field_context(r, n, f)
            assert log_poly_beta(ctx).sum() % (1 << ctx.k) == 0


def test_criterion_5ii_rationality_fuzz(rng, runnable_radicands):
    with criterion("5ii", "rationality assertions silent on 1000 random (f, n, r)"):
        count = 0
        kernels = {f: character_kernel(f) for f in runnable_radicands}
        while count < 1000:
            f = rng.choice(runnable_radicands)
            n = rng.randrange(0, 3)
            r = rng.choice(find_split_primes(f, n, 3))
            compute_record(f, n, r, kernels[f])   # asserts live inside
            count += 1


def test_criterion_5iii_norm_compatibility(rng, runnable_radicands):
    with criterion("5iii", "norm-compatibility collapse exact on 50 (f, m<n, r)"):
        from greenberg.cyclo_logs import log_poly_eta
        done = 0
        while done < 50:
            f = rng.choice(runnable_radicands)
            n = rng.randrange(1, 4)
            m = rng.randrange(0, n)
            r = rng.choice(find_split_primes(f, n, 2))
            k = m + 1      # the level-m precision; level-n logs are read mod 2^k
            ctx_n = build_field_context(r, n, f)
            ctx_m = subcontext(ctx_n, m)
            ker = character_kernel(f)
            top = log_poly_eta(ctx_n, ker).tolist()
            low = log_poly_eta(ctx_m, ker).tolist()
            mod = 1 << k
            for i in range(1 << m):
                assert low[i] % mod == sum(top[i + (j << m)]
                                           for j in range(1 << (n - m))) % mod
            done += 1


def test_criterion_5iv_square_identity(rng, runnable_radicands):
    with criterion("5iv", "eta square identity on 20 random f = 1 mod 4 contexts"):
        from greenberg.cyclo_logs import log_poly_eta
        pool = [f for f in runnable_radicands if f % 4 == 1]
        done = 0
        while done < 20:
            f = rng.choice(pool)
            n = rng.randrange(0, 3)
            r = rng.choice(find_split_primes(f, n, 3))
            ctx = build_field_context(r, n, f)
            ker = character_kernel(f)
            eta = log_poly_eta(ctx, ker)
            mod = 1 << ctx.k
            for i in range(1 << n):
                assert 2 * eta[i] % mod == eta_square_log(ctx, ker, i)
            done += 1


def test_criterion_5v_unit_invariance(monkeypatch):
    with criterion("5v", "alternative root-of-unity sweeps give identical ideals "
                         "at every level (f=949 and f=6817)"):
        monkeypatch.delenv("GREENBERG_CACHE", raising=False)
        fs = (949, 6817)
        ref = [verify(f, RunConfig(primes=15)) for f in fs]
        ker = character_kernel(949)
        primes = find_split_primes(949, 3, 15)
        before = get_records(949, 3, primes, ker)
        # the sweep's second passing candidate, found in F_{r^2}
        monkeypatch.setattr(cyclo_logs, "build_field_context",
                            partial(field_context_fp2, candidate_offset=1))
        # the alternative embedding changes the records themselves, so the
        # ideal comparison below is not vacuous
        assert get_records(949, 3, primes, ker) != before
        for f, a in zip(fs, ref):
            b = verify(f, RunConfig(primes=15))
            assert a.m == b.m and a.criterion == b.criterion
            assert len(a.levels) == len(b.levels)
            for la, lb in zip(a.levels, b.levels):
                assert la.ideal == lb.ideal, (f, la.n)


def test_criterion_5vi_howell_vs_enumeration(rng):
    with criterion("5vi", "Howell engine matches exhaustive enumeration, 1000 trials"):
        from greenberg.group_ring import t_shift
        for trial in range(1000):
            spec = RingSpec(2, rng.choice((1, 2)), divided=False)
            gens = [tuple(rng.randrange(4) for _ in range(spec.rank))
                    for _ in range(rng.randrange(1, 4))]
            ideal = HowellIdeal.from_generators(spec, gens)
            rows = []
            for g in gens:
                v = from_coeffs(g, spec)
                for _ in range(spec.rank):
                    rows.append(tuple(int(x) for x in v))
                    v = t_shift(v, spec)
            span = enumerate_span(rows, spec.d, spec.rank)
            assert len(span) == 1 << (spec.d * spec.rank - ideal.log2_index())
            for v in span:
                assert ideal.contains(np.array(v, dtype=np.int64))


def test_criterion_6_quadratic_module():
    with criterion("6", "h(949)=h(6817)=2; analytic oracle and unit norms agree "
                        "for all odd squarefree f < 500"):
        assert class_number(949).h == 2
        assert class_number(6817).h == 2
        for f in range(3, 500, 2):
            if not is_squarefree(f):
                continue
            info = class_number(f)
            assert info.h == analytic_class_number(f), f
            assert info.unit_norm == unit_norm_oracle(f), f
            assert info.h_narrow == (info.h if info.unit_norm == -1 else 2 * info.h)
