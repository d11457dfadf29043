import functools
import logging
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from warnings import catch_warnings, simplefilter, warn

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import greenberg
from greenberg import cyclo_logs, finite_field
from greenberg.cli import reports_json
from greenberg.cyclo_logs import (CACHE_VERSION, PrimeLogRecord, _conjugate_exponents,
                                  cache_path, compute_record, find_split_primes, get_records,
                                  load_records, log_poly_beta, log_poly_eta, log_scalar_delta,
                                  store_records)
from greenberg.finite_field import build_field_context, dlog_two_power, is_prime, mulmod_vec
from greenberg.group_ring import HowellIdeal, from_coeffs, full_spec, poly_mul_mod, to_T_basis
from greenberg.quadratic import character_kernel
from greenberg.verify import RunConfig, verify
from oracles import (cache_line_record, eta_square_log, log_poly_beta_two_vectors,
                     log_poly_eta_fp2, log_scalar_delta_loop, mutual_membership, subcontext,
                     to_X_basis)

GOLDEN = Path(__file__).parent / "golden"


def _vec(*coeffs):
    """An int64 log-polynomial vector, as records hold them."""
    return np.array(coeffs, dtype=np.int64)


class TestFindSplitPrimes:
    def test_paper_level_one(self):
        assert find_split_primes(949, 1, 6) == [22777, 45553, 60737, 68329, 136657, 151841]

    def test_paper_level_two(self):
        assert find_split_primes(949, 2, 4) == [45553, 60737, 136657, 151841]

    def test_smallest_case(self):
        assert find_split_primes(3, 0, 1) == [13]

    def test_congruence(self):
        for r in find_split_primes(21, 2, 5):
            assert r % (16 * 21) == 1 and is_prime(r)

    def test_cap(self, monkeypatch):
        monkeypatch.setattr(cyclo_logs, "PRIME_SWEEP_CAP", 2)
        with pytest.raises(RuntimeError):
            find_split_primes(949, 1, 3)


# the published level-1 table for f = 949: r -> (eta(T), beta(T)/T)
PAPER_949_N1 = {
    22777: ((0, 1), (0, 3)),
    45553: ((2, 3), (0, 3)),
    60737: ((0, 3), (0, 3)),
    68329: ((2, 2), (0, 2)),
    136657: ((0, 3), (0, 1)),
    151841: ((0, 0), (0, 2)),
}

# the published level-2 table: r -> (eta(T), T-coefficients low-to-high)
PAPER_949_N2 = {
    45553: ((2, 5, 0, 2), (0, 3, 2, 2)),
    60737: ((4, 1, 6, 7), (0, 5, 5, 5)),
    136657: ((0, 5, 0, 4), (0, 3, 5, 7)),
    151841: ((0, 2, 7, 1), (0, 6, 6, 6)),
    182209: ((4, 2, 4, 6), (0, 0, 7, 4)),
    273313: ((6, 3, 2, 6), (0, 1, 7, 5)),
}


class TestAgainstPaperTables:
    """The published records need not come from the production embedding,
    so these checks compare only what the production records share with
    them: the cross products agree and each polynomial generates the same
    principal ideal as the published one.  They do not hold for every
    embedding (another candidate breaks the cross products at some primes);
    the exact records are pinned by ``test_golden_records``, and the level
    ideals' independence of the embedding is criterion 5v."""

    @pytest.mark.parametrize("n,table", [(1, PAPER_949_N1), (2, PAPER_949_N2)])
    def test_level_table(self, n, table):
        ker = character_kernel(949)
        spec = full_spec(n)
        for r, (eta_pub, beta_pub) in table.items():
            rec = compute_record(949, n, r, ker)
            eta = from_coeffs(to_T_basis(rec.eta, spec.modulus), spec)
            beta = from_coeffs(to_T_basis(rec.beta, spec.modulus), spec)
            pe = from_coeffs(eta_pub, spec)
            pb = from_coeffs(beta_pub, spec)
            assert np.array_equal(poly_mul_mod(eta, pb, spec),
                                  poly_mul_mod(pe, beta, spec)), r
            assert mutual_membership(HowellIdeal.empty(spec).insert(eta),
                                     HowellIdeal.empty(spec).insert(pe)), r
            assert mutual_membership(HowellIdeal.empty(spec).insert(beta),
                                     HowellIdeal.empty(spec).insert(pb)), r

    def test_zero_row_is_exact(self):
        # zero is invariant under units, so the table's 0 entry is exact
        ker = character_kernel(949)
        rec = compute_record(949, 1, 151841, ker)
        assert rec.eta.tolist() == [0, 0]


# exact records under the production embedding: (f, n) -> r -> (eta, beta,
# delta) in the X-basis.  Unlike the unit-insensitive checks above, these
# change when the embedding does.
GOLDEN_RECORDS = {
    (949, 1): {
        22777: ((3, 1), (1, 3), None),
        45553: ((3, 3), (1, 3), None),
        60737: ((1, 3), (1, 3), None),
        68329: ((2, 0), (2, 2), None),
        136657: ((1, 3), (3, 1), None),
        151841: ((0, 0), (2, 2), None),
    },
    (949, 2): {
        45553: ((2, 2, 3, 3), (4, 2, 5, 5), None),
        60737: ((2, 2, 1, 7), (3, 2, 6, 5), None),
        136657: ((4, 4, 7, 1), (0, 7, 3, 6), None),
        151841: ((4, 7, 4, 1), (2, 4, 4, 6), None),
        182209: ((0, 4, 6, 2), (5, 2, 5, 4), None),
        273313: ((0, 6, 7, 1), (7, 6, 0, 3), None),
    },
    (6817, 2): {
        109073: ((6, 0, 6, 4), (1, 4, 4, 7), 0),
        1090721: ((6, 4, 2, 4), (5, 1, 0, 2), 2),
        1745153: ((0, 6, 4, 6), (7, 5, 4, 0), 4),
        5889889: ((6, 4, 6, 0), (2, 3, 3, 0), 0),
    },
}


@pytest.mark.parametrize("f,n", sorted(GOLDEN_RECORDS))
def test_golden_records(f, n):
    table = GOLDEN_RECORDS[f, n]
    ker = character_kernel(f)
    assert find_split_primes(f, n, len(table)) == sorted(table)
    for r, want in table.items():
        rec = compute_record(f, n, r, ker)
        assert (tuple(rec.eta.tolist()), tuple(rec.beta.tolist()), rec.delta_scalar) == want, r


class TestBeta:
    def test_level_zero_is_zero_sequence(self):
        # beta_0 = -1 and log(-1) = 0 whenever r = 1 mod 2^(k+1)
        for r in find_split_primes(949, 0, 3):
            ctx = build_field_context(r, 0, 949)
            assert log_poly_beta(ctx).tolist() == [0]

    def test_augmentation_vanishes(self, rng, small_radicands):
        for _ in range(25):
            f = rng.choice(small_radicands)
            n = rng.randrange(0, 3)
            r = rng.choice(find_split_primes(f, n, 3))
            ctx = build_field_context(r, n, f)
            assert log_poly_beta(ctx).sum() % (1 << ctx.k) == 0

    @pytest.mark.parametrize("f", [949, 323])
    def test_matches_two_vector_oracle(self, f, arithmetic_branch):
        # at n = 0, 3^(2^n) = 3 is not 1 mod 2^(n+2), the order of w: the
        # last numerator is not the first denominator
        for n in range(7):
            for r in find_split_primes(f, n, 2):
                ctx = build_field_context(r, n, f)
                assert np.array_equal(log_poly_beta(ctx), log_poly_beta_two_vectors(ctx)), \
                    (f, n, r)


@functools.cache
def _three_powers_loop(count: int, mod: int) -> np.ndarray:
    return np.asarray([pow(3, i, mod) for i in range(count)], dtype=np.int64)


def test_conjugate_exponents(arithmetic_branch):
    # int64 in every branch: they index residue vectors.  3^i mod 2^(n+3)
    # is the loop's 3^i mod 2^23 reduced, for every n <= 20
    loop = _three_powers_loop(1 << 20, 1 << 23)
    _conjugate_exponents.cache_clear()      # built afresh in this branch
    for n in range(21):
        e = _conjugate_exponents(n)
        assert e.dtype == np.int64
        assert np.array_equal(e, loop[:1 << n] % (1 << (n + 3))), n


class TestEta:
    def test_rationality_fuzz(self, rng, runnable_radicands):
        # the in-function assertions must never fire on the algorithm's domain
        for _ in range(60):
            f = rng.choice(runnable_radicands)
            n = rng.randrange(0, 3)
            r = rng.choice(find_split_primes(f, n, 3))
            ctx = build_field_context(r, n, f)
            log_poly_eta(ctx, character_kernel(f))

    def test_numpy_and_python_paths_agree(self, rng, runnable_radicands, monkeypatch):
        # the branches switch on r alone: lowering the limits sends small r
        # down the float-corrected products and the Python-int vectors
        for _ in range(8):
            f = rng.choice(runnable_radicands)
            n = rng.randrange(0, 3)
            r = rng.choice(find_split_primes(f, n, 2))
            ker = character_kernel(f)
            ctx = build_field_context(r, n, f)
            fast = log_poly_eta(ctx, ker)
            with monkeypatch.context() as m:
                m.setattr(finite_field, "_NUMPY_LIMIT", 0)
                float_corrected = log_poly_eta(ctx, ker)
            with monkeypatch.context() as m:
                m.setattr(finite_field, "_FLOAT_LIMIT", 0)
                slow = log_poly_eta(ctx, ker)
            assert np.array_equal(fast, float_corrected)
            assert np.array_equal(fast, slow)

    def test_matches_fp2_oracle(self, rng, runnable_radicands, arithmetic_branch):
        # the F_r product over all conjugates equals the F_{r^2} product
        # taken conjugate by conjugate
        for _ in range(10):
            f = rng.choice(runnable_radicands)
            n = rng.randrange(0, 5)
            r = rng.choice(find_split_primes(f, n, 3))
            ctx = build_field_context(r, n, f)
            ker = character_kernel(f)
            assert np.array_equal(log_poly_eta(ctx, ker), log_poly_eta_fp2(ctx, ker)), (f, n, r)

    @pytest.mark.parametrize("f", [1605, 323])
    def test_matches_fp2_oracle_each_case(self, f, arithmetic_branch):
        # 1605 = 1 mod 4 pairs a with -a; 323 = 3 mod 4 does not
        ker = character_kernel(f)
        for n in range(5):
            for r in find_split_primes(f, n, 2):
                ctx = build_field_context(r, n, f)
                assert np.array_equal(log_poly_eta(ctx, ker), log_poly_eta_fp2(ctx, ker)), \
                    (f, n, r)

    def test_matches_fp2_oracle_1605(self):
        ker = character_kernel(1605)
        for r in find_split_primes(1605, 6, 2):
            ctx = build_field_context(r, 6, 1605)
            assert np.array_equal(log_poly_eta(ctx, ker), log_poly_eta_fp2(ctx, ker)), r

    @pytest.mark.parametrize("f", [3, 11, 19])
    def test_leaves_F_r_like_fp2_oracle(self, f):
        # the kernel has odd size here, so the product is rational exactly
        # when zeta_{2^(n+3)} is, i.e. when r = 1 mod 2^(n+3); both paths
        # must reject the same primes and agree on the rest
        ker = character_kernel(f)
        rejected = 0
        for n in (1, 2, 3):
            for r in find_split_primes(f, n, 3):
                ctx = build_field_context(r, n, f)
                if r % (1 << (n + 3)) == 1:
                    assert np.array_equal(log_poly_eta(ctx, ker), log_poly_eta_fp2(ctx, ker))
                    continue
                rejected += 1
                for path in (log_poly_eta, log_poly_eta_fp2):
                    with pytest.raises(AssertionError, match="left F_r"):
                        path(ctx, ker)
        assert rejected > 0

    def test_norm_compatibility_collapse(self, rng, runnable_radicands):
        # level-m coefficients are partial sums of level-n coefficients when
        # the contexts share one embedding; the level-n logs, taken at
        # precision n + 1, are read mod 2^(m+1), the level-m precision
        checked = 0
        while checked < 12:
            f = rng.choice(runnable_radicands)
            n = rng.randrange(1, 4)
            m = rng.randrange(0, n)
            r = rng.choice(find_split_primes(f, n, 2))
            k = m + 1
            ctx_n = build_field_context(r, n, f)
            ctx_m = subcontext(ctx_n, m)
            ker = character_kernel(f)
            top = log_poly_eta(ctx_n, ker).tolist()
            low = log_poly_eta(ctx_m, ker).tolist()
            mod = 1 << k
            for i in range(1 << m):
                total = sum(top[i + (j << m)] for j in range(1 << (n - m))) % mod
                assert low[i] % mod == total, (f, n, m, r, i)
            checked += 1

    def test_square_identity(self, rng, runnable_radicands):
        # doubling the eta coefficients equals the log of the cyclotomic-norm
        # square, computed conjugate by conjugate (f = 1 mod 4 case)
        pool = [f for f in runnable_radicands if f % 4 == 1]
        for _ in range(6):
            f = rng.choice(pool)
            n = rng.randrange(0, 3)
            r = rng.choice(find_split_primes(f, n, 2))
            ctx = build_field_context(r, n, f)
            ker = character_kernel(f)
            eta = log_poly_eta(ctx, ker)
            mod = 1 << ctx.k
            for i in range(1 << n):
                assert 2 * eta[i] % mod == eta_square_log(ctx, ker, i), (f, n, r, i)

    def test_square_identity_3_mod_4(self, rng, runnable_radicands):
        # same identity through the sqrt(-1)*sqrt(-f) norm-group description;
        # this is the only absolute cross-check of the 3 mod 4 eta family
        from oracles import eta_square_log_3mod4
        pool = [f for f in runnable_radicands if f % 4 == 3]
        for _ in range(6):
            f = rng.choice(pool)
            n = rng.randrange(0, 3)
            r = rng.choice(find_split_primes(f, n, 2))
            ctx = build_field_context(r, n, f)
            ker = character_kernel(f)
            eta = log_poly_eta(ctx, ker)
            mod = 1 << ctx.k
            for i in range(1 << n):
                assert 2 * eta[i] % mod == eta_square_log_3mod4(ctx, ker, i), \
                    (f, n, r, i)


class TestDelta:
    def test_requires_split_f(self):
        ctx = build_field_context(22777, 1, 949)
        with pytest.raises(ValueError):
            log_scalar_delta(ctx, character_kernel(949), False)

    def test_prime_f_square_identity(self):
        # delta^2 = D^(1-sigma) with D the full-kernel product of (1 - zeta_f^a):
        # an independent evaluation of the defining square
        f = 17
        ker = character_kernel(f)
        for r in find_split_primes(f, 1, 3):
            ctx = build_field_context(r, 1, f)
            c = log_scalar_delta(ctx, ker, f_prime=True)
            tab = [pow(ctx.zeta_f, j, ctx.r) for j in range(f)]
            s = next(a for a in range(2, f) if a not in ker)
            D = 1
            Ds = 1
            for a in ker.residues:
                D = D * (1 - tab[a]) % ctx.r
                Ds = Ds * (1 - tab[a * s % f]) % ctx.r
            want = (dlog_two_power(D, ctx) - dlog_two_power(Ds, ctx)) % (1 << ctx.k)
            assert 2 * c % (1 << ctx.k) == want, r

    @pytest.mark.parametrize("f", [17, 41, 113, 161, 505, 1609, 6817])
    def test_matches_loop_oracle(self, f, arithmetic_branch):
        ker = character_kernel(f)
        for n in (1, 2, 3):
            for r in find_split_primes(f, n, 2):
                ctx = build_field_context(r, n, f)
                assert log_scalar_delta(ctx, ker, is_prime(f)) == \
                    log_scalar_delta_loop(ctx, ker, is_prime(f)), (f, n, r)

    def test_composite_f_runs(self):
        f = 6817
        ker = character_kernel(f)
        r = find_split_primes(f, 1, 1)[0]
        ctx = build_field_context(r, 1, f)
        c = log_scalar_delta(ctx, ker, f_prime=False)
        assert 0 <= c < 1 << ctx.k

    def test_record_carries_delta_only_when_split(self):
        ker = character_kernel(6817)
        rec = compute_record(6817, 1, find_split_primes(6817, 1, 1)[0], ker)
        assert rec.delta_scalar is not None
        ker949 = character_kernel(949)
        rec949 = compute_record(949, 1, 22777, ker949)
        assert rec949.delta_scalar is None


class TestMulmodFloatPath:
    def test_matches_exact_bigint(self, rng):
        for r in ((1 << 31) + 11, (1 << 40) + 5, (1 << 49) + 9):
            a = np.array([rng.randrange(r) for _ in range(200)], dtype=np.int64)
            b = np.array([rng.randrange(r) for _ in range(200)], dtype=np.int64)
            got = mulmod_vec(a, b, r)
            want = [int(x) * int(y) % r for x, y in zip(a, b)]
            assert [int(v) for v in got] == want

    def test_boundary_values(self):
        r = (1 << 49) + 9
        vals = np.array([0, 1, r - 1, r - 2, r // 2, r // 2 + 1], dtype=np.int64)
        got = mulmod_vec(vals, vals, r)
        want = [int(v) * int(v) % r for v in vals]
        assert [int(v) for v in got] == want


class TestCache:
    def _records(self, f, n, count):
        ker = character_kernel(f)
        return {r: compute_record(f, n, r, ker) for r in find_split_primes(f, n, count)}

    def test_round_trip_bit_identical(self, tmp_path):
        recs = self._records(21, 1, 3)
        store_records(tmp_path, 21, 1, recs)
        loaded, warnings = load_records(tmp_path, 21, 1)
        assert warnings == []
        assert loaded == recs
        text1 = cache_path(tmp_path, 21, 1).read_text()
        store_records(tmp_path, 21, 1, loaded)
        assert cache_path(tmp_path, 21, 1).read_text() == text1

    def test_golden_line(self, tmp_path):
        rec = PrimeLogRecord(22777, _vec(0, 1), _vec(3, 1), None)
        path = store_records(tmp_path, 21, 1, {22777: rec})
        assert path.read_text() == ("# greenberg-logcache v1 (X-basis coefficients)\n"
                                    "21 1 22777 | 0 1 | 3 1 | -\n")

    def test_corrupt_line_skipped(self, tmp_path):
        recs = self._records(21, 1, 2)
        p = store_records(tmp_path, 21, 1, recs)
        lines = p.read_text().splitlines()
        lines.insert(2, "21 1 garbage | 1 2 | 3 4 | -")
        p.write_text("\n".join(lines) + "\n")
        loaded, warnings = load_records(tmp_path, 21, 1)
        assert len(loaded) == 2
        assert len(warnings) == 1 and "corrupt" in warnings[0]

    def test_invalid_records_skipped_under_optimize(self, tmp_path):
        # python -O strips asserts; a short eta and a beta outside the
        # augmentation ideal must still be skipped with a warning each, and
        # records with unequal lengths, a length that is not a power of two,
        # an entry outside [0, 2^k) or beta outside the augmentation ideal
        # must still be rejected
        recs = self._records(21, 1, 1)
        p = store_records(tmp_path, 21, 1, recs)
        p.write_text(p.read_text() + "21 1 101 | 1 | 1 3 | -\n21 1 103 | 0 1 | 1 1 | -\n")
        bad = [((0, 1), (1, 3, 0, 0)), ((0, 1, 2), (0, 0, 0)), ((0, 4), (1, 3)),
               ((0, -1), (1, 3)), ((0, 1), (-1, 1)), ((0, 1), (1, 1))]
        code = ("import sys; import numpy as np; "
                "from greenberg.cyclo_logs import PrimeLogRecord, load_records\n"
                "loaded, warnings = load_records(sys.argv[1], 21, 1)\n"
                "rejected = 0\n"
                f"for eta, beta in {bad!r}:\n"
                "    try:\n"
                "        PrimeLogRecord(5, np.array(eta, dtype=np.int64),\n"
                "                       np.array(beta, dtype=np.int64), None)\n"
                "    except ValueError:\n"
                "        rejected += 1\n"
                "print(sorted(loaded), len(warnings), rejected)")
        src = str(Path(greenberg.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-O", "-c", code, str(tmp_path)], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == [str(sorted(recs)), "2", str(len(bad))]

    def test_lower_level_line_skipped(self, tmp_path):
        # a level-1 line is a valid record on its own: only the loader knows
        # the file's level needs 2^2 coefficients
        header = f"# {CACHE_VERSION}\n"
        cache_path(tmp_path, 21, 2).write_text(header + "21 2 5 | 0 1 | 3 1 | -\n")
        loaded, warnings = load_records(tmp_path, 21, 2)
        assert loaded == {} and len(warnings) == 1 and "corrupt" in warnings[0]

    def test_delta_presence_follows_f(self, tmp_path):
        # delta exists exactly when f = 1 mod 8: a line that disagrees is
        # corrupt, and so is a present delta outside [0, 2^k), like eta's
        # and beta's entries
        header = f"# {CACHE_VERSION}\n"
        cache_path(tmp_path, 21, 1).write_text(header + "21 1 5 | 0 1 | 3 1 | 2\n")
        loaded, warnings = load_records(tmp_path, 21, 1)
        assert loaded == {} and len(warnings) == 1 and "corrupt" in warnings[0]
        cache_path(tmp_path, 17, 1).write_text(
            header + "17 1 5 | 0 1 | 3 1 | -\n17 1 7 | 0 1 | 3 1 | 2\n17 1 11 | 0 1 | 3 1 | 6\n")
        loaded, warnings = load_records(tmp_path, 17, 1)
        assert list(loaded) == [7] and loaded[7].delta_scalar == 2
        assert [w.split(": corrupt")[0][-2:] for w in warnings] == [":2", ":4"]
        assert "delta scalar must lie in [0, 4)" in warnings[1]

    def test_split_line_without_delta_recomputed(self, tmp_path, caplog):
        # a f = 6817 line stripped of its delta is skipped with one warning
        # and recomputed: the certificate is the uncached one
        primes = find_split_primes(6817, 1, 15)
        get_records(6817, 1, primes, character_kernel(6817), cache_dir=tmp_path)
        path = cache_path(tmp_path, 6817, 1)
        lines = path.read_text().split("\n")
        lines[3] = lines[3].rpartition("|")[0] + "| -"
        path.write_text("\n".join(lines))
        with caplog.at_level(logging.WARNING, logger="greenberg.cyclo_logs"):
            rep = verify(6817, RunConfig(cache_dir=tmp_path))
        assert reports_json([rep]) == (GOLDEN / "verify_6817.json").read_text()
        assert [r.getMessage() for r in caplog.records if "corrupt" in r.getMessage()] \
            == [f"cache warning: {path}:4: corrupt cache line skipped "
                "(delta present exactly when f = 1 mod 8)"]

    def test_version_bump_invalidates(self, tmp_path):
        recs = self._records(21, 1, 1)
        p = store_records(tmp_path, 21, 1, recs)
        body = p.read_text().replace(CACHE_VERSION, "greenberg-logcache v0")
        p.write_text(body)
        loaded, warnings = load_records(tmp_path, 21, 1)
        assert loaded == {} and "version mismatch" in warnings[0]

    def test_interrupted_store_never_read(self, tmp_path, monkeypatch):
        recs = self._records(21, 1, 3)
        store_records(tmp_path, 21, 1, {r: recs[r] for r in sorted(recs)[:1]})
        before = cache_path(tmp_path, 21, 1).read_text()

        def write_half(path, text):
            with open(path, "w") as fh:
                fh.write(text[:len(text) // 2])
            raise KeyboardInterrupt("store interrupted")

        monkeypatch.setattr(Path, "write_text", write_half)
        with pytest.raises(KeyboardInterrupt):
            store_records(tmp_path, 21, 1, recs)
        monkeypatch.undo()
        # the previous file is untouched and no partial file is left behind
        assert cache_path(tmp_path, 21, 1).read_text() == before
        assert [p.name for p in tmp_path.iterdir()] == ["logs_21_1.txt"]
        loaded, warnings = load_records(tmp_path, 21, 1)
        assert warnings == [] and list(loaded) == sorted(recs)[:1]

    def test_get_records_uses_cache(self, tmp_path):
        from greenberg.cyclo_logs import get_records
        ker = character_kernel(21)
        primes = find_split_primes(21, 1, 3)
        first = get_records(21, 1, primes, ker, cache_dir=tmp_path)
        assert cache_path(tmp_path, 21, 1).exists()
        again = get_records(21, 1, primes, ker, cache_dir=tmp_path)
        assert first == again


# a cache line: any bytes but the line separator, or a valid (21, 1) record
_lines = (st.binary(max_size=80).map(lambda b: b.replace(b"\n", b""))
          | st.sampled_from([b"21 1 22777 | 0 1 | 3 1 | -", b" 21 1 5 |3 3| 2 2 |- "]))


@st.composite
def _records(draw):
    """Valid records of one (f, n, k = n + 1) key: beta's coefficients sum
    to 0, and delta is present exactly when f = 1 mod 8."""
    f = draw(st.sampled_from([17, 21]))
    n = draw(st.integers(0, 3))
    mod = 1 << (n + 1)
    coeffs = st.lists(st.integers(0, mod - 1), min_size=1 << n, max_size=1 << n)
    out = {}
    for r in draw(st.sets(st.integers(1, 1 << 62), max_size=4)):
        eta = draw(coeffs)
        beta = draw(coeffs)
        beta[-1] = (beta[-1] - sum(beta)) % mod
        delta = draw(st.integers(0, mod - 1)) if f % 8 == 1 else None
        out[r] = PrimeLogRecord(r, _vec(*eta), _vec(*beta), delta)
    return f, n, out


class TestCacheFuzz:
    @given(st.lists(_lines, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_arbitrary_lines_never_raise(self, lines):
        # a line is bad when, alone after the header, it yields no record;
        # in any file each bad line gives exactly one warning, naming it
        header = f"# {CACHE_VERSION}\n".encode()
        with tempfile.TemporaryDirectory() as d:
            path = cache_path(d, 21, 1)
            bad = []
            for ln, line in enumerate(lines, start=2):
                path.write_bytes(header + line + b"\n")
                alone, warnings = load_records(d, 21, 1)
                assert len(alone) + len(warnings) <= 1
                if warnings:
                    bad.append(ln)
            path.write_bytes(header + b"\n".join(lines))
            _, warnings = load_records(d, 21, 1)
        assert [int(w[len(str(path)) + 1:].split(":")[0]) for w in warnings] == bad

    @given(_records())
    @settings(max_examples=100, deadline=None)
    def test_store_load_round_trip(self, case):
        f, n, records = case
        with tempfile.TemporaryDirectory() as d:
            store_records(d, f, n, records)
            assert load_records(d, f, n) == (records, [])


# the digit sets int() reads besides ASCII: Arabic-Indic, Devanagari,
# fullwidth and mathematical bold
_DIGITS = ("\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669",
           "\u0966\u0967\u0968\u0969\u096a\u096b\u096c\u096d\u096e\u096f",
           "\uff10\uff11\uff12\uff13\uff14\uff15\uff16\uff17\uff18\uff19",
           "\U0001d7ce\U0001d7cf\U0001d7d0\U0001d7d1\U0001d7d2\U0001d7d3\U0001d7d4"
           "\U0001d7d5\U0001d7d6\U0001d7d7")
_VALUES = {"2^k": st.just(4), "int64": st.integers(4, (1 << 63) - 1),
           "past int64": st.integers(1 << 63, 1 << 80)}
_MUTATIONS = ("lone sign", "sign", "underscore", "leading zeros", "digit set", *_VALUES)
# whitespace fromstring reads as a separator, none, or a character it cannot read
_SEPS = ("  ", "", "\t", "\v", "\f", "\r", "\x1c", "\u2003")


def _mutated(draw, token: str) -> str:
    """token with one mutation: a lone sign, a sign, an underscore, leading
    zeros, another digit set int() reads, or the value 2^k = 4, one up to
    int64's maximum (where fromstring saturates) or one past it."""
    mutation = draw(st.sampled_from(_MUTATIONS))
    if mutation == "lone sign":
        return draw(st.sampled_from("+-"))
    if mutation in _VALUES or not token.isdigit():     # delta's "-" gets a value
        token = str(draw(_VALUES.get(mutation, st.integers(0, 3))))
    if mutation == "leading zeros":
        token = "0" * draw(st.integers(1, 20)) + token
    elif mutation == "digit set":
        token = "".join(draw(st.sampled_from(_DIGITS))[int(c)] for c in token)
    elif mutation == "underscore":
        cut = draw(st.integers(0, len(token)))
        token = token[:cut] + draw(st.sampled_from(["_", "__"])) + token[cut:]
    elif mutation == "sign":
        token = draw(st.sampled_from("+-")) + token
    return token


@st.composite
def _near_valid_line(draw):
    """f and a level-1 cache line of f = 17 (delta present) or 21 (absent):
    a valid line with up to three of its numbers mutated by _mutated, its
    separators swapped for _SEPS or its delta's presence flipped, and
    perhaps leading whitespace."""
    f = draw(st.sampled_from([17, 21]))
    eta = draw(st.lists(st.integers(0, 3), min_size=2, max_size=2))
    beta = draw(st.integers(0, 3))
    delta = str(draw(st.integers(0, 3))) if f % 8 == 1 else "-"
    # numbers at the even places, separators at the odd ones
    parts = [str(f), " ", "1", " ", "22777", " | ", str(eta[0]), " ", str(eta[1]), " | ",
             str(beta), " ", str(-beta % 4), " | ", delta]
    for i in draw(st.lists(st.integers(0, len(parts) - 1), max_size=3, unique=True)):
        if i % 2:
            parts[i] = parts[i].replace(" ", draw(st.sampled_from(_SEPS)), draw(st.integers(1, 2)))
        elif i == len(parts) - 1 and draw(st.booleans()):
            parts[i] = "1" if delta == "-" else "-"
        else:
            parts[i] = _mutated(draw, parts[i])
    return f, draw(st.sampled_from(["", "", "", " ", "\t"])) + "".join(parts)


def _load_line(f: int, line: str):
    """load_records on a level-1 file holding one line, and the file."""
    with tempfile.TemporaryDirectory() as d:
        path = cache_path(d, f, 1)
        path.write_bytes(f"# {CACHE_VERSION}\n{line}\n".encode())
        return load_records(d, f, 1), path


class TestCacheLineGrammar:
    """load_records takes exactly the lines store_records writes: a line
    loads when the grammar oracle accepts it, and to the oracle's record;
    any other line gives exactly one warning."""

    def _check(self, f, line):
        want = cache_line_record(line, f, 1)
        (got, warnings), path = _load_line(f, line)
        if want is None:
            assert got == {} and len(warnings) == 1, (got, warnings)
            assert warnings[0].startswith(f"{path}:2: corrupt cache line skipped (")
        else:
            assert (got, warnings) == ({want.r: want}, [])
        return want is not None

    @pytest.mark.parametrize("eta", [
        "1 2x",         # trailing data, where numpy < 2 only warns
        "1 2 x", "1 -", "- 1", "+ 1", "1 +",   # fromstring reads a lone sign as 0
        "\u0661 \u0663", "1_0 1",                # tokens int() reads
        "9223372036854775807 1", "9223372036854775808 1",   # 2^63 - 1, 2^63 (saturated)
        "99999999999999999999 1", "4 1",       # past int64, 2^k
        "1  1", "1\t1", " 1 1", "1 1 ",         # whitespace fromstring reads
        "0 1", "00000000000000000003 1",      # the two that load
    ])
    def test_eta_field(self, eta):
        loads = eta in ("0 1", "00000000000000000003 1")
        assert self._check(21, f"21 1 22777 | {eta} | 1 3 | -") == loads

    @pytest.mark.parametrize("f, line, loads", [
        (17, "17 1 22777 | 0 1 | 1 3 | 3", True),
        (17, "17 1 22777 | 0 1 | 1 3 | 4", False),      # a delta of 2^k
        (17, "17 1 22777 | 0 1 | 1 3 | +3", False),
        (17, "17 1 22777 | 0 1 | 1 3 | -", False),      # delta absent although f = 1 mod 8
        (21, "21 1 22777 | 0 1 | 1 3 | 3", False),      # present although f != 1 mod 8
        (21, "21 1 22777 | 0 1 | 1 3 |  -", False),
        (21, "21 1 22777 | 0 1 | 1 3 | - ", False),
        (21, "21 1 22777 | 0 1 | 1 3 | -\r", False),
        (21, " 21 1 22777 | 0 1 | 1 3 | -", False),
        (21, "21  1 22777 | 0 1 | 1 3 | -", False),
        (21, "21 1 +22777 | 0 1 | 1 3 | -", False),
        (21, "21 1 \u0662 | 0 1 | 1 3 | -", False),
        (21, "21 1 22777|0 1|1 3|-", False),
        (21, " ", False),
        (21, "21 1 318665857834031151167461 | 0 1 | 1 3 | -", True),    # r past int64
    ])
    def test_line(self, f, line, loads):
        assert self._check(f, line) == loads

    def test_numpy1_trailing_data_warning(self, monkeypatch):
        # numpy < 2 returns the tokens read before trailing data with a
        # DeprecationWarning instead of raising: "1 2x" must still be corrupt
        fromstring = np.fromstring

        def numpy1_fromstring(field, dtype, sep):
            try:
                return fromstring(field, dtype=dtype, sep=sep)
            except ValueError:
                warn("string or file could not be read to its end due to unmatched "
                     "data; this will raise a ValueError in the future.",
                     DeprecationWarning, stacklevel=2)
                return fromstring(field.rstrip("x"), dtype=dtype, sep=sep)

        monkeypatch.setattr(cyclo_logs.np, "fromstring", numpy1_fromstring)
        with catch_warnings():      # the loader's own filter, not the test run's
            simplefilter("ignore", DeprecationWarning)
            (got, warnings), path = _load_line(21, "21 1 22777 | 1 2x | 1 3 | -")
        assert got == {} and len(warnings) == 1 and "could not be read" in warnings[0]

    @given(_near_valid_line())
    @settings(max_examples=400, deadline=None)
    def test_loads_exactly_the_grammar(self, case):
        self._check(*case)


class TestPrimeLogRecord:
    def test_basis_round_trip(self):
        rec = PrimeLogRecord(0, _vec(1, 2, 3, 4), _vec(1, 2, 3, 2), None)
        t = to_T_basis(rec.eta, 8)
        assert t.tolist() == [2, 4, 7, 4]      # 1 + 2X + 3X^2 + 4X^3 at X = T + 1
        assert np.array_equal(to_X_basis(t, 8), rec.eta)

    def test_aug_is_basis_independent(self):
        rec = PrimeLogRecord(0, _vec(0, 1), _vec(3, 1), None)
        assert rec.beta.sum() % 4 == to_T_basis(rec.beta, 4)[0] == 0

    @pytest.mark.parametrize("f,n", [(949, 2), (6817, 1), (323, 3)])
    def test_vectors_int64_read_only(self, f, n, arithmetic_branch):
        # every branch hands add_prime int64 vectors it can use as they are
        r = find_split_primes(f, n, 1)[0]
        rec = compute_record(f, n, r, character_kernel(f))
        for v in (rec.eta, rec.beta):
            assert v.dtype == np.int64 and len(v) == 1 << n
            assert not v.flags.writeable
            with pytest.raises(ValueError):
                v[0] = 0

    @pytest.mark.parametrize("delta", [-1, 4, 1 << 63])
    def test_delta_outside_range_rejected(self, delta):
        PrimeLogRecord(0, _vec(0, 1), _vec(3, 1), 3)
        with pytest.raises(ValueError, match="delta scalar"):
            PrimeLogRecord(0, _vec(0, 1), _vec(3, 1), delta)

    def test_kernel_not_kept(self):
        # nothing the records are built from holds on to the kernel, so a
        # long-lived process (a table worker) keeps no radicand's kernel; a
        # fresh interpreter, since a cache keyed by kernels would keep the
        # first of equal ones and let the later ones go
        code = ("import gc, weakref\n"
                "from greenberg.cyclo_logs import compute_record, find_split_primes\n"
                "from greenberg.quadratic import character_kernel\n"
                "refs = []\n"
                "for f, n in ((949, 2), (6817, 1), (323, 1)):\n"
                "    kernel = character_kernel(f)\n"
                "    compute_record(f, n, find_split_primes(f, n, 1)[0], kernel)\n"
                "    refs.append(weakref.ref(kernel))\n"
                "    del kernel\n"
                "gc.collect()\n"
                "print(sum(ref() is not None for ref in refs))")
        src = str(Path(greenberg.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["0"]
