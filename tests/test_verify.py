import pytest

from greenberg.cyclo_logs import PrimeLogRecord, compute_record, find_split_primes, get_records
from greenberg.group_ring import (HowellIdeal, RingSpec, divided_spec, from_coeffs, full_spec,
                                  norm_element, power_table, scalar, to_T_basis)
from greenberg.quadratic import character_kernel, class_number
from greenberg.verify import PairAccumulator, RunConfig, check_termination, run_level, verify
from oracles import contains_ideal, full_rank_pair_functionals, mutual_membership, to_X_basis


def _synthetic_record(n, k, eta_t, beta_t, delta=None, r=0):
    """Record from T-basis fixtures (e.g. the published level tables)."""
    assert len(eta_t) == len(beta_t) == 1 << n
    return PrimeLogRecord(r=r, eta=to_X_basis(eta_t, 1 << k), beta=to_X_basis(beta_t, 1 << k),
                          delta_scalar=delta)


def _pairs(records, spec):
    """Every g-vector the production pairing forms for these records, in
    the presentation ``spec`` (full or divided)."""
    acc = PairAccumulator(spec)
    return [g for rec in records for g in acc.add_prime(rec, spec)]


class TestPairFunctionalsNonsplit:
    # the published (eta, beta/T) table for f=949, n=1, keyed by prime
    TABLE = {22777: ((0, 1), (0, 3)), 45553: ((2, 3), (0, 3)), 60737: ((0, 3), (0, 3)),
             68329: ((2, 0, ), (0, 2)), 136657: ((0, 3), (0, 1)), 151841: ((0, 0), (0, 2))}

    def test_single_pair_from_paper_values(self):
        # pair (22777, 68329): 3*(2T+2) - 2*(T) = 4T + 6 = 2 mod (4, T^2+2T)
        spec = full_spec(1)
        recs = [_synthetic_record(1, 2, (0, 1), (0, 3), r=22777),
                _synthetic_record(1, 2, (2, 2), (0, 2), r=68329)]
        gs = _pairs(recs, spec)
        assert len(gs) == 1
        assert list(gs[0]) == [2, 0]

    def test_full_pair_set_generates_two(self):
        # all pairs from the published table generate (2)
        spec = full_spec(1)
        recs = [_synthetic_record(1, 2, e, b, r=r)
                for r, (e, b) in sorted(self.TABLE.items())]
        ideal = HowellIdeal.empty(spec)
        for g in _pairs(recs, spec):
            ideal = ideal.insert(g)
        expected = HowellIdeal.from_generators(spec, [(2,)])
        assert mutual_membership(ideal, expected)

    def test_equal_records_give_zero(self):
        spec = full_spec(1)
        rec = _synthetic_record(1, 2, (2, 3), (0, 3), r=1)
        gs = _pairs([rec, rec], spec)
        assert len(gs) == 1 and not gs[0].any()


class TestRunLevelAgainstFullRankPairs:
    """run_level pairs modulo the ideal's monic element M, in the X-basis
    until M drops below the relation, with the split eta-values divided by T
    first; the reference builds every pair at full rank in the T-basis and
    divides the split pairs by T afterwards."""

    # (17, 1): M drops to degree 0, and every later pairing is an empty
    # vector; (1605, 7): a non-split level at rank 128
    @pytest.mark.parametrize("f, n", [(85, 2), (645, 3), (949, 3), (1605, 4),
                                      (41, 2), (113, 3), (6817, 2), (6817, 4),
                                      (17, 1), (1605, 7)])
    def test_same_ideal_and_tail_noops(self, f, n):
        level = run_level(f, n, RunConfig(primes=8))
        spec = divided_spec(n) if f % 8 == 1 else full_spec(n)
        records = get_records(f, n, find_split_primes(f, n, 8), character_kernel(f))
        ideal, noops = HowellIdeal.empty(spec), 0
        for g in full_rank_pair_functionals(records, spec):
            grown = ideal.insert(g)
            noops = noops + 1 if grown is ideal else 0
            ideal = grown
        assert level.ideal == ideal
        assert level.stabilized_after == noops


class TestCarriedPairingTable:
    """The (T+1)^i table is built once, when M first drops; at each later
    drop of deg M the table and the E and Q stacks held in the ring are
    reduced modulo the new M, and a change of M that keeps its degree
    leaves them as they are.  After every prime they stay congruent mod J
    to a fresh rebuild in the current ring from the X-basis functionals."""

    # (1605, 6): M drops to degree 6, then 3, then 2; (6817, 4), divided:
    # 11, then 7, then two rings of degree 4
    @pytest.mark.parametrize("f, n", [(1605, 6), (6817, 4)])
    def test_congruent_to_rebuild(self, f, n):
        spec = divided_spec(n) if f % 8 == 1 else full_spec(n)
        records = get_records(f, n, find_split_primes(f, n, 15), character_kernel(f))
        # paired in the full ring, the reference keeps its functionals in the X-basis
        pairs, xbasis = PairAccumulator(spec), PairAccumulator(spec)
        ideal, rings = HowellIdeal.empty(spec), []
        for rec in records:
            ring, table = ideal.ring, pairs._xpow
            gs = pairs.add_prime(rec, ring)
            if table is not None and ring.rank == table.shape[1]:
                assert pairs._xpow is table, rec.r
            xbasis.add_prime(rec, spec)
            if pairs._xpow is not None:
                if not rings or rings[-1] is not ring:
                    rings.append(ring)
                fresh = power_table(from_coeffs((1, 1), ring), 1 << n, ring)
                rebuilt = [fresh] + [x @ fresh % ring.modulus for x in xbasis.functionals]
                for carried, want in zip((pairs._xpow, *pairs.functionals), rebuilt):
                    assert not ideal.reduce_vec(carried - want).any(), rec.r
            for g in gs:
                ideal = ideal.insert(g)
        assert len(rings) >= 3, "the table was carried over fewer than two ring changes"


class TestPairFunctionalsSplit:
    def test_zero_delta_pairs_skipped(self):
        spec_div = divided_spec(1)
        recs = [_synthetic_record(1, 2, (0, 1), (0, 3), delta=0, r=1),
                _synthetic_record(1, 2, (0, 3), (0, 1), delta=0, r=2)]
        gs = _pairs(recs, spec_div)
        assert gs == []

    def test_single_h_no_pairs(self):
        spec_div = divided_spec(1)
        recs = [_synthetic_record(1, 2, (0, 1), (0, 3), delta=1, r=1),
                _synthetic_record(1, 2, (0, 3), (0, 1), delta=2, r=2)]
        gs = _pairs(recs, spec_div)
        assert gs == []  # one h only, no second-stage pair yet

    def test_three_primes_produce_pairs(self):
        # eta fixtures have zero augmentation, as the split case guarantees
        spec_div = divided_spec(1)
        recs = [_synthetic_record(1, 2, (0, 1), (0, 3), delta=1, r=1),
                _synthetic_record(1, 2, (0, 3), (0, 1), delta=2, r=2),
                _synthetic_record(1, 2, (0, 2), (0, 2), delta=3, r=3)]
        gs = _pairs(recs, spec_div)
        assert len(gs) == 3  # h12; then h13 x h12, h23 x h12, h23 x h13


class TestRunLevel949:
    def test_level_one_is_two(self):
        # the level-1 pair functionals generate the ideal (2)
        lv = run_level(949, 1, RunConfig(primes=6))
        expected = HowellIdeal.from_generators(full_spec(1), [(2,)])
        assert mutual_membership(lv.ideal, expected)

    def test_level_two_matches(self):
        lv = run_level(949, 2, RunConfig(primes=6))
        expected = HowellIdeal.from_generators(full_spec(2), [(2,), (0, 0, 1)])
        assert mutual_membership(lv.ideal, expected)

    def test_monotone_in_prime_count(self):
        prev = None
        for m in (2, 4, 6):
            lv = run_level(949, 1, RunConfig(primes=m))
            if prev is not None:
                assert contains_ideal(lv.ideal, prev)
            prev = lv.ideal


class TestFunctionalVanishing:
    """Every pair functional kills the families it was built to kill:
    evaluating the defining combination on the beta polynomials (and delta
    scalars) gives exact zero, because T * (beta/T) recovers beta exactly."""

    def test_nonsplit_g_vanishes_on_beta(self):
        from greenberg.group_ring import poly_mul_mod
        from oracles import divide_by_aug
        ker = character_kernel(949)
        spec = full_spec(2)
        recs = [compute_record(949, 2, r, ker) for r in find_split_primes(949, 2, 4)]
        betas = [from_coeffs(to_T_basis(rec.beta, spec.modulus), spec) for rec in recs]
        quots = [divide_by_aug(b, spec) for b in betas]
        for i in range(len(recs)):
            for j in range(i):
                g_at_beta = (poly_mul_mod(quots[i], betas[j], spec)
                             - poly_mul_mod(quots[j], betas[i], spec)) % spec.modulus
                assert not g_at_beta.any()

    def test_split_h_vanishes_on_delta(self):
        # h(delta) = (c_j/2^s) c_l - (c_l/2^s) c_j = 0 as integers
        k = 2
        for cj, cl in ((4, 6), (0, 2), (1, 3), (2, 2)):
            if cj == 0 and cl == 0:
                continue
            s = min((c & -c).bit_length() - 1 if c else k for c in (cj, cl))
            assert (cj >> s) * cl - (cl >> s) * cj == 0


class TestCheckTermination:
    def test_949_level_two_cardinality(self):
        info = class_number(949)
        lv = run_level(949, 2, RunConfig(primes=6))
        assert lv.ideal.contains(scalar(4, lv.ideal.spec))
        assert check_termination(lv, info) == "cardinality"

    def test_949_level_one_open(self):
        info = class_number(949)
        lv = run_level(949, 1, RunConfig(primes=6))
        assert check_termination(lv, info) is None

    def test_split_precondition_skipped_below_m0(self):
        # a fabricated level-0-style check: m < m0 can never terminate
        from greenberg.verify import LevelResult
        info = class_number(6817)  # m0 = 1
        ideal = HowellIdeal.from_generators(divided_spec(1), [(1,)])
        lv = LevelResult(n=0, ideal=ideal, primes_used=(), stabilized_after=0, seconds=0.0)
        # n < m0: precondition cannot hold
        assert check_termination(lv, info) is None


class TestVerify:
    def test_949_report(self):
        rep = verify(949, RunConfig(primes=15))
        assert rep.m == 2 and rep.criterion == "cardinality"
        assert rep.n0 == 2 and rep.log2_index == 2
        assert rep.stable_from == 1 and not rep.stable_exact
        assert str(rep.reported) == "(2, T^2)"
        expected = HowellIdeal.from_generators(full_spec(2), [(2,), (0, 0, 1)])
        assert mutual_membership(rep.levels[-1].ideal, expected)

    def test_trivial_gate_runs_no_levels(self):
        rep = verify(3)
        assert rep.criterion == "trivial"
        assert rep.levels == []
        assert rep.n0 == 0 and rep.log2_index == 0

    def test_excluded_raises(self):
        with pytest.raises(ValueError):
            verify(8)

    def test_run_config_rejects_settings_that_cannot_certify(self):
        from greenberg.group_ring import MAX_LEVEL
        for bad in ({"primes": 1}, {"primes": 0}, {"max_level": 0},
                    {"max_level": MAX_LEVEL + 1}):
            with pytest.raises(ValueError):
                RunConfig(**bad)
        assert RunConfig(primes=2, max_level=MAX_LEVEL).max_level == MAX_LEVEL
        assert RunConfig(max_level=1).primes == 15

    def test_unresolved_is_reported_not_raised(self):
        rep = verify(565, RunConfig(primes=8, max_level=1))
        assert not rep.resolved
        assert rep.m is None and rep.criterion is None
        assert len(rep.levels) == 1

    def test_6817_level_one(self):
        lv = run_level(6817, 1, RunConfig(primes=15))
        # the published level-1 ideal (4, T+2) is the zero ideal of the
        # divided presentation
        assert lv.ideal == HowellIdeal.empty(lv.ideal.spec)
        assert lv.ideal.howell_rows()[0].shape[0] == 0
        assert lv.ideal.log2_index() == 2

    def test_n0_sweep_against_hand_ideal(self):
        from greenberg.verify import _n0_sweep
        spec = RingSpec(3, 2, divided=False)
        ideal = HowellIdeal.from_generators(spec, [(2,), (0, 0, 1)])
        assert _n0_sweep(ideal) == 2
        assert _n0_sweep(HowellIdeal.from_generators(spec, [(1,)])) == 0

    @pytest.mark.parametrize("f", [323, 949, 1605, 6817])
    def test_n0_sweep_is_the_least_member_level(self, f, published_reports):
        # the sweep carries the norm element from one level to the next
        from greenberg.verify import _n0_sweep
        for lv in published_reports[f].levels:
            ideal = lv.ideal
            direct = next(t for t in range(ideal.spec.n + ideal.spec.d + 1)
                          if ideal.contains(norm_element(t, ideal.ring)))
            assert _n0_sweep(ideal) == direct, (f, lv.n)

    def test_adaptive_matches_fixed(self):
        fixed = verify(85, RunConfig(primes=15))
        adaptive = verify(85, RunConfig(primes=15, adaptive=True))
        assert adaptive.m == fixed.m
        assert mutual_membership(adaptive.levels[-1].ideal, fixed.levels[-1].ideal)

    def test_adaptive_level_reads_and_writes_cache_once(self, tmp_path, monkeypatch):
        import greenberg.cyclo_logs as cyclo_logs
        calls = {"load_records": 0, "store_records": 0}
        for name in calls:
            def counted(*args, _fn=getattr(cyclo_logs, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(cyclo_logs, name, counted)
        config = RunConfig(primes=4, adaptive=True, cache_dir=tmp_path)
        cold = run_level(85, 2, config)
        assert len(cold.primes_used) > 4
        assert calls == {"load_records": 1, "store_records": 1}
        warm = run_level(85, 2, config)
        assert warm.primes_used == cold.primes_used
        assert calls == {"load_records": 2, "store_records": 1}

    def test_cache_round_trip_same_report(self, tmp_path):
        a = verify(85, RunConfig(primes=10, cache_dir=tmp_path))
        b = verify(85, RunConfig(primes=10, cache_dir=tmp_path))
        assert a.m == b.m and str(a.reported) == str(b.reported)
        assert all(x.ideal == y.ideal for x, y in zip(a.levels, b.levels))


class TestReportInvariants:
    def test_n0_at_most_m(self):
        for f in (85, 165, 949, 645):
            rep = verify(f, RunConfig(primes=12))
            assert rep.resolved
            assert rep.n0 <= rep.m
            if rep.criterion == "norm_annihilation":
                assert rep.n0 <= rep.m - 1

    def test_levels_use_right_presentation(self):
        rep = verify(85, RunConfig(primes=8))
        assert all(not lv.ideal.spec.divided for lv in rep.levels)
        rep = verify(89, RunConfig(primes=8))
        assert all(lv.ideal.spec.divided for lv in rep.levels)


class TestLiteratureCases:
    """Families whose outcomes the comparison remarks pin down."""

    def test_two_primes_3_mod_8_give_unit_ideal(self):
        # f = pq, p = q = 3 mod 8: the whole tower is trivial, J = (1)
        rep = verify(33, RunConfig(primes=10))   # 33 = 3 * 11
        assert rep.resolved
        assert str(rep.reported) == "(1)"
        assert rep.n0 == 0 and rep.log2_index == 0

    def test_3_mod_4_times_5_mod_8_gives_2_T(self):
        # f = pq, p = 3 mod 4, q = 5 mod 8: J = (2, T), stabilization at 1
        for f in (15, 87):                        # 3*5, 3*29
            rep = verify(f, RunConfig(primes=10))
            assert rep.resolved, f
            final = rep.levels[-1].ideal
            expected = HowellIdeal.from_generators(final.spec, [(2,), (0, 1)])
            assert mutual_membership(final, expected), f
            assert rep.n0 == 1, f

    def test_quartic_residue_family_gives_2_Tsq(self):
        # f = pq, p = 3 mod 8, q = 1 mod 8, (p|q) = -1, 2^((q-1)/4) = -1 mod q
        for f in (51, 123):                       # 3*17, 3*41
            rep = verify(f, RunConfig(primes=10))
            final = rep.levels[-1].ideal
            expected = HowellIdeal.from_generators(final.spec, [(2,), (0, 0, 1)])
            assert mutual_membership(final, expected), f
            assert rep.n0 == 2, f

    def test_three_prime_family_gives_4_2T_Tsq(self):
        # f = pqr, p = q = 5 mod 8, r = 3 mod 8, (pq|r) = -1: the base module
        # already has order 4 and the tower freezes there
        for f in (195, 555):                      # 3*5*13, 3*5*37
            rep = verify(f, RunConfig(primes=10))
            final = rep.levels[-1].ideal
            expected = HowellIdeal.from_generators(final.spec, [(4,), (0, 2), (0, 0, 1)])
            assert mutual_membership(final, expected), f
            assert rep.n0 == 2, f
