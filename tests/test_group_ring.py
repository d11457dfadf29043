import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import greenberg
from greenberg import group_ring
from greenberg.group_ring import (HowellIdeal, RingSpec, canonical_generators, divided_spec,
                                  from_coeffs, full_spec, howell_form, norm_element, one,
                                  poly_mul_mod, poly_str, scalar, t_shift, to_T_basis,
                                  weierstrass_polynomial, zero)
from greenberg.verify import RunConfig, _n0_sweep, run_level, verify
from oracles import (FullRankIdeal, contains_ideal, divide_by_aug, enumerate_span,
                     howell_form_numpy, mutual_membership, parse_poly, to_T_basis_horner,
                     to_X_basis, weierstrass_polynomial_series)


def _shift_closure(spec, gens):
    rows = []
    for g in gens:
        v = from_coeffs(g, spec)
        for _ in range(spec.rank):
            rows.append(tuple(int(x) for x in v))
            v = t_shift(v, spec)
    return rows


class TestRingArithmetic:
    def test_t_squared_full_n1(self):
        spec = full_spec(1)  # Z/4[T]/(T^2 + 2T)
        t = from_coeffs((0, 1), spec)
        assert list(poly_mul_mod(t, t, spec)) == [0, 2]

    def test_one_is_identity(self, rng):
        spec = full_spec(2)
        for _ in range(20):
            a = from_coeffs([rng.randrange(spec.modulus) for _ in range(spec.rank)], spec)
            assert np.array_equal(poly_mul_mod(a, one(spec), spec), a)

    def test_norm_times_aug_generator_vanishes(self):
        for n in (1, 2, 3):
            spec = full_spec(n)
            t = from_coeffs((0, 1), spec)
            prod = poly_mul_mod(norm_element(n, spec), t, spec)
            assert not prod.any()

    def test_mul_commutative_associative(self, rng):
        spec = divided_spec(2)
        for _ in range(20):
            a, b, c = (from_coeffs([rng.randrange(spec.modulus) for _ in range(spec.rank)], spec)
                       for _ in range(3))
            assert np.array_equal(poly_mul_mod(a, b, spec), poly_mul_mod(b, a, spec))
            assert np.array_equal(poly_mul_mod(poly_mul_mod(a, b, spec), c, spec),
                                  poly_mul_mod(a, poly_mul_mod(b, c, spec), spec))

    @pytest.mark.parametrize("relation", [(0, 2, 1), (2, 0, 1, 3, 0, 3, 6, 1), (5, 1),
                                          tuple(range(7)) + (1,)])
    def test_tail_built_only_as_asked(self, relation):
        # T^(rank+t) one T-shift at a time; a fresh ring's table holds no
        # more rows than the call asked for
        d, rank = 3, len(relation) - 1
        ring = RingSpec(d, 3, False, relation=relation)
        x, shifts = np.eye(1, rank, rank - 1, dtype=np.int64)[0], []
        for _ in range(50):
            x = t_shift(x, ring)
            shifts.append(x)
        for k in (1, rank, rank + 1, 2 * rank + 1, 50):
            fresh = RingSpec(d, 3, False, relation=relation)
            assert np.array_equal(fresh.tail(k), shifts[:k])
            assert len(fresh._tail) < k + rank
            assert np.array_equal(ring.tail(k), shifts[:k])    # grown call by call


class TestNormElement:
    def test_small(self):
        spec = full_spec(3)
        assert list(norm_element(0, spec))[:2] == [1, 0]
        assert list(norm_element(1, spec))[:3] == [2, 1, 0]
        # m = 2: binomial expansion T^3 + 4T^2 + 6T + 4, unreduced at rank 8
        assert list(norm_element(2, spec))[:5] == [4, 6, 4, 1, 0]

    def test_reduces_when_rank_exceeded(self):
        spec = divided_spec(1)  # rank 1, relation T + 2
        # sum_{i<2}(T+1)^i = T + 2 = relation = 0
        assert not norm_element(1, spec).any()


class TestDivideByAug:
    def test_exact_division(self):
        spec = full_spec(2)
        q = divide_by_aug(from_coeffs((0, 2, 1), spec), spec)
        assert list(q) == [2, 1, 0, 0]

    def test_zero(self):
        spec = full_spec(2)
        assert not divide_by_aug(zero(spec), spec).any()

    def test_two_power_reduces_to_zero(self):
        spec = full_spec(2)
        p = from_coeffs((spec.modulus,), spec)   # 2^d = 0 in the ring
        assert not divide_by_aug(p, spec).any()

    def test_rejects_nonmember(self):
        spec = full_spec(2)
        with pytest.raises(ValueError):
            divide_by_aug(one(spec), spec)

    def test_quotient_times_t(self):
        spec = full_spec(2)
        p = from_coeffs((0, 3, 5, 1), spec)
        q = divide_by_aug(p, spec)
        t = from_coeffs((0, 1), spec)
        assert np.array_equal(poly_mul_mod(t, q, spec), p)


class TestBasisConversion:
    @given(st.lists(st.integers(0, 255), min_size=1, max_size=9),
           st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_involution(self, coeffs, d):
        mod = 1 << d
        t = to_T_basis(coeffs, mod)
        x = to_X_basis(t, mod)
        assert list(x) == [c % mod for c in coeffs]

    def test_known_value(self):
        # X^2 = (T+1)^2 = T^2 + 2T + 1
        assert list(to_T_basis((0, 0, 1), 8)) == [1, 2, 1]

    @given(st.integers(1, 4096), st.integers(2, 21), st.integers(0, 2**32 - 1))
    @example(1, 2, 0)
    @example(1024, 11, 1)
    @example(4096, 21, 2)
    @example(4095, 13, 3)
    @example(1025, 5, 4)
    @settings(max_examples=40, deadline=None)
    def test_taylor_shift_matches_horner(self, length, d, seed):
        # blockwise stages against one coefficient at a time; lengths off a
        # power of two are padded, entries cover [0, 2^d)
        mod = 1 << d
        coeffs = np.random.default_rng(seed).integers(0, mod, length)
        assert np.array_equal(to_T_basis(coeffs, mod), to_T_basis_horner(coeffs, mod))

    def test_stack_converts_row_by_row(self, rng):
        for length in (1, 3, 8, 100):
            stack = np.array([[rng.randrange(64) for _ in range(length)] for _ in range(5)])
            assert np.array_equal(to_T_basis(stack, 64),
                                  [to_T_basis_horner(row, 64) for row in stack])


class TestHowellIdeal:
    def test_insert_zero_is_noop(self):
        spec = full_spec(1)
        ideal = HowellIdeal.empty(spec)
        assert ideal.insert(zero(spec)) is ideal

    def test_two_in_smallest_ring(self):
        spec = full_spec(1)  # Z/4[T]/(T^2+2T)
        ideal = HowellIdeal.empty(spec).insert(scalar(2, spec))
        assert ideal.log2_index() == 2

    def test_paper_membership_fixtures(self):
        spec = RingSpec(3, 2, divided=False)
        ideal = HowellIdeal.from_generators(spec, [(2,), (0, 0, 1)])
        assert ideal.log2_index() == 2
        assert ideal.contains(norm_element(2, spec))     # T^3+4T^2+6T+4
        assert not ideal.contains(norm_element(1, spec))  # T+2
        assert ideal.contains(zero(spec))

    def test_ambient_members(self):
        for spec in (RingSpec(3, 2, divided=False), RingSpec(4, 3, divided=True)):
            ideal = HowellIdeal.from_generators(spec, [(0, 2), (4, 4, 1)])
            assert ideal.contains(from_coeffs(spec.relation, spec))
            assert ideal.contains(scalar(spec.modulus, spec))

    def test_monotone_and_fixed_point(self, rng):
        spec = full_spec(2)
        ideal = HowellIdeal.empty(spec)
        for _ in range(12):
            g = from_coeffs([rng.randrange(spec.modulus) for _ in range(spec.rank)], spec)
            bigger = ideal.insert(g)
            assert contains_ideal(bigger, ideal)
            assert bigger.contains(g)
            # inserting a member is the identity
            assert bigger.insert(g) is bigger
            # the index drops exactly when the element was new
            if ideal.contains(g):
                assert bigger is ideal
            else:
                assert bigger.log2_index() < ideal.log2_index()
            ideal = bigger

    def test_t_closure(self, rng):
        spec = divided_spec(2)
        for _ in range(10):
            g = from_coeffs([rng.randrange(spec.modulus) for _ in range(spec.rank)], spec)
            ideal = HowellIdeal.empty(spec).insert(g)
            # rows live in the ideal's own ring Z/2^d[T]/(M), rank deg M
            for row in ideal.howell_rows()[0]:
                assert ideal.contains(t_shift(row, ideal.ring))

    def test_reduction_idempotent(self, rng):
        spec = full_spec(2)
        ideal = HowellIdeal.from_generators(spec, [(2, 1), (0, 0, 2)])
        for _ in range(20):
            v = from_coeffs([rng.randrange(spec.modulus) for _ in range(spec.rank)], spec)
            r1 = ideal.reduce_vec(v)
            assert np.array_equal(ideal.reduce_vec(r1), r1)

    def test_stacked_reduction_is_row_by_row(self, rng):
        # a stack reduces as its rows do, whether longer than the ideal's
        # ring (reduced modulo M first) or not; the empty stack too
        for spec, gens in ((full_spec(3), [(2, 1), (0, 0, 2)]),
                           (divided_spec(3), [(0, 2), (4, 4, 1)]),
                           (full_spec(4), [(4,), (0, 2, 2), (0, 0, 0, 4)])):
            ideal = HowellIdeal.from_generators(spec, gens)
            for length in (ideal.ring.rank, spec.rank, 2 * spec.rank):
                stack = np.array([[rng.randrange(spec.modulus) for _ in range(length)]
                                  for _ in range(7)]).reshape(7, length)
                assert np.array_equal(ideal.reduce_vec(stack),
                                      [ideal.reduce_vec(v) for v in stack])
                assert ideal.reduce_vec(stack[:0]).shape == (0, ideal.ring.rank)

    def test_canonical_form_independent_of_order(self, rng):
        spec = RingSpec(3, 2, divided=False)
        gens = [tuple(rng.randrange(8) for _ in range(4)) for _ in range(3)]
        a = HowellIdeal.from_generators(spec, gens)
        b = HowellIdeal.from_generators(spec, list(reversed(gens)))
        assert a == b


class TestAgainstEnumeration:
    def _assert_matches(self, spec, gens):
        ideal = HowellIdeal.from_generators(spec, gens)
        span = enumerate_span(_shift_closure(spec, gens), spec.d, spec.rank)
        members = [v for v in span if ideal.contains(np.array(v, dtype=np.int64))]
        assert len(members) == len(span)
        # and the ideal is no bigger: index must agree with the span size
        assert 1 << (spec.d * spec.rank - ideal.log2_index()) == len(span)

    def test_fixed_cases(self):
        spec = full_spec(1)          # Z/4, rank 2
        self._assert_matches(spec, [(2, 1)])
        self._assert_matches(spec, [(0, 2), (2, 0)])
        spec = RingSpec(2, 2, divided=False)     # Z/4, rank 4
        self._assert_matches(spec, [(1, 2, 0, 3)])
        self._assert_matches(spec, [(2, 0, 2, 0), (0, 1, 0, 0)])

    def test_random_cases(self, rng):
        spec = RingSpec(2, 2, divided=False)
        for _ in range(40):
            gens = [tuple(rng.randrange(4) for _ in range(4))
                    for _ in range(rng.randrange(1, 4))]
            self._assert_matches(spec, gens)


class TestCanonicalGenerators:
    def test_published_shapes(self):
        spec = RingSpec(3, 2, divided=False)
        pairs = [
            ([(2,), (0, 0, 1)], "(2, T^2)", 2),
            ([(4,), (0, 2), (0, 0, 1)], "(4, 2T, T^2)", 3),
            ([(4,), (0, 2), (0, 0, 0, 1)], "(4, 2T, T^3)", 4),
            ([(1,)], "(1)", 0),
        ]
        for gens, text, log2 in pairs:
            ideal = HowellIdeal.from_generators(spec, gens)
            rep = canonical_generators(ideal)
            assert str(rep) == text
            assert rep.log2_index == log2

    def test_divided_published_rows(self):
        ideal = HowellIdeal.from_generators(
            RingSpec(8, 7, divided=True), [(64,), (0, 4), (0, 0, 2), (32, 0, 0, 0, 1)])
        assert str(canonical_generators(ideal)) == "(64, 4T, 2T^2, T^4 + 32)"
        assert canonical_generators(ideal).log2_index == 10

    def test_zero_ideal_reports_ambient(self):
        ideal = HowellIdeal.empty(RingSpec(2, 1, divided=True))
        rep = canonical_generators(ideal)
        assert str(rep) == "(4, T + 2)"
        assert rep.log2_index == 2

    def test_round_trip_random(self, rng):
        for _ in range(25):
            n = rng.choice((1, 2))
            spec = RingSpec(rng.choice((2, 3)), n, divided=False)
            gens = [tuple(rng.randrange(spec.modulus) for _ in range(spec.rank))
                    for _ in range(rng.randrange(1, 4))]
            ideal = HowellIdeal.from_generators(spec, gens)
            rep = canonical_generators(ideal)   # asserts regeneration internally
            regen = HowellIdeal.from_generators(spec, rep.generators)
            assert mutual_membership(regen, ideal)


@st.composite
def _ring_case(draw, gens, probes=0):
    """A ring of either presentation at n <= 4 with d in {n+1, n+3}, 1 to
    ``gens`` generators and up to ``probes`` further vectors.  Coefficients
    get random 2-valuations, so the lowest odd degree (and with it the
    monic degree) varies."""
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from((n + 1, n + 3)))
    spec = RingSpec(d, n, divided=draw(st.booleans()))
    coeff = st.builds(lambda c, s: (c << s) % spec.modulus,
                      st.integers(0, spec.modulus - 1), st.integers(0, d))
    vec = st.lists(coeff, min_size=spec.rank, max_size=spec.rank).map(
        lambda c: np.array(c, dtype=np.int64))
    return (spec, draw(st.lists(vec, min_size=1, max_size=gens)),
            draw(st.lists(vec, max_size=probes)))


@st.composite
def _descending_case(draw):
    """A ring as in :func:`_ring_case` and generators 8 s, 4 s', 2 s'', then
    an odd one, each present or not: the even ones meet an ideal that has
    no lower monic element yet, with the valuation v dropping step by step,
    which random coefficients rarely reach."""
    n = draw(st.integers(1, 4))
    d = draw(st.sampled_from((n + 1, n + 3)))
    spec = RingSpec(d, n, divided=draw(st.booleans()))
    vec = st.lists(st.integers(0, spec.modulus - 1), min_size=spec.rank,
                   max_size=spec.rank).map(lambda c: np.array(c, dtype=np.int64))
    gens = [(g << k) % spec.modulus for k in (3, 2, 1, 0)
            for g in draw(st.lists(vec, max_size=2))]
    return spec, gens or [zero(spec)], draw(st.lists(vec, max_size=4))


class TestAgainstFullRankOracle:
    """The ideal engine, held modulo its lowest monic element, against the
    rank-2^n Howell engine it replaced."""

    @given(_ring_case(gens=6, probes=4))
    @settings(max_examples=150, deadline=None)
    def test_engine_matches_oracle(self, case):
        self._check_against_oracle(*case)

    @given(_descending_case())
    @settings(max_examples=150, deadline=None)
    def test_descending_valuations_match_oracle(self, case):
        self._check_against_oracle(*case)

    @pytest.mark.parametrize("n", [5, 6, 7])
    def test_derived_rows_before_the_drop(self, n, rng):
        # J = 2^v K at rank 2^n (or 2^n - 1): the derived Howell rows, their
        # pivots and the reduced relation are the full-rank engine's
        for divided in (False, True):
            spec = RingSpec(n + 1, n, divided)
            for _ in range(3):
                gens = []
                valuations = sorted(rng.sample(range(1, n + 1), 2), reverse=True)
                for k in valuations:
                    g = [rng.randrange(spec.modulus) for _ in range(spec.rank)]
                    g[rng.randrange(6)] |= 1
                    gens.append(tuple(c << k for c in g))
                ideal = HowellIdeal.from_generators(spec, gens)
                oracle = FullRankIdeal.from_generators(spec, gens)
                assert ideal.v == valuations[-1] and ideal.ring.rank == spec.rank
                rows, pivots = ideal.howell_rows()
                assert pivots == oracle.pivots
                assert np.array_equal(rows, oracle.rows)
                assert canonical_generators(ideal).generators == oracle.generators()
                assert ideal.log2_index() == oracle.log2_index()

    def _check_against_oracle(self, spec, gens, probes):
        ideal, oracle = HowellIdeal.empty(spec), FullRankIdeal(spec)
        for g in gens:
            grown = ideal.insert(g)
            assert (grown is ideal) == oracle.contains(g)
            ideal, oracle = grown, oracle.insert(g)
        # the small rows are the full-rank rows below deg M; the full-rank
        # row at deg M (when M is not the relation) is M itself
        m = ideal.ring.rank
        low = [i for i, (col, _) in enumerate(oracle.pivots) if col < m]
        rows, pivots = ideal.howell_rows()
        assert pivots == [oracle.pivots[i] for i in low]
        assert np.array_equal(rows, oracle.rows[low, :m])
        if m < spec.rank:
            row = oracle.rows[oracle.pivots.index((m, 0))]
            assert np.array_equal(row[:m + 1], ideal.ring.relation)
        assert canonical_generators(ideal).generators == oracle.generators()
        assert ideal.log2_index() == oracle.log2_index()
        assert _n0_sweep(ideal) == oracle.n0()
        # random vectors, the same shifted by a member, and the members' rows
        members = [(v + oracle.rows[i % len(oracle.rows)]) % spec.modulus
                   for i, v in enumerate(probes)] if len(oracle.rows) else []
        for v in probes + members + list(oracle.rows):
            assert ideal.contains(v) == oracle.contains(v)

    @given(_ring_case(gens=1))
    @settings(max_examples=150, deadline=None)
    def test_weierstrass_step(self, case):
        spec, (r,), _ = case
        r[-1] |= 1      # at least one odd coefficient
        v = int(np.flatnonzero(r & 1)[0])
        P = weierstrass_polynomial(r, spec.d)
        assert len(P) == v + 1 and P[-1] == 1
        assert not (P[:-1] & 1).any()
        assert FullRankIdeal.from_generators(spec, [r]).contains(from_coeffs(P, spec))
        assert FullRankIdeal.from_generators(spec, [P]).contains(r)


def _valued(d: int):
    """Coefficients in [0, 2^d) with random 2-valuations (zero included)."""
    return st.builds(lambda c, s: (c << s) % (1 << d),
                     st.integers(0, (1 << d) - 1), st.integers(0, d))


class TestHowellPaths:
    """howell_form runs on Python ints; the numpy form in tests/oracles.py
    takes the same steps one column pass at a time."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_int_path_matches_numpy(self, data):
        d = data.draw(st.integers(1, 12))
        rank = data.draw(st.integers(1, 26))
        row = st.one_of(st.just([0] * rank),
                        st.lists(_valued(d), min_size=rank, max_size=rank))
        G = np.array(data.draw(st.lists(row, max_size=2 * rank)),
                     dtype=np.int64).reshape(-1, rank)
        rows, pivots = howell_form(G, d, rank)
        np_rows, np_pivots = howell_form_numpy(G, d, rank)
        assert pivots == np_pivots
        assert rows.shape == np_rows.shape and np.array_equal(rows, np_rows)

    def test_no_howell_form_at_the_group_ring_rank(self, monkeypatch):
        # f = 6817 level 7 (divided rank 127) and f = 1201 level 10 (rank
        # 1024) insert even elements before M drops: each Howell form runs
        # in the ring it rebuilds, at rank deg M, below the group ring's
        ranks, rings = [], []
        howell, rebuilt = group_ring.howell_form, HowellIdeal._rebuilt

        def traced_howell(rows, d, rank):
            ranks.append(rank)
            return howell(rows, d, rank)

        def traced_rebuilt(self, ring, stack):
            rings.append((ring.rank, self.spec.rank))
            return rebuilt(self, ring, stack)

        monkeypatch.setattr(group_ring, "howell_form", traced_howell)
        monkeypatch.setattr(HowellIdeal, "_rebuilt", traced_rebuilt)
        run_level(6817, 7, RunConfig())
        verify(1201)
        assert ranks == [rank for rank, _ in rings]
        assert all(rank < spec_rank for rank, spec_rank in rings)
        assert max(ranks) <= 10


class TestRegenerationCheck:
    """canonical_generators checks itself by regenerating the ideal in the
    quotient ring.  The set is minimal in Z_2[T], but the quotient adds 2^d
    and the relation: a generator they and the others generate (2^d
    always, others at low levels) can be dropped unseen; any other cannot."""

    @pytest.mark.parametrize("f", [1605, 6817])
    def test_dropping_a_generator_is_seen_unless_redundant(self, f, published_reports):
        for lv in published_reports[f].levels:
            spec, gens = lv.ideal.spec, canonical_generators(lv.ideal).generators
            assert HowellIdeal.from_generators(spec, gens) == lv.ideal
            for i, g in enumerate(gens):
                fewer = gens[:i] + gens[i + 1:]
                regen = HowellIdeal.from_generators(spec, fewer)
                redundant = regen.contains(np.array(g, dtype=np.int64))
                assert (regen == lv.ideal) == redundant, (f, lv.n, g)
                assert redundant or g != (spec.modulus,)
                if spec.rank <= 64:
                    oracle = FullRankIdeal.from_generators(spec, fewer)
                    assert oracle.contains(from_coeffs(g, spec)) == redundant, (f, lv.n, g)

    def test_check_fires_on_a_missing_generator(self, published_reports, monkeypatch):
        # regenerate without M, the last generator: the ring keeps rank 2^n
        regenerate = HowellIdeal.from_generators.__func__
        monkeypatch.setattr(HowellIdeal, "from_generators",
                            classmethod(lambda cls, spec, gens: regenerate(cls, spec, gens[:-1])))
        with pytest.raises(AssertionError, match="failed to regenerate"):
            canonical_generators(published_reports[1605].levels[-1].ideal)

    def test_checks_raise_under_optimize(self):
        # python -O strips asserts: a withheld generator, a unit pivot below
        # M, a vector outside the augmentation ideal divided by T and a dlog
        # outside the order-2^k subgroup must still raise
        code = """
import dataclasses
import numpy as np
from greenberg.cyclo_logs import find_split_primes
from greenberg.finite_field import build_field_context, dlog_two_power_vec, residue_vec
from greenberg.group_ring import HowellIdeal, RingSpec, canonical_generators
from greenberg.verify import _over_T
spec = RingSpec(3, 2, divided=False)
ideal = HowellIdeal.from_generators(spec, [(4,), (0, 2), (0, 0, 1)])
regenerate = HowellIdeal.from_generators.__func__
withheld = classmethod(lambda cls, spec, gens: regenerate(cls, spec, gens[1:]))
ring = RingSpec(3, 2, divided=False, relation=(0, 0, 1))
ctx = build_field_context(find_split_primes(5, 1, 1)[0], 1, 5)
checks = [
    (lambda: setattr(HowellIdeal, "from_generators", withheld) or canonical_generators(ideal),
     AssertionError),
    (lambda: HowellIdeal.empty(spec)._rebuilt(ring, np.array([[2, 1]])), AssertionError),
    (lambda: _over_T(np.array([1, 0, 0, 0]), 8), ValueError),
    (lambda: dlog_two_power_vec(residue_vec([ctx.norm], ctx.r), dataclasses.replace(ctx, w=1)),
     AssertionError),
]
for check, error in checks:
    try:
        check()
        print("silent")
    except error as exc:
        print(type(exc).__name__)
"""
        src = str(Path(greenberg.__file__).parents[1])
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True).stdout
        assert out.split() == ["AssertionError", "AssertionError", "ValueError",
                               "AssertionError"]

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_weierstrass_matches_series_division(self, data):
        d = data.draw(st.integers(1, 12))
        length = data.draw(st.integers(1, 12))
        r = np.array(data.draw(st.lists(_valued(d), min_size=length, max_size=length)),
                     dtype=np.int64)
        v = data.draw(st.integers(0, length - 1))
        if data.draw(st.booleans()):
            # distinguished: even below v, 1 at v, nothing above
            r[:v] &= ~1
            r[v], r[v + 1:] = 1, 0
        else:
            r[v] |= 1
        assert np.array_equal(weierstrass_polynomial(r, d), weierstrass_polynomial_series(r, d))


class TestPolyText:
    def test_poly_str(self):
        assert poly_str((2012, 0, 1)) == "T^2 + 2012"
        assert poly_str((0, 2)) == "2T"
        assert poly_str((0,)) == "0"
        assert poly_str((4, 2, 0, 1)) == "T^3 + 2T + 4"

    @given(st.lists(st.integers(0, 63), min_size=1, max_size=6))
    @settings(max_examples=200, deadline=None)
    def test_parse_round_trip(self, coeffs):
        text = poly_str(coeffs)
        parsed = parse_poly(text)
        top = max((j for j, c in enumerate(coeffs) if c), default=0)
        assert parsed == tuple(coeffs[:top + 1])


def test_howell_form_empty():
    rows, pivots = howell_form(np.zeros((0, 4), dtype=np.int64), 2, 4)
    assert rows.shape == (0, 4) and pivots == []
