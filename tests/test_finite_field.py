import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenberg.cyclo_logs import find_split_primes
from greenberg.finite_field import (build_field_context, dlog_two_power, dlog_two_power_vec,
                                    factorize, is_prime, residue_vec, smallest_nonresidue)
from greenberg.quadratic import is_squarefree
from oracles import (Fp2Field, build_field_context_fp2, dlog_two_power_bits, embedding_root,
                     field_context_fp2, subcontext, trial_is_prime)


class TestIsPrime:
    def test_paper_prime(self):
        assert is_prime(22777)

    def test_one(self):
        assert not is_prime(1)

    def test_derived_composite(self):
        # 7593 = 3 * 2531
        assert not trial_is_prime(7593)
        assert not is_prime(7593)

    def test_agrees_with_trial_division(self):
        for m in range(0, 5000):
            assert is_prime(m) == trial_is_prime(m), m

    def test_strong_pseudoprimes(self):
        # composites that fool small witness subsets
        for m in (3215031751, 3825123056546413051):
            assert not is_prime(m)
        assert is_prime(2**61 - 1)
        assert is_prime((1 << 64) - 59)

    @given(st.integers(min_value=0, max_value=10**6))
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle(self, m):
        assert is_prime(m) == trial_is_prime(m)


def _zeta(ctx):
    """The embedding, of order 2^(n+3)*f, rebuilt in F_{r^2}."""
    return embedding_root(ctx, (1 << (ctx.n + 3)) * ctx.f)


class TestFieldContext:
    def test_paper_example_orders(self):
        # 949 = 13 * 73; zeta has exact order 2^4 * 949 = 15184
        ctx = build_field_context(22777, 1, 949)
        gf, zeta = Fp2Field(ctx.r, ctx.q), _zeta(ctx)
        N = 15184
        assert gf.pow(zeta, N) == (1, 0)
        for p in (2, 13, 73):
            assert gf.pow(zeta, N // p) != (1, 0)
            assert pow(ctx.norm, (ctx.r - 1) // p, ctx.r) != 1

    def test_norm_of_candidate(self):
        ctx = build_field_context(22777, 1, 949)
        gf = Fp2Field(ctx.r, ctx.q)
        assert (ctx.norm, 0) == gf.pow((ctx.a, 1), ctx.r + 1)
        assert ctx.norm == (ctx.a * ctx.a - ctx.q) % ctx.r

    def test_second_paper_prime(self):
        ctx = build_field_context(45553, 1, 949)
        assert ctx.r % (8 * 949) == 1

    def test_congruence_violation_rejected(self):
        with pytest.raises(ValueError):
            build_field_context(22777, 3, 949)  # 22777 != 1 mod 2^5*949

    def test_composite_r_rejected(self):
        with pytest.raises(ValueError):
            build_field_context(7593, 0, 949)

    def test_derived_roots(self, rng, small_radicands):
        from greenberg.cyclo_logs import find_split_primes
        for _ in range(10):
            f = rng.choice(small_radicands)
            n = rng.randrange(0, 3)
            r = find_split_primes(f, n, 2)[rng.randrange(2)]
            ctx = build_field_context(r, n, f)
            gf, A = Fp2Field(r, ctx.q), embedding_root(ctx, 1 << (n + 3))
            zeta4 = pow(ctx.norm, (r - 1) // 4, r)
            assert pow(zeta4, 2, r) == r - 1                # order 4
            assert gf.pow(A, 1 << (n + 2)) == (r - 1, 0)
            assert (ctx.w, 0) == gf.mul(A, A)
            assert pow(ctx.w, 1 << (n + 1), r) == r - 1
            assert pow(ctx.zeta_f, f, r) == 1
            for p in factorize(f):
                assert pow(ctx.zeta_f, f // p, r) != 1
            assert pow(ctx.zeta_2k, 1 << (ctx.k - 1), r) == r - 1

    def test_candidate_offset_changes_zeta(self):
        a = build_field_context(22777, 1, 949)
        b = field_context_fp2(22777, 1, 949, candidate_offset=1)
        assert _zeta(a) != _zeta(b)

    def test_subcontext_roots_are_powers(self):
        ctx = build_field_context(45553, 2, 949)
        sub = subcontext(ctx, 1)
        gf, zeta = Fp2Field(ctx.r, ctx.q), _zeta(ctx)
        assert _zeta(sub) == gf.pow(zeta, 2)
        assert sub.k == 2
        assert gf.pow(embedding_root(sub, 1 << 4), 1 << 4) == (1, 0)
        assert sub.w == pow(ctx.w, 2, ctx.r)
        assert sub.zeta_f == pow(ctx.zeta_f, 2, ctx.r)

    def test_matches_fp2_sweep(self, rng):
        # the sweep over norms in F_r picks the candidate, and the roots,
        # that the sweep over candidate powers in F_{r^2} picks; the F_r
        # test also skips exactly the candidates the F_{r^2} sweep skips,
        # and every root, at every precision k, is the norm's own power
        radicands = [f for f in range(3, 3000, 2) if is_squarefree(f)]
        for _ in range(200):
            f = rng.choice(radicands)
            n = rng.randrange(0, 8)
            r = rng.choice(find_split_primes(f, n, 3))
            k = rng.randrange(1, n + 2)
            offset = rng.randrange(0, 3)
            ctx = build_field_context(r, n, f)
            ref = build_field_context_fp2(r, n, f, k=k, candidate_offset=offset)
            case = (f, n, r, k, offset)
            if offset == 0:
                assert ctx == field_context_fp2(r, n, f), case
            passing = [a for a in range(ref.a + 1)
                       if all(pow((a * a - ctx.q) % r, (r - 1) // p, r) != 1
                              for p in [2] + sorted(factorize(f)))]
            assert passing[offset:] == [ref.a], case
            norm = (ref.a * ref.a - ctx.q) % r
            assert (ref.zeta4, ref.zeta_f, ref.zeta_2k) == \
                (pow(norm, (r - 1) // 4, r), pow(norm, (r - 1) // f, r),
                 pow(norm, (r - 1) >> k, r)), case
            assert (pow(norm, (r - 1) >> (n + 2), r), 0) == \
                Fp2Field(r).pow(ref.zeta_2n3, 2), case


class TestFp2:
    def test_field_axioms_random(self, rng):
        r = 22777
        gf = Fp2Field(r)
        for _ in range(200):
            x = (rng.randrange(r), rng.randrange(r))
            y = (rng.randrange(r), rng.randrange(r))
            z = (rng.randrange(r), rng.randrange(r))
            assert gf.mul(x, y) == gf.mul(y, x)
            assert gf.mul(gf.mul(x, y), z) == gf.mul(x, gf.mul(y, z))
            if x != (0, 0):
                assert gf.mul(x, gf.inv(x)) == (1, 0)
            assert gf.pow(x, r * r - 1) in ((1, 0), (0, 0))

    def test_frobenius_fixes_exactly_base_field(self, rng):
        r = 1009
        gf = Fp2Field(r)
        for _ in range(300):
            x = (rng.randrange(r), rng.randrange(r))
            fixed = gf.pow(x, r) == x
            assert fixed == (x[1] == 0) or x == (0, 0)

    def test_nonresidue_is_smallest(self):
        for r in (22777, 45553, 1009, 13):
            q = smallest_nonresidue(r)
            for c in range(1, q):
                assert pow(c, (r - 1) // 2, r) == 1
            assert pow(q, (r - 1) // 2, r) == r - 1


class TestDlog:
    def test_identity(self):
        ctx = build_field_context(22777, 1, 949)
        assert dlog_two_power(1, ctx) == 0

    def test_minus_one(self):
        # r = 1 mod 2^(k+1) makes -1 a 2^k-th power
        ctx = build_field_context(22777, 1, 949)
        assert (ctx.r - 1) % (1 << (ctx.k + 1)) == 0
        assert dlog_two_power(ctx.r - 1, ctx) == 0

    def test_zero_rejected(self):
        ctx = build_field_context(22777, 1, 949)
        with pytest.raises(ZeroDivisionError):
            dlog_two_power(0, ctx)

    def test_defining_property_random(self, rng):
        ctx = build_field_context(45553, 2, 949)
        r, k = ctx.r, ctx.k
        for _ in range(100):
            u = rng.randrange(1, r)
            e = dlog_two_power(u, ctx)
            assert pow(u, (r - 1) >> k, r) == pow(ctx.zeta_2k, e, r)

    def test_round_trip_constructed(self, rng):
        # build x with x^((r-1)/2^k) = zeta_2k^e for chosen e, then recover e
        ctx = build_field_context(45553, 2, 949)
        r, k = ctx.r, ctx.k
        base = next(u for u in range(2, r) if dlog_two_power(u, ctx) == 1)
        for _ in range(30):
            e = rng.randrange(1 << k)
            x = pow(base, e, r) * pow(rng.randrange(1, r), 1 << k, r) % r
            assert dlog_two_power(x, ctx) == e

    def test_homomorphism(self, rng):
        ctx = build_field_context(22777, 1, 949)
        r, k = ctx.r, ctx.k
        for _ in range(50):
            u, v = rng.randrange(1, r), rng.randrange(1, r)
            assert (dlog_two_power(u * v % r, ctx)
                    == (dlog_two_power(u, ctx) + dlog_two_power(v, ctx)) % (1 << k))

    def test_norm_powers_and_odd_order(self, rng):
        # every root of a run is a power N^j of the norm, with log j; roots
        # of odd order, the powers of zeta_f, have log 0
        for r, n, f in ((22777, 1, 949), (45553, 2, 949), (109073, 2, 6817)):
            ctx = build_field_context(r, n, f)
            for j in [0, 1, 2, 3, (r - 1) // 4, (r - 1) >> (n + 2)] + \
                    [rng.randrange(r) for _ in range(20)]:
                assert dlog_two_power(pow(ctx.norm, j, r), ctx) == j % (1 << ctx.k), (r, j)
            assert dlog_two_power(ctx.zeta_f, ctx) == 0

    def test_surjective(self):
        ctx = build_field_context(22777, 1, 949)
        seen = {dlog_two_power(u, ctx) for u in range(2, 500)}
        assert seen == set(range(1 << ctx.k))


def _large_context(bits: int, n: int, f: int):
    """Context at the first split prime above 2^bits."""
    modulus = (1 << (n + 2)) * f
    t = (1 << bits) // modulus + 1
    while not is_prime(1 + t * modulus):
        t += 1
    return build_field_context(1 + t * modulus, n, f)


class TestDlogVec:
    # the scalar reference is the bit-by-bit loop, not the production
    # scalar dlog (a one-entry vector)
    def _check(self, ctx, rng):
        r = ctx.r
        vals = [1, r - 1] + [rng.randrange(1, r) for _ in range(60)]
        got = dlog_two_power_vec(residue_vec(vals, r), ctx)
        assert got.tolist() == [dlog_two_power_bits(u, ctx) for u in vals]

    def test_matches_scalar(self, rng, arithmetic_branch):
        for r, n, f in ((22777, 1, 949), (45553, 2, 949), (7681, 7, 5)):
            self._check(build_field_context(r, n, f), rng)

    def test_matches_scalar_on_large_primes(self, rng):
        # primes past each limit reach the other two branches unpatched
        for bits in (31, 50):
            self._check(_large_context(bits, 2, 949), rng)

    def test_zero_rejected(self, arithmetic_branch):
        ctx = build_field_context(22777, 1, 949)
        with pytest.raises(ZeroDivisionError):
            dlog_two_power_vec(residue_vec([1, 0, 5], ctx.r), ctx)
