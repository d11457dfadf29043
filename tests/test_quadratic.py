from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from greenberg.quadratic import (GATE_RUN_NONSPLIT, GATE_RUN_SPLIT, GATE_TRIVIAL, _jacobi,
                                 character_kernel, class_number, is_squarefree,
                                 reduced_forms)
from oracles import analytic_class_number, kronecker_oracle, legendre, unit_norm_oracle

odd = st.integers(0, 100).map(lambda x: 2 * x + 1)


class TestKronecker:
    """The Jacobi symbol (D|a) on odd moduli a is the Kronecker symbol
    there; the character kernel relies on it through reciprocity."""

    def test_examples(self):
        assert _jacobi(2, 3) == -1             # 2 is not a square mod 3
        assert _jacobi(4, 5) == 1
        assert _jacobi(949, 7) == kronecker_oracle(949, 7)
        assert _jacobi(6, 15) == 0             # not prime to the modulus

    def test_against_oracle(self):
        for D in (-15, -8, -4, -3, 5, 8, 12, 13, 949, -949, 6817):
            for a in range(1, 60, 2):
                assert _jacobi(D, a) == kronecker_oracle(D, a), (D, a)

    @given(st.integers(-300, 300), odd, odd)
    @settings(max_examples=300, deadline=None)
    def test_multiplicative(self, D, a, b):
        assert _jacobi(D, a * b) == _jacobi(D, a) * _jacobi(D, b)

    @given(st.integers(-80, 80), st.integers(1, 100))
    @settings(max_examples=300, deadline=None)
    def test_periodic_for_discriminants(self, D, a):
        # for D = 1 mod 4 the character a -> (D|a) has period |D| and is
        # (a||D|) by reciprocity, even a included
        if D % 4 == 1:
            assert _jacobi(a, abs(D)) == kronecker_oracle(D, a) \
                == kronecker_oracle(D, a + abs(D))

    def test_euler_criterion(self):
        for p in (3, 5, 7, 11, 13, 22777):
            for D in (5, 949, -949, 6817):
                assert _jacobi(D, p) == legendre(D, p)


class TestCharacterKernel:
    def test_tiny_fields(self):
        assert character_kernel(3).residues == (1,)
        assert character_kernel(5).residues == (1, 4)

    def test_sign_cases(self):
        assert character_kernel(5).sign_case == "chi_f"
        assert character_kernel(3).sign_case == "chi_minus_f"

    def test_949_size(self):
        ker = character_kernel(949)
        assert len(ker.residues) == 432    # phi(949)/2 = 864/2

    def test_closure_under_multiplication(self, small_radicands):
        for f in small_radicands:
            ker = character_kernel(f)
            rs = ker.residues
            assert 1 in ker
            for a in rs[:8]:
                for b in rs[:8]:
                    assert (a * b) % f in ker

    def test_contains_minus_one_iff_1_mod_4(self, small_radicands):
        for f in small_radicands:
            ker = character_kernel(f)
            assert ((f - 1) in ker) == (f % 4 == 1)

    def test_prime_3_mod_4_kernel_is_squares(self):
        for f in (7, 11, 19, 23):
            ker = set(character_kernel(f).residues)
            squares = {a * a % f for a in range(1, f)}
            assert ker == squares

    def test_complement_has_chi_minus_one(self):
        for f in (21, 35, 57):
            ker = character_kernel(f)
            disc = f if ker.sign_case == "chi_f" else -f
            for a in range(1, f):
                if a in ker or gcd(a, f) != 1:
                    continue
                assert kronecker_oracle(disc, a) == -1

    def test_against_oracle_below_2000(self):
        # the kernel of kronecker_oracle(+-f, .), for every odd squarefree f
        for f in range(3, 2000, 2):
            if not is_squarefree(f):
                continue
            disc = f if f % 4 == 1 else -f
            want = tuple(a for a in range(1, f) if kronecker_oracle(disc, a) == 1)
            assert character_kernel(f).residues == want, f

    def test_set_cache_keeps_equality_and_pickling(self):
        import pickle
        ker = character_kernel(21)
        assert 4 in ker and 2 not in ker            # fills the cached set
        twin = character_kernel(21)
        assert ker == twin and hash(ker) == hash(twin)
        back = pickle.loads(pickle.dumps(ker))
        assert back == ker and 4 in back and 2 not in back

    def test_invalid_f_rejected(self):
        for f in (4, 9, 2, 1, 12):
            with pytest.raises(ValueError):
                character_kernel(f)


class TestClassNumber:
    def test_paper_values(self):
        assert class_number(949).h == 2
        assert class_number(949).m0 == 1
        assert class_number(6817).h == 2
        assert class_number(6817).m0 == 1

    def test_derived_85(self):
        assert class_number(85).h == 2

    def test_known_small_values(self):
        known = {3: 1, 5: 1, 7: 1, 11: 1, 13: 1, 15: 2, 21: 1, 35: 2, 65: 2, 79: 3}
        for f, h in known.items():
            assert class_number(f).h == h, f

    def test_narrow_relation(self, small_radicands):
        for f in small_radicands:
            info = class_number(f)
            if info.unit_norm == -1:
                assert info.h_narrow == info.h
            else:
                assert info.h_narrow == 2 * info.h

    def test_unit_norm_against_explicit_unit(self, small_radicands):
        for f in small_radicands + [85, 949, 565, 6817]:
            assert class_number(f).unit_norm == unit_norm_oracle(f), f

    def test_analytic_oracle_subset(self):
        # full f < 500 sweep runs in the acceptance suite
        for f in range(3, 120, 2):
            if is_squarefree(f):
                assert class_number(f).h == analytic_class_number(f), f

    @pytest.mark.slow
    def test_unit_norm_below_10000(self):
        for f in range(3, 10000, 2):
            if is_squarefree(f):
                assert class_number(f).unit_norm == unit_norm_oracle(f), f

    def test_m0_convention(self):
        # f = 3 mod 4 with even h: the index is half the class number
        info = class_number(15)   # h = 2, 2 ramified
        assert info.m0 == 0
        info = class_number(85)   # f = 5 mod 8, h = 2
        assert info.m0 == 1

    def test_invalid_rejected(self):
        for f in (1, 2, 4, 9, 18, 50):
            with pytest.raises(ValueError):
                class_number(f)

    def test_reduced_forms_are_cycled(self):
        from math import isqrt
        from greenberg.quadratic import _rho
        for D in (12, 85, 949, 660):
            forms = set(reduced_forms(D))
            s = isqrt(D)
            for g in forms:
                assert _rho(g, D, s) in forms


class TestGate:
    def test_trivial(self):
        assert class_number(3).gate == GATE_TRIVIAL   # h = 1 odd, 2 ramified

    def test_nonsplit(self):
        assert class_number(949).gate == GATE_RUN_NONSPLIT

    def test_split(self):
        assert class_number(6817).gate == GATE_RUN_SPLIT

    def test_classify_gate_on_info(self):
        assert class_number(949).gate == GATE_RUN_NONSPLIT
        assert class_number(3).gate == GATE_TRIVIAL

    def test_split_runs_even_with_odd_h(self):
        # f = 1 mod 8 runs regardless of class-number parity
        info = class_number(17)
        assert info.h == 1 and info.gate == GATE_RUN_SPLIT
