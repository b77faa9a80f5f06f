import math

import numpy as np
import pytest

from phasecrt.numtheory import (
    CoprimeSplit,
    NonCoprimeError,
    NotInvertibleError,
    TrivialSplitError,
    chi,
    crt_compose,
    crt_decompose,
    enumerate_splits,
    factorize,
    make_split,
    mod_inverse,
)


def _is_prime(n):
    # independent primality oracle for the factorization invariants
    if n < 2:
        return False
    for d in range(2, int(math.isqrt(n)) + 1):
        if n % d == 0:
            return False
    return True


class TestFactorize:
    @pytest.mark.parametrize(
        "M, factors",
        [
            (15, ((3, 1), (5, 1))),
            (12, ((2, 2), (3, 1))),
            (30, ((2, 1), (3, 1), (5, 1))),
            (2, ((2, 1),)),
            (7, ((7, 1),)),
            (8, ((2, 3),)),
            (210, ((2, 1), (3, 1), (5, 1), (7, 1))),
            (1024, ((2, 10),)),
        ],
    )
    def test_examples(self, M, factors):
        assert factorize(M).factors == factors

    @pytest.mark.parametrize("M", [1, 0, -5])
    def test_rejects_below_two(self, M):
        with pytest.raises(ValueError):
            factorize(M)

    def test_invariants_up_to_1000(self):
        for M in range(2, 1001):
            f = factorize(M)
            assert math.prod(p**e for p, e in f.factors) == M
            primes = [p for p, _ in f.factors]
            assert primes == sorted(set(primes))
            assert all(_is_prime(p) for p in primes)
            assert all(e >= 1 for _, e in f.factors)
            assert f.num_primes == len(primes)
            assert math.prod(f.prime_powers) == M


class TestModInverse:
    @pytest.mark.parametrize("a, m, x", [(5, 3, 2), (3, 5, 2), (1, 7, 1), (1, 2, 1)])
    def test_examples(self, a, m, x):
        assert mod_inverse(a, m) == x

    def test_exhaustive_small_moduli(self):
        for m in range(2, 31):
            for a in range(1, m):
                if math.gcd(a, m) == 1:
                    x = mod_inverse(a, m)
                    assert 1 <= x < m
                    assert (a * x) % m == 1

    def test_not_invertible(self):
        with pytest.raises(NotInvertibleError):
            mod_inverse(6, 9)
        with pytest.raises(NotInvertibleError):
            mod_inverse(0, 5)

    def test_bad_modulus(self):
        with pytest.raises(ValueError):
            mod_inverse(1, 1)


class TestMakeSplit:
    def test_worked_example_15(self):
        s = make_split(15, 3)
        assert (s.M1, s.M2, s.L1, s.L2, s.N1, s.N2) == (3, 5, 5, 3, 2, 2)

    def test_derived_example_12(self):
        # 3*3 = 9 = 1 mod 4 and 1*4 = 4 = 1 mod 3
        s = make_split(12, 4)
        assert (s.M1, s.M2, s.L1, s.L2, s.N1, s.N2) == (4, 3, 3, 4, 3, 1)

    def test_non_coprime(self):
        with pytest.raises(NonCoprimeError):
            make_split(12, 2)

    @pytest.mark.parametrize("M1", [1, 15])
    def test_trivial(self, M1):
        with pytest.raises(TrivialSplitError):
            make_split(15, M1)

    @pytest.mark.parametrize("M1", [4, 0, -3, 16])
    def test_non_divisor(self, M1):
        with pytest.raises(ValueError):
            make_split(15, M1)

    def test_a_split_takes_only_m_and_m1(self):
        assert CoprimeSplit(15, 3) == make_split(15, 3)
        assert CoprimeSplit(15, 3).swapped() == make_split(15, 5)
        with pytest.raises(TypeError):
            CoprimeSplit(15, 3, 5)

    def test_swapped(self):
        s = make_split(15, 3)
        t = s.swapped()
        assert (t.M1, t.M2, t.N1, t.N2) == (5, 3, 2, 2)
        assert t.swapped() == s


class TestEnumerateSplits:
    def test_fifteen(self):
        splits = enumerate_splits(15)
        assert [(s.M1, s.M2) for s in splits] == [(3, 5)]

    def test_thirty(self):
        splits = enumerate_splits(30)
        assert [(s.M1, s.M2) for s in splits] == [(2, 15), (3, 10), (5, 6)]

    @pytest.mark.parametrize("M", [7, 2, 8, 9, 121])
    def test_prime_powers_have_none(self, M):
        assert enumerate_splits(M) == []

    def test_count_and_canonical_form_up_to_1000(self):
        for M in range(2, 1001):
            splits = enumerate_splits(M)
            n = factorize(M).num_primes
            assert len(splits) == 2 ** (n - 1) - 1
            assert len(splits) == chi(M) - 1
            firsts = [s.M1 for s in splits]
            assert firsts == sorted(firsts)
            for s in splits:
                assert s.M1 < s.M2 and s.M1 * s.M2 == M
                assert math.gcd(s.M1, s.M2) == 1
                assert (s.N1 * s.L1) % s.M1 == 1
                assert (s.N2 * s.L2) % s.M2 == 1


class TestCrt:
    def test_compose_examples(self):
        s = make_split(15, 3)
        assert crt_compose(s, 2, 4) == 14
        assert 14 % 3 == 2 and 14 % 5 == 4
        assert crt_compose(s, 0, 0) == 0
        assert crt_compose(s, 1, 0) == 10

    def test_decompose_examples(self):
        s = make_split(15, 3)
        assert crt_decompose(s, 14) == (2, 4)
        assert crt_decompose(s, 0) == (0, 0)

    @pytest.mark.parametrize("q1, q2", [(-1, 0), (3, 0), (0, -1), (0, 5)])
    def test_compose_range(self, q1, q2):
        with pytest.raises(ValueError):
            crt_compose(make_split(15, 3), q1, q2)

    @pytest.mark.parametrize("q", [-1, 15])
    def test_decompose_range(self, q):
        with pytest.raises(ValueError):
            crt_decompose(make_split(15, 3), q)

    @pytest.mark.parametrize("M", [6, 30, 210, 667])
    def test_array_forms_equal_the_scalar_calls(self, M):
        for s in (t for split in enumerate_splits(M) for t in (split, split.swapped())):
            q = np.arange(M)
            q1, q2 = crt_decompose(s, q)
            assert q1.tolist() == [crt_decompose(s, int(x))[0] for x in q]
            assert q2.tolist() == [crt_decompose(s, int(x))[1] for x in q]
            assert crt_compose(s, q1, q2).tolist() == q.tolist()
            grid = crt_compose(s, np.arange(s.M1)[:, None], np.arange(s.M2))
            assert grid.tolist() == [[crt_compose(s, a, b) for b in range(s.M2)]
                                     for a in range(s.M1)]
            assert type(crt_compose(s, 1, 1)) is int
            assert all(type(r) is int for r in crt_decompose(s, M - 1))

    def test_array_range_error_names_the_first_bad_value(self):
        s = make_split(15, 3)
        with pytest.raises(ValueError, match=r"q1=3 out of range \[0, 3\)"):
            crt_compose(s, np.array([0, 2, 3, -1]), 0)
        with pytest.raises(ValueError, match=r"q2=-2 out of range \[0, 5\)"):
            crt_compose(s, np.array([0, 1]), np.array([4, -2]))
        with pytest.raises(ValueError, match=r"q=15 out of range \[0, 15\)"):
            crt_decompose(s, np.array([[1, 14], [15, 16]]))

    def test_roundtrip_and_residues(self):
        for M in (6, 12, 15, 30, 210):
            for s in enumerate_splits(M):
                for q in range(M):
                    q1, q2 = crt_decompose(s, q)
                    assert crt_compose(s, q1, q2) == q
                for q1 in range(s.M1):
                    for q2 in range(s.M2):
                        q = crt_compose(s, q1, q2)
                        assert q % s.M1 == q1 and q % s.M2 == q2

    def test_bijection_up_to_1000(self):
        for M in range(2, 1001):
            for s in enumerate_splits(M):
                image = {
                    crt_compose(s, q1, q2)
                    for q1 in range(s.M1)
                    for q2 in range(s.M2)
                }
                assert len(image) == M

    def test_delta_identity(self):
        # Delta_M(q - q1*N1*L1 - q2*N2*L2) = Delta_M1(q - q1) * Delta_M2(q - q2)
        for M, M1 in ((15, 3), (12, 4), (30, 5)):
            s = make_split(M, M1)
            for q in range(M):
                for q1 in range(s.M1):
                    for q2 in range(s.M2):
                        lhs = (q - q1 * s.N1 * s.L1 - q2 * s.N2 * s.L2) % M == 0
                        rhs = (q - q1) % s.M1 == 0 and (q - q2) % s.M2 == 0
                        assert lhs == rhs

    def test_inverse_free_labeling_is_also_bijective(self):
        # q = q1*L1 + q2*L2 mod M reaches every label too, though the labels
        # it assigns differ from the CRT residues.
        for M in (6, 12, 15, 30):
            for s in enumerate_splits(M):
                image = {
                    (q1 * s.L1 + q2 * s.L2) % M
                    for q1 in range(s.M1)
                    for q2 in range(s.M2)
                }
                assert len(image) == M
