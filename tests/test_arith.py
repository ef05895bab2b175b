import inspect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsmooth import arith
from ecsmooth.errors import DomainError, RamifiedPrimeError, UsageError


class TestInverseOrDivisor:
    def test_inverse_case(self):
        inv, g = arith.inverse_or_divisor(3, 35)
        assert g is None
        assert inv * 3 % 35 == 1

    def test_divisor_case(self):
        inv, g = arith.inverse_or_divisor(10, 35)
        assert inv is None
        assert g == 5

    def test_zero(self):
        inv, g = arith.inverse_or_divisor(0, 35)
        assert inv is None and g == 35

    @given(st.integers(min_value=0, max_value=10**6), st.integers(min_value=2, max_value=10**6))
    def test_totality(self, a, n):
        inv, g = arith.inverse_or_divisor(a, n)
        if inv is not None:
            assert g is None
            assert a * inv % n == 1
        else:
            assert g > 1 and n % g == 0


class TestKronecker:
    def test_legendre_agreement(self):
        # against Euler's criterion for odd primes
        for p in (3, 5, 7, 11, 13, 101):
            for a in range(1, p):
                euler = pow(a, (p - 1) // 2, p)
                expected = 1 if euler == 1 else -1
                assert arith.kronecker(a, p) == expected

    def test_disc_minus_four(self):
        # chi_{-4}: +1 at 1 mod 4, -1 at 3 mod 4, 0 at even
        vals = [arith.kronecker(-4, n) for n in range(1, 9)]
        assert vals == [1, 0, -1, 0, 1, 0, -1, 0]

    @given(st.integers(-300, 300), st.integers(1, 300), st.integers(1, 300))
    def test_multiplicative_in_bottom(self, d, m, n):
        assert arith.kronecker(d, m * n) == arith.kronecker(d, m) * arith.kronecker(d, n)


class TestPrimes:
    def test_sieve_small(self):
        assert arith.prime_sieve(20) == [2, 3, 5, 7, 11, 13, 17, 19]
        with pytest.raises(DomainError):
            arith.prime_sieve(1)

    @pytest.mark.parametrize("limit", [2, 3, 4, 5, 100, 2**20, 2**20 + 1, 2**20 + 7, 2**21 + 3])
    def test_sieve_start_is_filtered_full_sieve(self, limit):
        full = arith.prime_sieve(limit)
        root = math.isqrt(limit)
        for start in (0, 1, 2, 3, root - 1, root + 1, 2**20 - 1, 2**20 + 1, limit + 1, limit + 5):
            assert arith.prime_sieve(limit, start) == [p for p in full if p >= start], start

    def test_prime_factors_brute(self):
        top = 10**4
        factors = [[] for _ in range(top + 1)]
        for q in range(2, top + 1):
            if not factors[q]:  # no smaller prime divides q
                for m in range(q, top + 1, q):
                    factors[m].append(q)
        for n in range(1, top + 1):
            assert arith.prime_factors(n) == factors[n], n
        with pytest.raises(DomainError):
            arith.prime_factors(0)

    def test_primes_below_strict(self):
        assert arith.primes_below(7) == [2, 3, 5]

    def test_is_prime_known(self):
        for p in (2, 3, 5, 2**31 - 1, 10**9 + 7):
            assert arith.is_prime(p)
        for c in (1, 0, -7, 561, 41041, 2**32 + 1):
            assert not arith.is_prime(c)

    def test_is_prime_above_deterministic_range(self):
        # 40 seeded rounds, memoized on n; is_prime stays a plain function
        # so that the benchmark's tracer can wrap it
        assert inspect.isfunction(arith.is_prime)
        for _ in range(2):
            assert arith.is_prime(2**127 - 1) and arith.is_prime(2**89 - 1)
            assert not arith.is_prime((2**61 - 1) * (2**89 - 1))
            assert not arith.is_prime((2**89 - 1) ** 2)

    @given(st.integers(2, 10**5))
    @settings(max_examples=200)
    def test_is_prime_vs_trial_division(self, n):
        trial = all(n % d for d in range(2, math.isqrt(n) + 1))
        assert arith.is_prime(n) == trial


def _check_sqrt_mod(a, p):
    r = arith.sqrt_mod(a, p)
    residue = p == 2 or pow(a, (p - 1) // 2, p) != p - 1  # Euler's criterion
    if residue:
        assert r is not None and 0 <= r < p and r * r % p == a % p, (a, p)
    else:
        assert r is None, (a, p)


class TestSqrtMod:
    @given(st.sampled_from([3, 5, 7, 13, 17, 97, 101, 10007]), st.integers(0, 10**6))
    def test_roundtrip(self, p, a):
        a %= p
        r = arith.sqrt_mod(a, p)
        if r is None:
            assert pow(a, (p - 1) // 2, p) == p - 1
        else:
            assert r * r % p == a

    def test_every_prime_below_20000(self):
        # every class of p mod 8, each with its own square-root method
        primes = arith.prime_sieve(2 * 10**4)
        assert {p % 8 for p in primes} == {1, 2, 3, 5, 7}
        for p in primes:
            for a in range(min(p, 60)):
                _check_sqrt_mod(a, p)
            assert arith.sqrt_mod(p, p) == 0 and arith.sqrt_mod(-p, p) == 0

    def test_primes_near_2_61(self):
        by_class = {}
        n = 2**61
        while len(by_class) < 4 or min(map(len, by_class.values())) < 3:
            n += 1
            if arith.is_prime(n) and len(by_class.setdefault(n % 8, [])) < 3:
                by_class[n % 8].append(n)
        for p in (q for qs in by_class.values() for q in qs):
            for a in [0, 1, 2, 3, 5, 7, p - 1, p - 7] + [pow(3, k, p) * 12345 % p for k in range(1, 20)]:
                _check_sqrt_mod(a, p)


class TestImagQuadField:
    def test_discriminants(self):
        assert arith.field_for(1).disc == -4
        assert arith.field_for(2).disc == -8
        assert arith.field_for(3).disc == -3
        assert arith.field_for(7).disc == -7
        assert arith.field_for(163).disc == -163

    def test_unit_counts(self):
        assert arith.field_for(1).unit_count == 4
        assert arith.field_for(3).unit_count == 6
        assert arith.field_for(7).unit_count == 2

    def test_whitelist(self):
        with pytest.raises(UsageError):
            arith.field_for(5)

    def test_chi_table_matches_kronecker(self):
        for d in arith.CLASS_NUMBER_ONE_DS:
            K = arith.field_for(d)
            m = -K.disc
            big = list(range(10**12, 10**12 + 2 * m)) + [2**61 - 1, 10**18 + 9]
            for n in list(range(5 * m)) + big:
                assert K.chi(n) == arith.kronecker(K.disc, n), (d, n)


def _is_4p_solution(sol, p, K):
    t, b = sol
    return t >= 0 and b >= 0 and t * t + (-K.disc) * b * b == 4 * p


class TestCornacchia:
    def test_example_p29_d7(self):
        K = arith.field_for(7)
        assert arith.cornacchia(29, K) == (2, 4)  # 4 + 7 * 16 = 4 * 29

    def test_inert_returns_none(self):
        K = arith.field_for(7)
        assert arith.cornacchia(3, K) is None

    def test_ramified_raises(self):
        K = arith.field_for(7)
        with pytest.raises(RamifiedPrimeError):
            arith.cornacchia(7, K)

    def test_canonical_choice_deterministic(self):
        K = arith.field_for(11)
        for p in (5, 23, 31, 37, 47):
            if K.chi(p) != 1:
                continue
            sol = arith.cornacchia(p, K)
            assert sol == arith.cornacchia(p, K)
            assert _is_4p_solution(sol, p, K)

    def test_all_split_primes_to_2000(self):
        for d in arith.CLASS_NUMBER_ONE_DS:
            K = arith.field_for(d)
            for p in arith.prime_sieve(2000):
                if K.chi(p) == 1:
                    sol = arith.cornacchia(p, K)
                    assert sol is not None and _is_4p_solution(sol, p, K), (d, p)
