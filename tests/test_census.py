import collections
import hashlib
import io
import math
import mmap
import os
import warnings
from concurrent.futures import Executor, Future

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsmooth import arith, census, cli, cmcount, curve, ecm, lfunc
from ecsmooth.errors import AmbiguityError, CacheError, CapacityError, DomainError, UsageError

from conftest import series_rows, traced_peak

E7 = ecm.catalog_curve("e7")
E11 = ecm.catalog_curve("e11")
CM_CURVES = [cat for cat in ecm.curve_catalog() if cat.cm_field is not None]


def largest_prime_factor(n):
    """P+(n) by trial division, with P+(1) = 1: the scalar reference."""
    lpf, p = 1, 2
    while p * p <= n:
        while n % p == 0:
            lpf, n = p, n // p
        p += 1
    return max(lpf, n)


def good_primes(cat, x):
    return [p for p in arith.prime_sieve(x) if cat.curve.has_good_reduction(p)]


def naive_table(cat, x):
    """The (primes, orders, pplus) table of the good primes p <= x, with the
    orders from naive point counts and their P+ from trial division."""
    ps = good_primes(cat, x)
    ns = [curve.naive_count(cat.curve, p) for p in ps]
    return (np.array(ps, np.int64), np.array(ns, np.int64),
            np.array([largest_prime_factor(n) for n in ns], np.int64))


class TestFriabilityTester:
    def test_strictness(self):
        t = census.FriabilityTester(7)
        assert t(1) and t(12) and t(30)
        assert not t(7) and not t(14)

    def test_bad_args(self):
        with pytest.raises(UsageError):
            census.FriabilityTester(1)
        with pytest.raises(UsageError):
            census.FriabilityTester(7)(0)
        with pytest.raises(UsageError):
            census.FriabilityTester(7)(np.array([5, 0, 3]))

    @given(st.integers(1, 10**4), st.integers(2, 100))
    @settings(max_examples=200)
    def test_matches_lpf(self, n, y):
        expected = n == 1 or largest_prime_factor(n) < y
        assert census.FriabilityTester(y)(n) == expected

    SMALL_PRIMES = arith.prime_sieve(3000)

    @given(
        st.lists(
            st.one_of(
                st.integers(1, 10**7),
                st.just(1),
                st.sampled_from(arith.prime_sieve(20000)),
                st.builds(pow, st.sampled_from(SMALL_PRIMES), st.integers(1, 5)),
            ),
            max_size=40,
        ),
        st.integers(2, 4000),
    )
    @settings(max_examples=300, deadline=None)
    def test_mask_matches_scalar(self, ns, y):
        # y runs from far below sqrt(n) to above it; prime powers reach 3000^5
        mask = census.FriabilityTester(y)(np.array(ns, dtype=np.int64))
        assert mask.dtype == bool
        assert mask.tolist() == [n == 1 or largest_prime_factor(n) < y for n in ns]

    def test_mask_over_a_range(self):
        ns = np.arange(1, 3000, dtype=np.int64)
        for y in (2, 5, 60):
            want = [n == 1 or largest_prime_factor(n) < y for n in ns.tolist()]
            assert census.FriabilityTester(y)(ns).tolist() == want

    def test_is_pplus_below_y(self):
        # the tester's primes stop at min(y, isqrt(max n) + 1), the kernel's
        # at isqrt(max n); both verdicts agree at every y
        rng = np.random.default_rng(7)
        ns = np.concatenate((np.arange(1, 5000), rng.integers(1, 2**33, 300), [2**32 - 1, 2**32 + 1]))
        pplus = census.largest_prime_factor(ns)
        for y in (2, 3, 128, 10**4, int(ns.max()) + 1):
            assert (census.FriabilityTester(y)(ns) == (pplus < y)).all(), y

    def test_exact_on_int64(self):
        # uint64 arithmetic, n up to just below 2^63
        ns = np.array([2**60 * 7, 3**39, 7**22, 2**62 + 1, 2**63 - 1])
        assert census.FriabilityTester(8)(ns).tolist() == [True, True, True, False, False]
        assert census.FriabilityTester(7)(7**22) is False
        assert census.FriabilityTester(5)(2**62) and not census.FriabilityTester(5)(5 * 2**60)
        assert census.FriabilityTester(6)(5 * 2**60)

    def test_scalar_returns_bool(self):
        assert census.FriabilityTester(7)(12) is True

    def test_primes_only_to_sqrt_of_largest_n(self):
        # every order of e7 to 10^4 is below 10^4 + 202, so a call needs only
        # the primes <= 100, not the 664,579 primes below y
        orders = census.order_table(E7, 0, 10**4 + 1)[1]
        mask, peak = traced_peak(lambda: census.FriabilityTester(10**7)(orders))
        assert mask.all()
        assert peak < 1 << 20, peak


SQRT_PRIMES = arith.prime_sieve(1 << 20)  # every prime <= sqrt(2^40)


def trial_pplus(n):
    """P+(n), P+(1) = 1, by trial division by the primes <= sqrt(n)."""
    top = 1
    for p in SQRT_PRIMES:
        if p * p > n:
            break
        if n % p == 0:
            top = p
            while n % p == 0:
                n //= p
    return max(top, n)


class TestLargestPrimeFactor:
    def check(self, ns):
        got = census.largest_prime_factor(np.array(ns, dtype=np.int64))
        assert got.dtype == np.int64
        assert got.tolist() == [trial_pplus(n) for n in ns]

    @given(st.lists(st.integers(1, 2**40), min_size=1, max_size=12))
    @settings(max_examples=25, deadline=None)
    def test_matches_trial_division(self, ns):
        self.check(ns)

    def test_small_range(self):
        self.check(list(range(1, 20000)))

    def test_edge_cases(self):
        # 1, powers of 2, primes, and the squares of the primes with their
        # neighbours and the products of adjacent primes, on either side of
        # every step at which an n below p^2 leaves the working set
        ps = arith.prime_sieve(2000)
        ns = [1] + [2**k for k in range(41)] + ps
        for p, q in zip(ps, ps[1:]):
            ns += [p * p - 1, p * p, p * p + 1, p * q, p * q * q, p * p * q]
        self.check(ns)
        # alone, each n is divided by the primes up to its own square root
        for n in [1, 2, 3, 4, 2**40] + [m for p in ps[:60] for m in (p * p - 1, p * p, p * p + 1)]:
            self.check([n])

    def test_around_two_to_32(self):
        # uint32 arithmetic up to 2^32 - 1, uint64 from 2^32 on
        below = [2**32 - k for k in range(1, 40)]
        above = [2**32 + k for k in range(40)]
        self.check(below)
        self.check(above)
        self.check(below + above)
        self.check(below + [2**32])

    def test_largest_order_at_sieve_limit(self):
        x = arith.SIEVE_LIMIT
        top = x + 1 + math.isqrt(4 * x)  # above every order of a p <= x
        self.check([top - k for k in range(60)] + [2**31 - 1, 2**31])

    def test_empty_and_bad(self):
        assert census.largest_prime_factor(np.array([], np.int64)).tolist() == []
        with pytest.raises(UsageError):
            census.largest_prime_factor(np.array([3, 0]))


def trial_factor(n):
    """{p: v_p(n)} by trial division by the primes <= sqrt(n)."""
    vals = collections.Counter()
    for p in SQRT_PRIMES:
        if p * p > n:
            break
        while n % p == 0:
            vals[p], n = vals[p] + 1, n // p
    if n > 1:
        vals[n] += 1
    return vals


# n = a 2^i 3^j < 2^32: powers of 2 and 3 go through the lowest-set-bit step
# and the repeated division by one prime
SMOOTH_PART = st.tuples(st.integers(1, 1000), st.integers(0, 12), st.integers(0, 6)).map(
    lambda t: t[0] * 2 ** t[1] * 3 ** t[2]
)


class TestDivisionPass:
    """census._largest_factor_left's counts: sum_n v_p(n) = divisions[p] +
    #{n : m = p} for every prime p it divides by and, when those are all the
    primes <= isqrt(max n), for every prime above, where m is 1 or a prime."""

    def check(self, ns, primes):
        """The pass of ns by primes against trial division: its first array,
        its division counts and its m's."""
        first, divisions, left = census._largest_factor_left(np.array(ns, np.int64), primes)
        assert divisions.dtype == np.int64 and divisions.size == len(primes)
        left = left.tolist()
        prod = math.prod(primes)
        want = collections.Counter()
        for n, m in zip(ns, left):
            # m is n without its part made of the primes: m left the working
            # set as 1 or a prime, or it is free of the primes
            assert n % m == 0 and (arith.is_prime(m) or math.gcd(m, prod) == 1)
            rest = n // m
            while (g := math.gcd(rest, prod)) > 1:
                rest //= g
            assert rest == 1
            want += trial_factor(n)
        got = collections.Counter(left)
        for p, d in zip(primes, divisions.tolist()):
            got[p] += d
        assert all(want[p] == got[p] for p in primes)
        return first, want, got

    def check_full(self, ns):
        primes = arith.primes_below(math.isqrt(max(ns)) + 1)
        first, want, got = self.check(ns, primes)
        assert first.tolist() == census.largest_prime_factor(np.array(ns, np.int64)).tolist()
        # above the last prime divided out, v_l(n) <= 1 and l | n iff m = l
        last = primes[-1] if primes else 1
        assert {p: v for p, v in want.items() if p > last} == {p: v for p, v in got.items() if p > last}

    def check_truncated(self, ns, y):
        primes = census._friability_primes(y, max(ns))
        first, _, _ = self.check(ns, primes)
        pplus = census.largest_prime_factor(np.array(ns, np.int64))
        assert ((first < y) == (pplus < y)).all()

    @given(st.lists(st.one_of(st.integers(1, 2**32 - 1), SMOOTH_PART), min_size=1, max_size=12),
           st.integers(2, 3000))
    @settings(max_examples=25, deadline=None)
    def test_uint32_path(self, ns, y):
        self.check_full(ns)
        self.check_truncated(ns, y)

    @given(st.lists(st.one_of(st.integers(1, 2**34), SMOOTH_PART), min_size=0, max_size=12),
           st.integers(2**32, 2**34), st.integers(2, 3000))
    @settings(max_examples=25, deadline=None)
    def test_uint64_path(self, ns, big, y):
        self.check_full(ns + [big])
        self.check_truncated(ns + [big], y)

    def test_edge_cases(self):
        # powers of 2, and the squares of the primes with their neighbours
        # and the products of adjacent primes, on either side of every step
        # at which an n below p^2 leaves the working set
        ps = arith.prime_sieve(400)
        ns = [1] + [2**k for k in range(32)] + ps
        for p, q in zip(ps, ps[1:]):
            ns += [p * p - 1, p * p, p * p + 1, p * q, p * q * q, p * p * q]
        for tail in ([], [2**33 * 3]):
            self.check_full(ns + tail)
            for y in (2, 3, 100, 401):
                self.check_truncated(ns + tail, y)

    def test_empty(self):
        first, divisions, left = census._largest_factor_left(np.array([], np.int64), [2, 3])
        assert first.size == left.size == 0 and divisions.tolist() == [0, 0]


class TestPsiExact:
    def test_example(self):
        assert census.psi_counts([10], 3)[0] == 4  # {1, 2, 4, 8}

    def test_y_above_x(self):
        assert census.psi_counts([100], 101)[0] == 100

    def test_brute_force_cross_product(self):
        for x in (30, 100, 300):
            for y in (2, 3, 7, 10, 50):
                brute = sum(
                    1 for n in range(1, x + 1) if n == 1 or largest_prime_factor(n) < y
                )
                assert census.psi_counts([x], y)[0] == brute, (x, y)

    def test_budget(self):
        with pytest.raises(CapacityError):
            census.psi_counts([census.PSI_BUDGET + 1], 100)


def divided_out(n, primes):
    """n divided by the full power of every prime in primes, by trial division."""
    for p in primes:
        while n % p == 0:
            n //= p
    return n


class TestDivideOut:
    # windows [lo, hi) and bounds y: from 1; lo a prime, unaligned with every
    # p^k; windows shorter than most p; hi just above and just below a power
    # (2^20, 3^12 = 531441, 101^2 = 10201); primes at and above hi
    WINDOWS = [
        (1, 3000, 3),
        (1, 3000, 50),
        (1, 600, 10**4),
        (1_000_003, 1_000_400, 10**4),
        (999_983, 999_990, 1000),
        (2**20 - 300, 2**20, 200),
        (2**20 - 300, 2**20 + 1, 200),
        (531_441 - 100, 531_441, 100),
        (531_441 - 100, 531_442, 100),
        (10_150, 10_201, 200),
        (10_150, 10_202, 200),
        (5, 40, 100),
    ]

    def test_matches_trial_division(self):
        rng = np.random.default_rng(2026)
        windows = list(self.WINDOWS)
        for _ in range(20):
            lo = int(rng.integers(1, 2 * 10**6))
            windows.append((lo, lo + int(rng.integers(1, 400)), int(rng.choice([2, 3, 7, 100, 5000]))))
        for lo, hi, y in windows:
            primes = arith.primes_below(y)
            want = [divided_out(n, primes) for n in range(lo, hi)]
            assert census._divide_out(lo, hi, primes).tolist() == want, (lo, hi, y)

    def test_int32_up_to_the_psi_budget(self):
        hi = census.PSI_BUDGET + 1
        rem = census._divide_out(hi - 3000, hi, arith.primes_below(100))
        assert rem.dtype == np.int32
        want = [divided_out(n, arith.primes_below(100)) for n in range(hi - 3000, hi)]
        assert rem.tolist() == want
        # a bound y above 2^31 compares as an integer, not wrapped to int32
        assert (rem < 2**31 + 11).all() and not (rem >= 2**32 + 5).any()

    def test_wrapping_multiply_warns_nothing(self):
        # the products by p^-1 wrap mod 2^32 at every multiple of an odd p
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for lo, hi in [(1, 5000), (2**31 - 5000, 2**31)]:
                rem = census._divide_out(lo, hi, arith.primes_below(200))
                assert rem.dtype == np.int32
                assert rem.tolist() == [divided_out(n, arith.primes_below(200)) for n in range(lo, hi)]

    @pytest.mark.parametrize("y, psi", [(2, 1), (3, 24), (100, 269_882), (10**4, 4_699_661)])
    def test_psi_at_ten_million(self, y, psi):
        # values of the strided floor division that the exact division replaced
        assert census.psi_counts([10**7], y)[0] == psi


class TestPsiCounts:
    SEG = census.PSI_SEGMENT  # psi_counts' segment length
    CPS = [10, 999, 1000, 1001, 70_000, SEG, SEG + 1, SEG + 2]

    @pytest.fixture(scope="class")
    def lpf(self):
        from test_acceptance import _largest_prime_factors

        return _largest_prime_factors(self.SEG + 2)

    def test_straddles_segment_edge(self, lpf):
        # y = 1000 lies above the first two checkpoints only, y = 10^4 above four
        for y in (2, 3, 1000, 10**4):
            friable = np.cumsum(lpf < y) - 1  # n = 0 is not counted
            assert census.psi_counts(self.CPS, y) == friable[self.CPS].tolist(), y

    def test_one_pass_equals_per_checkpoint(self):
        cps = [self.SEG + 2, 16, self.SEG, 16]  # any order, repeats allowed
        assert census.psi_counts(cps, 50) == [census.psi_counts([c], 50)[0] for c in cps]

    @pytest.mark.parametrize("y", [2, 30])
    def test_many_checkpoints_per_window(self, monkeypatch, y):
        # 10^4 checkpoints in any order, most of them repeated, in windows
        # of 64 integers: each equals its own one-checkpoint pass
        monkeypatch.setattr(census, "PSI_SEGMENT", 64)
        cps = np.random.default_rng(32).integers(1, 1001, 10**4).tolist()
        want = {c: census.psi_counts([c], y)[0] for c in set(cps)}
        assert census.psi_counts(cps, y) == [want[c] for c in cps]

    def test_y_above_every_checkpoint(self):
        assert census.psi_counts([5, 100], 101) == [5, 100]
        assert census.psi_counts([], 5) == []

    def test_guards(self):
        with pytest.raises(UsageError, match=r"x=0 must be >= 1"):
            census.psi_counts([10, 0], 5)
        with pytest.raises(UsageError, match=r"y=1 must be >= 2"):
            census.psi_counts([10], 1)
        with pytest.raises(CapacityError, match=r"psi budget: x=1000000001 > 1000000000"):
            census.psi_counts([10, census.PSI_BUDGET + 1], 100)
        with pytest.raises(UsageError):
            census.psi_counts([0], 5)


class TestPsiE:
    def test_all_friable_bound(self):
        x = 500
        _, hi = curve.hasse_interval(x)
        table = naive_table(E7, x)
        assert census.psi_E([table], [(x, hi + 1)]) == [len(table[0])]

    def test_y2_zero_beyond_tiny(self):
        assert census.psi_E([naive_table(E7, 500)], [(500, 2)]) == [0]

    def test_brute_recount(self):
        y = 1 << 7
        table = naive_table(E7, 10**4)
        got = census.psi_E([table], [(10**4, y)])[0]
        assert got == sum(1 for n in table[1].tolist() if largest_prime_factor(n) < y)

    def test_monotone(self):
        table = naive_table(E7, 2000)
        vals_y = census.psi_E([table], [(2000, y) for y in (4, 16, 64, 256)])
        assert vals_y == sorted(vals_y)
        vals_x = census.psi_E([table], [(x, 64) for x in (500, 1000, 2000)])
        assert vals_x == sorted(vals_x)

    def test_no_points_no_segments(self):
        assert census.psi_E([naive_table(E7, 100)], []) == []
        assert census.psi_E([], [(100, 16)]) == [0]


class TestSweep:
    CHECKPOINTS = [2, 16, 100, 101, 500, 1024, 3000]

    @pytest.mark.parametrize(
        "hit", [census.FriabilityTester(32), lambda n: n % 8 == 0], ids=["friable", "divisible"]
    )
    def test_matches_per_checkpoint_brute(self, hit):
        primes, orders, _ = naive_table(E7, 3000)
        pairs = list(zip(primes.tolist(), orders.tolist()))
        brute = [sum(1 for p, n in pairs if p <= x and hit(n)) for x in self.CHECKPOINTS]
        assert census.sweep(primes, hit(orders), self.CHECKPOINTS) == brute

    def test_one_order_per_prime(self, monkeypatch):
        calls = []

        def order(cat, p):
            calls.append(p)
            return p + 1

        monkeypatch.setattr(cmcount, "order", order)
        primes = good_primes(E7, 1000)
        ps, ns, pplus = census.order_table(E7, 0, 1001)
        assert calls == primes
        assert ps.tolist() == primes and ns.tolist() == [p + 1 for p in primes]
        assert pplus.tolist() == [largest_prime_factor(p + 1) for p in primes]
        assert census.sweep(ps, ns > 0, [10, 100, 1000]) == [
            sum(1 for p in primes if p <= c) for c in (10, 100, 1000)
        ]


class TestPsiEZ:
    # (curve, x, y, z): y above x, z above every order, a non-CM curve
    CASES = [
        ("e7", 300, 20, 10),
        ("e11", 1000, 50, 30),
        ("e7", 200, 500, 10),
        ("e1", 400, 30, 10**6),
        ("e37", 600, 40, 20),
        ("e37", 700, 800, 50),
    ]

    def test_brute_recount(self):
        for name, x, y, z in self.CASES:
            cat = ecm.catalog_curve(name)
            table = naive_table(cat, x)
            hitting = [
                p for p, n in zip(*(a.tolist() for a in table[:2])) if largest_prime_factor(n) < z
            ]
            brute = sum(
                1
                for n in range(2, x + 1)
                if largest_prime_factor(n) < y and any(n % p == 0 for p in hitting)
            )
            assert census.psi_E_z([table], x, y, z) == brute, (name, x, y, z)

    def test_y_above_two_to_31(self):
        table = naive_table(E11, 400)
        got = census.psi_E_z([table], 400, 2**31 + 11, 30)
        assert got == census.psi_E_z([table], 400, 401, 30) > 0

    def test_subset_of_psi(self):
        assert census.psi_E_z([naive_table(E7, 500)], 500, 20, 10) <= census.psi_counts([500], 20)[0]

    def test_one_never_counts(self):
        assert census.psi_E_z([naive_table(E7, 2)], 1, 10, 10) == 0

    @pytest.mark.parametrize("window", [7, 64, 100])
    def test_small_windows(self, monkeypatch, window):
        # many windows, and hit primes at and above the window length: every
        # count equals the one-window count
        cases = [(cat, x, y, z, naive_table(ecm.catalog_curve(cat), x)) for cat, x, y, z in self.CASES]
        want = [census.psi_E_z([table], x, y, z) for _, x, y, z, table in cases]
        monkeypatch.setattr(census, "PSI_SEGMENT", window)
        assert [census.psi_E_z([table], x, y, z) for _, x, y, z, table in cases] == want

    def test_memory_bounded_by_one_window(self):
        # the peak at 4x stays within one window's int32 remainders of the
        # peak at x: no array spans [1, x]
        table, x = naive_table(E7, 2000), 1 << 20
        (n1, peak1), (n4, peak4) = (traced_peak(lambda: census.psi_E_z([table], m, 100, 10)) for m in (x, 4 * x))
        assert 0 < n1 < n4
        assert peak4 <= peak1 + 4 * census.PSI_SEGMENT, (peak1, peak4)


class TestPiED:
    def test_d1(self):
        table = naive_table(E7, 500)
        assert census.pi_E_d([table], 500, 1) == len(table[0])

    def test_huge_d(self):
        _, hi = curve.hasse_interval(500)
        assert census.pi_E_d([naive_table(E7, 500)], 500, hi + 1) == 0

    def test_noncm_density(self):
        cat = ecm.catalog_curve("e37")
        x = 10**4
        got = census.pi_E_d([census.order_table(cat, 0, x + 1)], x, 2)
        from ecsmooth import lfunc

        predicted = lfunc.w_noncm(2) / 2 * x / math.log(x)
        assert got * 2 / (lfunc.w_noncm(2) * x / math.log(x)) == pytest.approx(1.0, abs=0.25)
        assert got > 0 and predicted > 0


class TestRace:
    def test_self_race_zero(self):
        t = naive_table(E7, 1000)
        s = census.race(E7, E7, 128, [100, 500, 1000], [t], [t])
        assert all(v == 0 for _, v in s.rows)

    def test_antisymmetry(self):
        t1, t2 = naive_table(E7, 2000), naive_table(E11, 2000)
        a = census.race(E7, E11, 128, [200, 800, 2000], [t1], [t2])
        b = census.race(E11, E7, 128, [200, 800, 2000], [t2], [t1])
        assert [(x, -v) for x, v in a.rows] == b.rows

    def test_empty_checkpoints(self):
        empty = census.order_table(E7, 0, 0)
        assert census.race(E7, E11, 128, [], [empty], [empty]).rows == []

    def test_matches_pointwise_psi(self):
        t1, t2 = naive_table(E7, 1500), naive_table(E11, 1500)
        s = census.race(E7, E11, 64, [300, 1500], [t1], [t2])
        for x, v in s.rows:
            assert v == census.psi_E([t1], [(x, 64)])[0] - census.psi_E([t2], [(x, 64)])[0]


def split(table, cuts):
    """The table as segments, a new one at the first prime >= each cut."""
    bounds = [0, *np.searchsorted(table[0], cuts).tolist(), len(table[0])]
    return [tuple(col[a:b] for col in table) for a, b in zip(bounds, bounds[1:])]


class TestSegmentCounts:
    """Every curve-order count reads its segments once, so a one-pass
    iterator of them (OrderCache.segments is a generator) counts what their
    list counts, and both equal a loop over the joined columns."""

    X = 3000
    CUTS = [1000, 2000]  # segments [0, 1000), [1000, 2000), [2000, 3000]
    # unsorted and repeated, on both sides of each cut: 997 | 1009, 1999 | 2003
    XS = [2500, 997, 1009, 16, 1000, 997, 3000, 2003, 1999, 1009]
    YS = (16, 128)

    @pytest.fixture(scope="class")
    def tables(self):
        return {cat.name: naive_table(cat, self.X) for cat in (E7, E11)}

    @staticmethod
    def rows(table):
        return list(zip(*(col.tolist() for col in table)))

    def both(self, count, table):
        """count(segments) on the list of the table's segments and on a
        one-pass iterator of them, asserted equal."""
        segments = split(table, self.CUTS)
        assert len(segments) == 3 and all(len(seg[0]) for seg in segments)
        got = count(segments)
        assert count(iter(segments)) == got
        return got

    def test_psi_e(self, tables):
        points = [(x, y) for x in self.XS for y in self.YS]
        brute = [sum(1 for p, _, m in self.rows(tables["e7"]) if p <= x and m < y) for x, y in points]
        assert self.both(lambda segs: census.psi_E(segs, points), tables["e7"]) == brute

    def test_race(self, tables):
        y = 128

        def psi(name, x):
            return sum(1 for p, _, m in self.rows(tables[name]) if p <= x and m < y)

        segments11 = split(tables["e11"], self.CUTS)
        got = self.both(lambda segs: census.race(E7, E11, y, self.XS, segs, segments11).rows, tables["e7"])
        assert got == census.race(E7, E11, y, self.XS, split(tables["e7"], self.CUTS), iter(segments11)).rows
        assert got == [(x, psi("e7", x) - psi("e11", x)) for x in sorted(set(self.XS))]

    def test_gamma_tilde_curve(self, tables):
        points = [(x, y) for x in self.XS for y in self.YS if y <= x]
        rows = self.rows(tables["e11"])
        brute = [
            census.gamma_tilde_counts(sum(1 for p, _, m in rows if p <= x and m < y),
                                      sum(1 for p, _, _ in rows if p <= x), x, y)
            for x, y in points
        ]
        assert self.both(lambda segs: census.gamma_tilde_curve(segs, points), tables["e11"]) == brute

    @pytest.mark.parametrize("d", [2, 3, 7])
    def test_pi_e_d(self, tables, d):
        for x in self.XS:
            brute = sum(1 for p, n, _ in self.rows(tables["e7"]) if p <= x and n % d == 0)
            assert self.both(lambda segs: census.pi_E_d(segs, x, d), tables["e7"]) == brute, x

    @pytest.mark.parametrize("y, z", [(1500, 30), (2500, 12)])
    def test_psi_e_z(self, tables, y, z):
        hitting = [p for p, _, m in self.rows(tables["e7"]) if m < z]
        for x in (997, 1009, 1999, 2003):
            brute = sum(
                1
                for n in range(2, x + 1)
                if largest_prime_factor(n) < y and any(n % p == 0 for p in hitting if p < y)
            )
            assert self.both(lambda segs: census.psi_E_z(segs, x, y, z), tables["e7"]) == brute, x

    def test_order_cache_stream(self, tmp_path, monkeypatch):
        # the cache's own generator, across a CACHE_SEGMENT boundary
        seg = census.CACHE_SEGMENT
        fake_orders(monkeypatch)
        cache = census.OrderCache(tmp_path)
        x = seg + 3000
        points = [(c, y) for c in (x, seg - 1, seg + 1, seg - 1, 5000) for y in (64, math.inf)]
        got = census.psi_E(cache.segments(E7, x), points)
        ps, _, pplus = cache.table(E7, x)
        assert got == [int(np.count_nonzero((ps <= c) & (pplus < y))) for c, y in points]


class TestCensusSeries:
    def test_strictly_increasing_invariant(self):
        with pytest.raises(UsageError):
            census.CensusSeries(census.SeriesKind.PSI, {}, [(2, 1.0), (2, 2.0)])

    def test_header_convention(self):
        s = census.CensusSeries(census.SeriesKind.PSI, {"y": 128}, [(10, 4.0)])
        assert "convention=Pplus_strict" in s.header()
        assert s.to_csv().startswith("# psi,y=128,convention=Pplus_strict")

    def test_json_roundtrip(self):
        s = census.CensusSeries(census.SeriesKind.RACE, {"y": 128, "e2": "e11", "e1": "e7"},
                                [(16, 1.0), (32, 3.0)])
        assert s.to_json() == (
            '{"kind":"race","params":{"e1":"e7","e2":"e11","y":128},'
            '"convention":"Pplus_strict","rows":[[16,1.0],[32,3.0]]}\n'
        )


class TestPsiK:
    @staticmethod
    def ideal_count_brute(x, K):
        # number of ideals of norm n = sum_{d | n} chi(d); summed directly
        total = 0
        for n in range(1, x + 1):
            total += sum(K.chi(d) for d in range(1, n + 1) if n % d == 0)
        return total

    @staticmethod
    def divisor_sum(x, K):
        # sum_{d <= x} chi(d) floor(x/d), term by term
        return sum(K.chi(d) * (x // d) for d in range(1, x + 1))

    def test_small_counts(self):
        for d in arith.CLASS_NUMBER_ONE_DS:
            K = arith.field_for(d)
            for x in (0, 1, 2, 3, 10, 60, 99):
                assert census.psi_K(x, K) == self.ideal_count_brute(x, K), (d, x)
            for x in (1000, 12345, 10**5 + 3):
                assert census.psi_K(x, K) == self.divisor_sum(x, K), (d, x)

    @pytest.mark.parametrize("d", arith.CLASS_NUMBER_ONE_DS)
    def test_density_at_1e10(self, d):
        # psi_K(x) = L(1, chi) x + O(sqrt x); the gap is at most ~400 here
        K = arith.field_for(d)
        x = 10**10
        assert abs(census.psi_K(x, K) - lfunc.l_one(K) * x) <= 10**5

    def test_memory_independent_of_x(self):
        K = arith.field_for(163)
        K.chi(1)  # the chi table belongs to the field, not to this call
        _, peak = traced_peak(lambda: census.psi_K(10**7, K))
        assert peak < 1 << 20, peak

    def test_friable_brute(self):
        for d in (1, 2, 3, 7, 11):
            K = arith.field_for(d)
            x, y = 200, 8
            brute = 0
            for n in range(1, x + 1):
                # ideals counted iff their norm n is y-friable as an integer
                if n > 1 and largest_prime_factor(n) >= y:
                    continue
                brute += sum(K.chi(dd) for dd in range(1, n + 1) if n % dd == 0)
            assert census.psi_K_friable(x, y, K) == brute, d

    @pytest.mark.parametrize("d", arith.CLASS_NUMBER_ONE_DS)
    def test_friable_divisor_sum_oracle(self, d):
        # sum over y-friable n <= x of #ideals of norm n = sum_{e | n} chi(e),
        # with P+(n) and the divisor sums from plain sieves
        K = arith.field_for(d)
        top = 10**5
        lpf = np.ones(top + 1, np.int64)
        for p in range(2, top + 1):
            if lpf[p] == 1:  # no smaller prime divides p
                lpf[p::p] = p
        ideals = np.zeros(top + 1, np.int64)
        for e in range(1, top + 1):
            ideals[e::e] += K.chi(e)
        for x in (1, 2, 30, 1000, 54321, top):
            for y in (2, 3, 10, 100, 1000, x + 1):
                count = int(ideals[: x + 1][lpf[: x + 1] < y].sum())
                assert census.psi_K_friable(x, y, K) == count, (d, x, y)

    def test_below_one(self):
        for d in arith.CLASS_NUMBER_ONE_DS:
            K = arith.field_for(d)
            assert census.psi_K(0, K) == census.psi_K_friable(0, 5, K) == 0
            assert census.psi_K(1, K) == census.psi_K_friable(1, 5, K) == 1
            with pytest.raises(UsageError):
                census.psi_K(-1, K)
            with pytest.raises(UsageError):
                census.psi_K_friable(-1, 5, K)

    def test_friable_caps_at_total(self):
        K = arith.field_for(7)
        assert census.psi_K_friable(500, 1000, K) == census.psi_K(500, K)

    @staticmethod
    def dfs_visiting_leaves(x, y, K):
        # the plain DFS, one recursive call per ideal, leaves included: the
        # reference for psi_K_friable's prefix-sum leaf count
        chis = ((p, K.chi(p)) for p in arith.primes_below(min(y, x + 1)))
        steps = sorted((p * p if c == -1 else p, c) for p, c in chis)

        def dfs(i, budget):
            total = 1
            for j in range(i, len(steps)):
                step, c = steps[j]
                if step > budget:
                    break
                norm, k = step, 1
                while norm <= budget:
                    total += ((k + 1) if c == 1 else 1) * dfs(j + 1, budget // norm)
                    norm *= step
                    k += 1
            return total

        return dfs(0, x) if x else 0

    @pytest.mark.parametrize(
        "d, x", [(d, x) for d in arith.CLASS_NUMBER_ONE_DS for x in (10**5, 10**6)] + [(7, 10**7)]
    )
    def test_friable_to_infinity_is_hyperbola(self, d, x):
        # with every prime admitted, the DFS and the hyperbola count share no code
        K = arith.field_for(d)
        assert census.psi_K_friable(x, x + 1, K) == census.psi_K(x, K)

    @pytest.mark.parametrize("d", arith.CLASS_NUMBER_ONE_DS)
    def test_leaf_boundary_matches_visiting_dfs(self, d):
        # x at p^2 and p^2 +- 1, where a step switches between leaf and
        # inner node: the first split and inert p above 50, the largest
        # ramified p
        K = arith.field_for(d)
        picked = {}
        for p in arith.prime_sieve(1000):
            if K.chi(p) == 0 or (p > 50 and K.chi(p) not in picked):
                picked[K.chi(p)] = p
        assert sorted(picked) == [-1, 0, 1]
        for p in picked.values():
            for x in (p * p - 1, p * p, p * p + 1):
                for y in (2, 3, 100, 10**4, x + 1):
                    got = census.psi_K_friable(x, y, K)
                    assert got == self.dfs_visiting_leaves(x, y, K), (d, p, x, y)

    @given(st.sampled_from(arith.CLASS_NUMBER_ONE_DS), st.integers(0, 2 * 10**5), st.data())
    @settings(max_examples=60, deadline=None)
    def test_matches_visiting_dfs(self, d, x, data):
        K = arith.field_for(d)
        y = data.draw(st.integers(2, x + 2))
        assert census.psi_K_friable(x, y, K) == self.dfs_visiting_leaves(x, y, K)

    def test_prime_list_guard(self, monkeypatch):
        def refuse(*args):
            raise AssertionError(f"_sieve{args} called past the guard")

        monkeypatch.setattr(arith, "_sieve", refuse)
        K = arith.field_for(7)
        # the primes below min(y, x + 1) span [2, min(y, x + 1) - 1]
        limit = arith.PRIME_LIST_LIMIT + 2
        for x, y in ((10**9, limit + 1), (limit, 10**9), (limit, limit + 5)):
            with pytest.raises(CapacityError, match="prime list"):
                census.psi_K_friable(x, y, K)
        # a window of exactly PRIME_LIST_LIMIT integers passes the guard and reaches the sieve
        with pytest.raises(AssertionError, match="called past the guard"):
            census.psi_K_friable(10**9, limit, K)


class TestGammaTilde:
    def test_u_near_one_small(self):
        K = arith.field_for(7)
        # u slightly above 1: ratio near 1, gamma-tilde near 0
        val = census.gamma_tilde_field(K, 10**4, 9000)
        assert abs(val) < 1.0

    def test_field_mode_stability(self):
        K = arith.field_for(7)
        a = census.gamma_tilde_field(K, 10**5, round(10**5 ** (1 / 1.5)))
        b = census.gamma_tilde_field(K, 10**6, round(10**6 ** (1 / 1.5)))
        assert b == pytest.approx(a, rel=0.2)

    def test_curve_mode(self):
        table = naive_table(E7, 3000)
        [val] = census.gamma_tilde_curve([table], [(2000, 100)])
        assert math.isfinite(val)
        friable = census.psi_E([table], [(2000, 100)])[0]
        assert val == census.gamma_tilde_counts(friable, len(good_primes(E7, 2000)), 2000, 100)

    def test_underflow(self):
        assert math.isfinite(census.gamma_tilde_counts(1, 100, 2**50, 2))  # u = 50, the end of the rho table
        for x in (2**51, 2**60):
            with pytest.raises(DomainError, match="underflows"):
                census.gamma_tilde_counts(1, 100, x, 2)

    @pytest.mark.parametrize("x, y", [(10**4, 1), (10**4, 10**4 + 1), (1, 2)])
    def test_bad_y_before_counting(self, monkeypatch, x, y):
        def refuse(*args):
            raise AssertionError(f"counted {args} with a bad y")

        def segments():
            refuse()
            yield

        for name in ("psi_K_friable", "psi_K", "psi_E"):
            monkeypatch.setattr(census, name, refuse)
        with pytest.raises(UsageError, match="gamma_tilde needs 2 <= y <= x"):
            census.gamma_tilde_field(arith.field_for(7), x, y)
        # every point is checked before the segments are read
        with pytest.raises(UsageError, match="gamma_tilde needs 2 <= y <= x"):
            census.gamma_tilde_curve(segments(), [(2000, 100), (x, y)])


def fake_orders(monkeypatch, fail_at=None):
    """Make every segment cheap: |E(F_p)| := p + 1, except that the prime
    fail_at raises AmbiguityError."""

    def order(cat, p):
        if p == fail_at:
            raise AmbiguityError("no unique candidate")
        return p + 1

    monkeypatch.setattr(cmcount, "order", order)


def spy_segments(monkeypatch):
    """Record the (lo, hi) of every run of segments the cache computes in
    this process."""
    calls = []
    compute = census._compute_segment

    def spy(name, lo, hi, *files):
        calls.append((lo, hi))
        return compute(name, lo, hi, *files)

    monkeypatch.setattr(census, "_compute_segment", spy)
    return calls


def inline_pool(monkeypatch):
    """Make the cache's pool run each task at once, in process; returns the
    list of the pool sizes asked."""
    sizes = []

    class InlinePool(Executor):
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = Future()
            fut.set_result(fn(*args))
            return fut

    monkeypatch.setattr(census, "ProcessPoolExecutor", InlinePool)
    return sizes


def computed_segment(tmp_path, name, lo, hi):
    """The file _compute_segment writes for the one-segment run [lo, hi)."""
    path = tmp_path / f"{name}.{lo}.{hi}.npy"
    census._compute_segment(name, lo, hi, [path], census.OrderCache(tmp_path))
    return np.load(path)


class TestSegmentOrders:
    def test_orders_fill_one_int64_array(self):
        # two int64 arrays and the primes' list take about 56 B per good
        # prime; a Python int list of the orders would add about 33 B more
        lo = 2**19
        (primes, orders), peak = traced_peak(lambda: census.segment_orders(E7, lo, lo + 2**17))
        assert primes.dtype == orders.dtype == np.int64 and orders.shape == primes.shape
        assert primes.size > 9000 and peak <= 64 * primes.size, peak / primes.size
        assert orders[::500].tolist() == [cmcount.order(E7, p) for p in primes[::500].tolist()]


class TestOrderCache:
    def test_matches_direct(self, tmp_path):
        cache = census.OrderCache(tmp_path)
        table = cache.orders(E7, 3000)
        assert table == {p: cmcount.order(E7, p) for p in good_primes(E7, 3000)}

    # x = 1 has no good prime; 2^17 - 1 ends the first segment, 2^17 (no
    # prime) opens a second one with no rows
    @pytest.mark.parametrize("x", [1, 2**17 - 1, 2**17, 3000])
    def test_orders_is_the_joined_stream(self, tmp_path, x):
        cache = census.OrderCache(tmp_path)
        ps, ns, _ = cache.table(E7, x)
        got = cache.orders(E7, x)
        assert got == dict(zip(ps.tolist(), ns.tolist())) and bool(got) == (x > 1)

    def test_resume_byte_identical(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        ca, cb = census.OrderCache(a_dir), census.OrderCache(b_dir)
        x = census.CACHE_SEGMENT + 100  # one full segment + a persisted tail
        ca.orders(E7, x)
        cb.orders(E7, x)
        files_a = sorted(f.name for f in a_dir.iterdir())
        files_b = sorted(f.name for f in b_dir.iterdir())
        assert files_a == files_b == [
            census._cache_path(a_dir, "e7", lo).name for lo in (0, census.CACHE_SEGMENT)
        ]
        for name in files_a:
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
        # second call must reuse the files and agree exactly
        again = census.OrderCache(a_dir).orders(E7, x)
        assert again == cb.orders(E7, x)

    @pytest.mark.parametrize(
        "name, lo, hi",
        [("e7", 0, 5000), ("e7", census.CACHE_SEGMENT - 3000, census.CACHE_SEGMENT + 3000),
         ("e37", 2000, 2600), ("e37", 10**5 - 300, 10**5 + 300)],
    )
    def test_segment_sieves_only_its_range(self, tmp_path, name, lo, hi):
        # what the segment held when it was cut from the full prime table
        cat = ecm.catalog_curve(name)
        want = [
            [p, n, largest_prime_factor(n)]
            for p in arith.prime_sieve(hi)
            if lo <= p < hi and cat.curve.has_good_reduction(p)
            for n in [cmcount.order(cat, p)]
        ]
        seg = computed_segment(tmp_path, name, lo, hi)
        assert seg.dtype == np.int64 and seg[0].tolist() == [lo, hi, 0] and seg[1:].tolist() == want

    def test_segment_is_half_open(self, tmp_path):
        assert [p for p, _, _ in computed_segment(tmp_path, "e7", 90, 101)[1:].tolist()] == [97]
        assert computed_segment(tmp_path, "e7", 0, 2).shape == (1, 3)

    # SHA-256 of every file the cache wrote for these tables in the two-column
    # layout of ORDER_VERSION 1, which the (p, |E(F_p)|) columns of each file
    # saved alone reproduce: the nine CM curves to 3 * 10^5 (two full segments
    # and a persisted tail each), e37 to 3 * 10^4 (naive counts up to
    # p = 2000, BSGS above)
    DIGESTS = {
        "e1.v1.0000000000.npy": "471547c81355d1de7c7f5b6a5f509e69835e5f573d0c4c3437134816f287f5fc",
        "e1.v1.0000131072.npy": "342a9499bc2fbc90f6e11731faa6550065c114cd62e93c07313a89f38788f783",
        "e1.v1.0000262144.npy": "b2313cbcb2a2ec8bcd745e8d299e538b44fabbe380913034c4de2c0dbd692905",
        "e11.v1.0000000000.npy": "06f230c42f88267cb320f9f663983b38efec1a47e455bd1ed00466517371cc24",
        "e11.v1.0000131072.npy": "d3dbd82fa582a0cd65b6407d17a3232db3f0e4c23e423448b00963bdd8478fda",
        "e11.v1.0000262144.npy": "8ca66f40d743d8fbafe2a831286e46adb68ca35792c3c78f14e54f3527758588",
        "e163.v1.0000000000.npy": "5f70e281407b87277f885dc43b5a811e956b75fd5905d49fa7d1fac36059e1b9",
        "e163.v1.0000131072.npy": "e9477d736b48829056b38bb775359cbe04970fbff4bccd0b7a32ab6c8f394c60",
        "e163.v1.0000262144.npy": "463de36c32f3395673a91c5973ff40b86f4450dbbb00237872a55593afd41963",
        "e19.v1.0000000000.npy": "32a90e32474de485ae65604bdf8b2359fe52aa40a8637102e1b27db71fc170b5",
        "e19.v1.0000131072.npy": "43168a54f4079297b1ee2aabfa4ab4e41292bf5fa559e60c28631342d652fd44",
        "e19.v1.0000262144.npy": "eb6bd4bf2faf3debfd556f599820cc60c1ce70a0beeed77f49c8bca1aad98b32",
        "e3.v1.0000000000.npy": "84acc1488b326abce2ed403bf63f5b3ef9c80efc8336fc2a648d2e90faae150a",
        "e3.v1.0000131072.npy": "bfde78df1c3a5386f46c80caed74b4f789c4269d46afddc2224d74286a6a0ab5",
        "e3.v1.0000262144.npy": "4af8ec8c7b0560242a43fc8749b1a26d1721077f203204bf64db7d1cdd1826b9",
        "e37.v1.0000000000.npy": "e4bedee7a9c278093c974d621ef291def22e49a7c5e9c69307a331f7fcc68d3e",
        "e43.v1.0000000000.npy": "102435569c44aeb21d2eab18d701d5b657579f3f00259a0cb621832d50056336",
        "e43.v1.0000131072.npy": "75216c35668880fb9a223c367966e4c56921808cd3b9e17ebed4829b80a491cd",
        "e43.v1.0000262144.npy": "85d8d4620a47ea238d214db0608b8eb5789083002593bdc30538ab8fbd2a1693",
        "e67.v1.0000000000.npy": "e714e3805cf4282cb47b7dd98a9564ac0bc116e96bad4c04cf60919c44325562",
        "e67.v1.0000131072.npy": "1e8e4b9d2e6540d330f4e53a1d6a840cc7c5202ab4a83ef1187c25247fab549c",
        "e67.v1.0000262144.npy": "a34f64c7931216c99e79f063eb74e83b548f58a415465219f6985aedfac6d2f4",
        "e7.v1.0000000000.npy": "db1b8c56f0bf0f6b62b45ff6c82dc313c477e4e1b9a4efae796faa20dd48cc10",
        "e7.v1.0000131072.npy": "481fb906fc53c6b3a24710ee3f6b9cc657dcf99b7dcb41ab3b1a69be4b36b777",
        "e7.v1.0000262144.npy": "3af73ad44d7befcb5b9f50bfa5ca459adc81888b2ad11aad2e81141e9fe2b895",
        "e8000.v1.0000000000.npy": "0713e2d1e34eb37dfbbd9a2622d89ec1e8ddcea8ae97b5f6299b958b46038df1",
        "e8000.v1.0000131072.npy": "6b3bcc00b2f77a78c7f64d32fe6b78e65c8339e920e22b23ea5493fcb7a02135",
        "e8000.v1.0000262144.npy": "d6af69746b9ff10beb43906d15107b13e54ee75ce2e0b27e68b24c698adfa70b",
    }

    def test_files_match_recorded_digests(self, tmp_path):
        from test_acceptance import _largest_prime_factors

        cache = census.OrderCache(tmp_path)
        for cat in CM_CURVES:
            cache.table(cat, 3 * 10**5)
        cache.table(ecm.catalog_curve("e37"), 3 * 10**4)
        lpf = _largest_prime_factors(3 * 10**5 + 1 + math.isqrt(12 * 10**5))
        got = {}
        for f in tmp_path.iterdir():
            seg = np.load(f)
            assert seg[0, 2] == 0 and seg[1:, 2].tolist() == lpf[seg[1:, 1]].tolist(), f.name
            two = io.BytesIO()
            np.save(two, seg[:, :2])
            v1_name = f.name.replace(f".v{census.ORDER_VERSION}.", ".v1.")
            got[v1_name] = hashlib.sha256(two.getvalue()).hexdigest()
        assert got == self.DIGESTS

    def test_write_leaves_foreign_tmp(self, tmp_path):
        cache = census.OrderCache(tmp_path)
        path = census._cache_path(tmp_path, "e7", 0)
        foreign = path.with_suffix(".tmp")  # another writer's file in flight
        foreign.write_bytes(b"13 10\n")
        seg = np.array([[0, 14, 0], [11, 12, 3], [13, 12, 3]], dtype=np.int64)
        cache._write(path, seg)
        assert foreign.read_bytes() == b"13 10\n"
        assert census._load_segment(path).tolist() == seg.tolist()
        assert sorted(f.name for f in tmp_path.iterdir()) == [path.name, foreign.name]

    def test_pool_size_is_segments_due(self, tmp_path, monkeypatch):
        fake_orders(monkeypatch)
        sizes = inline_pool(monkeypatch)
        cache = census.OrderCache(tmp_path, workers=64)
        seg = census.CACHE_SEGMENT
        ps = cache.table(E7, seg + 200)[0]
        assert sizes == [2] and ps.tolist() == good_primes(E7, seg + 200)
        cache.table(E7, seg + 400)  # one segment due runs without a pool
        assert sizes == [2]

    @pytest.mark.parametrize("failing, error", [
        ("segment", AmbiguityError),
        ("write", OSError),
        ("write", KeyboardInterrupt),
        ("second write", OSError),
    ])
    def test_failure_cancels_segments_not_started(self, tmp_path, monkeypatch, failing, error):
        seg = census.CACHE_SEGMENT
        # four segments due make four runs of one; six make three runs of two
        due = 6 if failing == "second write" else 4
        fake_orders(monkeypatch)
        cache = census.OrderCache(tmp_path, workers=2)
        cache.table(E7, 3000)
        head = census._cache_path(tmp_path, "e7", 0)
        stored = head.read_bytes()
        shutdowns = []

        class LazyFuture(Future):
            """Runs its task in process only when its result is asked for."""

            def __init__(self, task):
                super().__init__()
                self.task, self.ran = task, False

            def result(self, timeout=None):
                if not self.done():
                    self.ran = True
                    try:
                        self.set_result(self.task())
                    except Exception as exc:
                        self.set_exception(exc)
                return super().result(timeout)

        class LazyPool(Executor):
            """Records at shutdown the futures that neither ran nor were cancelled."""

            def __init__(self, max_workers):
                self.futures = []

            def submit(self, fn, *args):
                self.futures.append(LazyFuture(lambda: fn(*args)))
                return self.futures[-1]

            def shutdown(self, wait=True, *, cancel_futures=False):
                shutdowns.append([f for f in self.futures if not (f.ran or f.cancelled())])

        monkeypatch.setattr(census, "ProcessPoolExecutor", LazyPool)
        if failing == "segment":  # a prime of the second of four segments due
            p = int(arith.prime_array(seg + 200, seg)[0])
            fake_orders(monkeypatch, fail_at=p)
        else:  # the first (or second) staged file is written whole, then the write fails
            write = census.OrderCache._write
            writes = []

            def failing_write(self, path, seg):
                write(self, path, seg)
                writes.append(path)
                if len(writes) == (2 if failing == "second write" else 1):
                    raise error("staged write failed")

            monkeypatch.setattr(census.OrderCache, "_write", failing_write)
        calls = spy_segments(monkeypatch)
        with pytest.raises(error):
            cache.table(E7, (due - 1) * seg + 200)
        assert calls == {"segment": [(0, seg), (seg, 2 * seg)], "write": [(0, seg)],
                         "second write": [(0, 2 * seg)]}[failing]
        assert shutdowns == [[]]  # one pool, shut down with no future pending
        assert [f.name for f in tmp_path.iterdir()] == [head.name]
        assert head.read_bytes() == stored

    def test_table_matches_orders(self, tmp_path):
        cache = census.OrderCache(tmp_path)
        ps, ns, pplus = cache.table(E7, 3000)
        assert ps.tolist() == good_primes(E7, 3000)
        assert dict(zip(ps.tolist(), ns.tolist())) == cache.orders(E7, 3000)
        assert pplus.tolist() == [largest_prime_factor(n) for n in ns.tolist()]

    def test_tail_cover(self, tmp_path, tmp_path_factory, monkeypatch):
        fake_orders(monkeypatch)
        calls = spy_segments(monkeypatch)
        seg = census.CACHE_SEGMENT
        cache = census.OrderCache(tmp_path)
        head = census._cache_path(tmp_path, "e7", 0)

        def covered():
            return census._load_segment(head)[0].tolist()

        cache.table(E7, 3000)
        assert calls == [(0, 3001)] and covered() == [0, 3001, 0]
        ps, ns, pplus = cache.table(E7, 2000)  # a smaller x only loads the tail
        assert calls == [(0, 3001)]
        assert ps.tolist() == good_primes(E7, 2000)
        assert ns.tolist() == [p + 1 for p in ps.tolist()]
        assert pplus.tolist() == [largest_prime_factor(p + 1) for p in ps.tolist()]
        cache.table(E7, 5000)  # a larger x computes the short segment again from 0
        assert calls[1:] == [(0, 5001)] and covered() == [0, 5001, 0]
        fresh = tmp_path_factory.mktemp("fresh")
        census.OrderCache(fresh).table(E7, 5000)  # the recomputed file equals a fresh one
        assert head.read_bytes() == census._cache_path(fresh, "e7", 0).read_bytes()
        ps = cache.table(E7, seg + 50)[0]  # a full segment supersedes the tail
        assert calls[3:] == [(0, seg), (seg, seg + 51)] and covered() == [0, seg, 0]
        assert ps.tolist() == good_primes(E7, seg + 50)
        ps = cache.table(E7, 4000)[0]
        assert len(calls) == 5 and ps.tolist() == good_primes(E7, 4000)
        assert sorted(f.name for f in tmp_path.iterdir()) == [
            head.name, census._cache_path(tmp_path, "e7", seg).name
        ]
        fresh = tmp_path_factory.mktemp("fresh")
        census.OrderCache(fresh).table(E7, seg + 50)  # the grown cache equals a fresh one
        for f in tmp_path.iterdir():
            assert f.read_bytes() == (fresh / f.name).read_bytes(), f.name

    def test_other_version_not_read(self, tmp_path, monkeypatch):
        fake_orders(monkeypatch)
        version = census.ORDER_VERSION
        monkeypatch.setattr(census, "ORDER_VERSION", version + 1)
        census.OrderCache(tmp_path).table(E7, 3000)
        foreign = census._cache_path(tmp_path, "e7", 0)
        monkeypatch.setattr(census, "ORDER_VERSION", version)
        old_text = tmp_path / "e7.0000000000.orders"  # the format before .npy segments
        old_text.write_text("corrupt\n")
        v1 = tmp_path / "e7.v1.0000000000.npy"  # two columns, no P+
        np.save(v1, np.array([[0, 3001], [11, 0]], np.int64))
        v1_bytes = v1.read_bytes()
        calls = spy_segments(monkeypatch)
        census.OrderCache(tmp_path).table(E7, 3000)
        assert calls == [(0, 3001)]
        assert foreign.exists() and census._cache_path(tmp_path, "e7", 0) != foreign
        assert old_text.read_text() == "corrupt\n" and v1.read_bytes() == v1_bytes

    @pytest.mark.parametrize(
        "corrupt, what",
        [
            (lambda s: s.__setitem__((9, 1), s[9, 0] + 2 + math.isqrt(4 * s[9, 0])), "Hasse"),
            (lambda s: s.__setitem__((-1, 1), s[-1, 0] - math.isqrt(4 * s[-1, 0])), "Hasse"),
            (lambda s: s.__setitem__(slice(3, 5), s[[4, 3]]), "ascending"),
            (lambda s: s.__setitem__((-1, 0), s[0, 1]), "ascending"),
            (lambda s: s.__setitem__((0, 0), 5), "covers"),
            (lambda s: s.__setitem__((0, 1), census.CACHE_SEGMENT + 1), "covers"),
            (lambda s: s.__setitem__((9, 2), 0), r"P\+ = 0 "),
            (lambda s: s.__setitem__((9, 2), -s[9, 2]), r"P\+ = -"),
            (lambda s: s.__setitem__((9, 2), 2 * s[9, 1]), r"P\+ .* does not divide"),
            (lambda s: s.__setitem__((-1, 2), s[-1, 1] - 1), r"P\+ .* does not divide"),
            # t = p + 1 - n wraps to -2^63 in int64, and P+ = 1 divides any n
            (lambda s: s.__setitem__((9, slice(1, 3)), [int(s[9, 0]) + 1 - 2**63, 1]), "Hasse"),
        ],
    )
    def test_implausible_file_rejected(self, tmp_path, corrupt, what):
        cache = census.OrderCache(tmp_path)
        cache.table(E7, 3000)
        path = census._cache_path(tmp_path, "e7", 0)
        seg = np.load(path)
        corrupt(seg)
        np.save(path, seg)
        with pytest.raises(CacheError, match=what) as err:
            cache.table(E7, 3000)
        assert str(path) in str(err.value)

    def test_hasse_bounds_accepted(self, tmp_path):
        cache = census.OrderCache(tmp_path)
        cache.table(E7, 3000)
        path = census._cache_path(tmp_path, "e7", 0)
        seg = np.load(path)
        r = [math.isqrt(4 * p) for p in seg[1:, 0].tolist()]
        seg[1::2, 1] = seg[1::2, 0] + 1 + r[::2]
        seg[2::2, 1] = seg[2::2, 0] + 1 - r[1::2]
        seg[1:, 2] = [largest_prime_factor(n) for n in seg[1:, 1].tolist()]
        np.save(path, seg)
        assert census._load_segment(path).tolist() == seg.tolist()

    @pytest.mark.parametrize(
        "payload",
        [
            lambda s: np.save(s[0], s[1].astype(np.float64)),
            lambda s: np.save(s[0], s[1][:, :1]),
            lambda s: np.save(s[0], s[1][:, :2]),
            lambda s: np.save(s[0], s[1].ravel()),
            lambda s: np.save(s[0], s[1][:0]),
            lambda s: s[0].write_bytes(s[0].read_bytes()[:-5]),
            lambda s: s[0].write_bytes(b"2 3\n3 4\n"),
        ],
        ids=["float", "one-column", "two-column", "flat", "empty", "truncated", "text"],
    )
    def test_malformed_file_rejected(self, tmp_path, payload):
        cache = census.OrderCache(tmp_path)
        cache.table(E7, 3000)
        path = census._cache_path(tmp_path, "e7", 0)
        payload((path, np.load(path)))
        with pytest.raises(CacheError) as err:
            cache.table(E7, 3000)
        assert str(path) in str(err.value)

    # the stored rows under a header that names another array: 2^40 rows
    # (24 TiB) must fail on the file, never on an allocation
    @pytest.mark.parametrize(
        "header, what",
        [
            (lambda shape: {"shape": (2**40, 3)}, None),
            (lambda shape: {"shape": (shape[0] + 1, 3)}, "bytes"),
            (lambda shape: {"shape": (shape[0] - 1, 3)}, "bytes"),
            (lambda shape: {"fortran_order": True}, "Fortran-order"),
        ],
        ids=["2^40-rows", "one-row-more", "one-row-less", "fortran"],
    )
    def test_false_header_rejected(self, tmp_path, header, what):
        cache = census.OrderCache(tmp_path)
        cache.table(E7, 3000)
        path = census._cache_path(tmp_path, "e7", 0)
        seg = np.load(path)
        with path.open("wb") as fh:
            np.lib.format.write_array_header_1_0(fh, {"descr": "<i8", "fortran_order": False, "shape": seg.shape,
                                                      **header(seg.shape)})
            fh.write(seg.tobytes())
        for read in (lambda: cache.table(E7, 3000), lambda: census._load_segment(path)):
            with pytest.raises(CacheError, match=what) as err:
                read()
            assert str(path) in str(err.value)

    def test_warm_stream_reads_each_file_once_unmapped(self, tmp_path, monkeypatch):
        fake_orders(monkeypatch)
        seg, x = census.CACHE_SEGMENT, 2 * census.CACHE_SEGMENT + 3000
        cache = census.OrderCache(tmp_path)
        cold = [[col.copy() for col in cols] for cols in cache.segments(E7, x)]
        paths = [census._cache_path(tmp_path, "e7", lo) for lo in (0, seg, 2 * seg)]

        def refuse(*args, **kwargs):
            raise AssertionError("a cache file was mapped")

        monkeypatch.setattr(np, "memmap", refuse)
        monkeypatch.setattr(mmap, "mmap", refuse)
        read, reads = census._read_rows, []

        def spy(path, whole):
            reads.append((path, whole))
            return read(path, whole)

        monkeypatch.setattr(census, "_read_rows", spy)
        fds = len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None
        warm = list(cache.segments(E7, x))  # every segment held at once
        if fds is not None:  # no descriptor outlives its read
            assert len(os.listdir("/proc/self/fd")) == fds
        # the first pass reads one row of each file, the stream each file whole, once
        assert reads == [(path, False) for path in paths] + [(path, True) for path in paths]
        assert [[col.tolist() for col in cols] for cols in warm] == [[col.tolist() for col in cols] for cols in cold]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failing_prime_is_named(self, tmp_path, monkeypatch, workers):
        seg = census.CACHE_SEGMENT
        p = int(arith.prime_array(seg + 200, seg)[0])
        fake_orders(monkeypatch, fail_at=p)
        cache = census.OrderCache(tmp_path, workers=workers)
        with pytest.raises(AmbiguityError) as err:
            cache.table(E7, seg + 200)
        assert str(err.value) == f"e7 segment [{seg}, {seg + 201}), p = {p}: no unique candidate"
        assert not list(tmp_path.iterdir())


class TestRuns:
    """A pooled call computes consecutive segments in runs, each one task
    that makes one order table and writes its segments' files itself; the
    files are those of one task per segment."""

    @staticmethod
    def one_segment_cache(cache, x):
        """The e7 and e11 files to x as one order table per segment makes them."""
        cache.mkdir()
        for name in ("e7", "e11"):
            for lo in range(0, x + 1, census.CACHE_SEGMENT):
                hi = min(lo + census.CACHE_SEGMENT, x + 1)
                rows = np.column_stack(census.order_table(ecm.catalog_curve(name), lo, hi))
                np.save(census._cache_path(cache, name, lo), np.vstack(([lo, hi, 0], rows)))

    @staticmethod
    def race(cache, x, workers):
        """The exit code and the CSV and JSON bytes of the race to x."""
        out = cache.with_name(f"{cache.name}-race")
        code = cli.main(["census", "--race", "e7-e11", "--y", "128", "--budget", str(x),
                         "--workers", str(workers), "--cache-dir", str(cache), "--out", str(out)])
        return code, out.with_suffix(".csv").read_bytes(), out.with_suffix(".json").read_bytes()

    @staticmethod
    def files(cache):
        return {f.name: f.read_bytes() for f in cache.iterdir()}

    def test_pooled_race_writes_every_file_in_a_worker(self, tmp_path, monkeypatch):
        writers = tmp_path / "writers"
        write = census.OrderCache._write

        def logged(self, path, seg):
            with writers.open("a") as fh:  # forked workers inherit this wrapper
                fh.write(f"{os.getpid()}\n")
            write(self, path, seg)

        monkeypatch.setattr(census.OrderCache, "_write", logged)
        cache = tmp_path / "cache"
        assert self.race(cache, 300_000, 2)[0] in (cli.EXIT_OK, cli.EXIT_NEGATIVE)
        pids = writers.read_text().split()
        assert len(pids) == len(list(cache.iterdir())) == 6
        assert str(os.getpid()) not in pids

    @pytest.mark.parametrize("x", [3000, 2 * census.CACHE_SEGMENT - 1, 2 * census.CACHE_SEGMENT,
                                   300_000, 3 * census.CACHE_SEGMENT + 1, 10**6])
    def test_runs_match_one_segment_tasks(self, tmp_path, monkeypatch, x):
        fake_orders(monkeypatch)
        ref = tmp_path / "ref"
        self.one_segment_cache(ref, x)
        want = self.race(ref, x, 1)
        for workers in (1, 2):
            cache = tmp_path / f"workers{workers}"
            assert self.race(cache, x, workers) == want, workers
            assert self.files(cache) == self.files(ref), workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_grown_x_matches_one_segment_tasks(self, tmp_path, monkeypatch, workers):
        fake_orders(monkeypatch)
        ref = tmp_path / "ref"
        self.one_segment_cache(ref, 1_200_000)
        cache = tmp_path / "cache"
        for x in (300_000, 10**6, 10**6, 1_200_000):
            assert self.race(cache, x, workers) == self.race(ref, x, 1), x
        assert self.files(cache) == self.files(ref)  # no .tmp file left either

    def test_one_task_per_run(self, tmp_path, monkeypatch):
        fake_orders(monkeypatch)
        sizes = inline_pool(monkeypatch)
        calls = spy_segments(monkeypatch)
        seg = census.CACHE_SEGMENT
        cache = census.OrderCache(tmp_path, workers=2)
        cache.table(E7, 8 * seg - 1)  # 8 due: runs of min(4, ceil(8 / 4)) = 2
        assert calls == [(lo, lo + 2 * seg) for lo in range(0, 8 * seg, 2 * seg)] and sizes == [2]
        for lo in (0, 1, 2, 4, 6, 7):  # 6 due: runs of 2, cut where a stored file sits
            census._cache_path(tmp_path, "e7", lo * seg).unlink()
        calls.clear()
        cache.table(E7, 8 * seg - 1)
        assert calls == [(0, 2 * seg), (2 * seg, 3 * seg), (4 * seg, 5 * seg), (6 * seg, 8 * seg)]
        assert sizes == [2, 2]
        census.OrderCache(tmp_path / "one", workers=1).table(E7, 8 * seg - 1)
        assert calls[4:] == [(lo, lo + seg) for lo in range(0, 8 * seg, seg)]  # in process, runs of one


class TestSegmentStream:
    """The CLI's curve-order counts read OrderCache.segments;
    OrderCache.table is that stream joined."""

    @pytest.mark.parametrize("workers", [1, 2])
    def test_cli_counts_equal_table_counts(self, tmp_path, tmp_path_factory, workers):
        seg = census.CACHE_SEGMENT
        x, y, gt_y = 2 * seg + 5000, 128, 10**4  # three segments, the last a stored partial tail
        cache = tmp_path / "cache"
        census.OrderCache(cache).table(E7, x - 2000)  # a shorter tail, which the cold race computes again
        fresh = tmp_path_factory.mktemp("fresh")
        t7, t11 = (census.OrderCache(fresh, workers=1).table(cat, x) for cat in (E7, E11))
        cps = cli._checkpoints(x)

        def count(table, c, y):
            return int(np.count_nonzero((table[0] <= c) & (table[2] < y)))

        race = [(c, count(t7, c, y) - count(t11, c, y)) for c in cps]
        u = math.log(x) / math.log(gt_y)
        points = [(c, max(2, round(c ** (1 / u)))) for c in cps[:-1]] + [(x, gt_y)]
        gamma = [(c, census.gamma_tilde_counts(count(t11, c, yc), count(t11, c, math.inf), c, yc)) for c, yc in points]
        want = {
            "race": ((1 if any(v < 0 for _, v in race) else 0), race),
            "psi_e": (0, [(c, count(t7, c, y)) for c in cps]),
            "gamma": (0, gamma),
        }
        common = ["--budget", str(x), "--cache-dir", str(cache), "--workers", str(workers)]
        for run in ("cold", "warm"):
            for name, argv in (
                ("race", ["--race", "e7-e11", "--y", str(y)]),
                ("psi_e", ["psi_e", "--curve", "e7", "--y", str(y)]),
                ("gamma", ["gamma_tilde", "--curve", "e11", "--y", str(gt_y)]),
            ):
                out = tmp_path / f"{name}_{run}"
                code = cli.main(["census", *argv, *common, "--out", str(out)])
                rows = series_rows(out.with_suffix(".json"))
                assert (code, rows) == want[name], (run, name)
        assert sorted(f.name for f in cache.iterdir()) == sorted(f.name for f in fresh.iterdir())
        for f in fresh.iterdir():
            assert (cache / f.name).read_bytes() == f.read_bytes(), f.name

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("failing", ["tail", "next"])
    def test_failed_extension_keeps_the_stored_tail(self, tmp_path, monkeypatch, workers, failing):
        seg = census.CACHE_SEGMENT
        cache = census.OrderCache(tmp_path, workers=workers)
        fake_orders(monkeypatch)
        cache.table(E7, 3000)
        head = census._cache_path(tmp_path, "e7", 0)
        stored = head.read_bytes()
        # a prime of the short segment, which is computed again from 0, or of the next one
        lo, hi = (4000, 5000) if failing == "tail" else (seg, seg + 200)
        p = int(arith.prime_array(hi, lo)[0])
        fake_orders(monkeypatch, fail_at=p)
        with pytest.raises(AmbiguityError, match=f"p = {p}:"):
            cache.table(E7, seg + 200)
        assert head.read_bytes() == stored
        assert [f.name for f in tmp_path.iterdir()] == [head.name]

    def test_tail_replaced_during_extension(self, tmp_path, tmp_path_factory, monkeypatch):
        # another run grows the stored tail to 4000 while this one computes it again to 5000
        fake_orders(monkeypatch)
        cache = census.OrderCache(tmp_path)
        cache.table(E7, 3000)
        head = census._cache_path(tmp_path, "e7", 0)
        other, fresh = tmp_path_factory.mktemp("other"), tmp_path_factory.mktemp("fresh")
        census.OrderCache(other).table(E7, 4000)
        census.OrderCache(fresh).table(E7, 5000)
        compute = census._compute_segment

        def replaced(name, lo, hi, *files):
            census._cache_path(other, "e7", 0).replace(head)
            return compute(name, lo, hi, *files)

        monkeypatch.setattr(census, "_compute_segment", replaced)
        ps = cache.table(E7, 5000)[0]
        assert ps.tolist() == good_primes(E7, 5000)
        assert head.read_bytes() == census._cache_path(fresh, "e7", 0).read_bytes()

    def test_file_shortened_before_streaming_is_refused(self, tmp_path, tmp_path_factory, monkeypatch):
        # a run that read the header before this one wrote renames a shorter tail over its file
        fake_orders(monkeypatch)
        cache = census.OrderCache(tmp_path)
        head = census._cache_path(tmp_path, "e7", 0)
        stale = tmp_path_factory.mktemp("stale")
        census.OrderCache(stale).table(E7, 4000)
        compute = census.OrderCache._compute

        def shortened(self, curve_name, todo):
            compute(self, curve_name, todo)
            census._cache_path(stale, "e7", 0).replace(head)

        monkeypatch.setattr(census.OrderCache, "_compute", shortened)
        with pytest.raises(CacheError, match=f"{head}.* covers \\[0, 4001\\), short of x=5000"):
            cache.table(E7, 5000)
        monkeypatch.undo()
        fake_orders(monkeypatch)
        assert cache.table(E7, 5000)[0].tolist() == good_primes(E7, 5000)  # a rerun computes it again

    def test_corrupt_stored_file_fails_before_any_compute(self, tmp_path, monkeypatch):
        # a full segment, then a short tail that the larger x computes again
        fake_orders(monkeypatch)
        seg = census.CACHE_SEGMENT
        cache = census.OrderCache(tmp_path)
        cache.table(E7, seg + 3000)
        calls = spy_segments(monkeypatch)
        for lo in (0, seg):
            path = census._cache_path(tmp_path, "e7", lo)
            stored = path.read_bytes()
            rows = np.load(path)
            rows[9, 2] = 0
            np.save(path, rows)
            with pytest.raises(CacheError, match=r"P\+ = 0 ") as err:
                cache.table(E7, seg + 5000)
            assert str(path) in str(err.value) and calls == []
            path.write_bytes(stored)

    def test_race_memory_does_not_grow_with_x(self, tmp_path, monkeypatch):
        fake_orders(monkeypatch)
        seg = census.CACHE_SEGMENT

        def peaks(segments):
            cache = tmp_path / f"cache{segments}"
            argv = ["census", "--race", "e7-e11", "--budget", str(segments * seg - 1), "--workers", "1",
                    "--cache-dir", str(cache), "--out", str(tmp_path / f"race{segments}")]
            (cold, cold_peak), (warm, warm_peak) = (traced_peak(lambda: cli.main(argv)) for _ in "cw")
            assert cold == warm and cold in (cli.EXIT_OK, cli.EXIT_NEGATIVE)
            return cold_peak, warm_peak, max(f.stat().st_size for f in cache.iterdir())

        cold2, warm2, _ = peaks(2)
        cold8, warm8, one = peaks(8)
        assert cold8 <= cold2 + one, (cold2, cold8, one)
        assert warm8 <= warm2 + one, (warm2, warm8, one)
