import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsmooth import arith, census, curve, ecm, lfunc
from ecsmooth.errors import DomainError, UsageError

from conftest import traced_peak

CATALOG = ecm.curve_catalog()  # the nine CM curves, one per field, and the non-CM e37


def val(n, ell):
    """val_ell(n) by repeated division."""
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def gamma_k_loop(K, ell_bound):
    """The scalar reference for lfunc.gamma_k: one Python term per prime."""
    terms = []
    for ell in arith.prime_sieve(ell_bound):
        c = K.chi(ell)
        t = c / (ell - 1)
        if c:
            t += abs(c) * (1 - c) / (ell * ell - 1)
        terms.append(math.log(ell) * t)
    return -math.fsum(terms)


def sigma_k_loop(K, ell_bound, all_primes):
    """The scalar reference for lfunc.sigma_k."""
    terms = []
    for ell in arith.prime_sieve(ell_bound):
        c = K.chi(ell)
        t = (3 + c) / ((ell - 1) * (ell - 1)) if (all_primes or c == 1) else 0.0
        if c == -1:
            l2 = ell * ell - 1
            t += (2.0 / l2) * (-1.0 + 2.0 * ell * ell / l2)
        elif c == 0:
            t += ell / ((ell - 1) * (ell - 1))
        terms.append(math.log(ell) * t)
    return math.fsum(terms)


def alpha_empirical_loop(E, orders, ell_bound):
    """The scalar reference for lfunc.alpha_empirical."""
    terms = []
    for ell in arith.prime_sieve(ell_bound):
        avg = sum(val(n, ell) for n in orders) / len(orders)
        t = 4.0 * avg - 3.0 / (ell - 1) if E.cm_field is not None else avg - 1.0 / (ell - 1)
        terms.append(t * math.log(ell))
    return math.fsum(terms)


def l_one_series_loop(K, terms):
    """The scalar reference for lfunc.l_one_series."""
    return math.fsum(K.chi(n) / n for n in range(1, terms + 1))


class TestLOne:
    def test_closed_forms(self):
        # L(1, chi_{-7}) = pi / sqrt(7); L(1, chi_{-4}) = pi / 4
        assert lfunc.l_one(arith.field_for(7)) == pytest.approx(math.pi / math.sqrt(7))
        assert lfunc.l_one(arith.field_for(1)) == pytest.approx(math.pi / 4)

    def test_series_agrees(self):
        for d in (1, 7, 163):
            K = arith.field_for(d)
            assert lfunc.l_one_series(K, 10**5) == pytest.approx(lfunc.l_one(K), abs=2e-3)

    @pytest.mark.parametrize("terms", [0, -3])
    def test_series_needs_a_term(self, terms):
        with pytest.raises(UsageError, match=f"got {terms}"):
            lfunc.l_one_series(arith.field_for(7), terms)


class TestGammaSigma:
    # frozen reference column values (3-decimal prints)
    def test_gamma_k_reference(self):
        assert lfunc.gamma_k(arith.field_for(1)) == pytest.approx(0.245, abs=0.01)
        assert lfunc.gamma_k(arith.field_for(2)) == pytest.approx(-0.022, abs=0.01)
        assert lfunc.gamma_k(arith.field_for(163)) == pytest.approx(2.171, abs=0.01)

    def test_sigma_k_reference(self):
        assert lfunc.sigma_k(arith.field_for(2)) == pytest.approx(3.032, abs=0.01)
        assert lfunc.sigma_k(arith.field_for(7)) == pytest.approx(3.936, abs=0.01)
        assert lfunc.sigma_k(arith.field_for(163)) == pytest.approx(1.594, abs=0.01)

    def test_alpha_reference(self):
        assert lfunc.alpha_cm(arith.field_for(7)) == pytest.approx(-3.924, abs=0.01)
        assert lfunc.alpha_cm(arith.field_for(1)) == pytest.approx(-2.268, abs=0.01)
        # the reference alpha row prints 0.585 for d=163 but its own
        # gamma - sigma rows give 0.577; tolerance bridges the 3-decimal gap
        assert lfunc.alpha_cm(arith.field_for(163)) == pytest.approx(0.585, abs=0.01)

    def test_truncation_warning(self):
        with pytest.warns(lfunc.TruncationWarning):
            lfunc.gamma_k(arith.field_for(7), ell_bound=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lfunc.gamma_k(arith.field_for(7), ell_bound=10**5)

    @pytest.mark.parametrize("d", arith.CLASS_NUMBER_ONE_DS)
    def test_against_scalar_loops(self, d):
        # every term is formed by the same IEEE operations, and math.fsum is
        # exactly rounded whatever the order, so the sums are equal
        K = arith.field_for(d)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lfunc.TruncationWarning)
            assert lfunc.gamma_k(K, 10**4) == gamma_k_loop(K, 10**4)
            for all_primes in (False, True):
                assert lfunc.sigma_k(K, 10**4, all_primes) == sigma_k_loop(K, 10**4, all_primes)

    @pytest.mark.parametrize("d", [7, 163])
    def test_several_blocks(self, d):
        # the 17,984 primes <= 2*10^5 span three blocks of _TABLE_CELLS
        K = arith.field_for(d)
        assert lfunc._primes_and_logs(2 * 10**5)[0].size > 2 * lfunc._TABLE_CELLS
        assert lfunc.gamma_k(K, 2 * 10**5) == gamma_k_loop(K, 2 * 10**5)
        for all_primes in (False, True):
            assert lfunc.sigma_k(K, 2 * 10**5, all_primes) == sigma_k_loop(K, 2 * 10**5, all_primes)


class TestBlockEdges:
    """Blocks of 7 terms: every sum still equals its scalar reference
    exactly, since math.fsum is exactly rounded whatever the grouping."""

    @pytest.fixture(autouse=True)
    def tiny_blocks(self, monkeypatch):
        monkeypatch.setattr(lfunc, "_TABLE_CELLS", 7)
        lfunc._primes_and_logs.cache_clear()  # so that the logs, too, are taken 7 at a time
        yield
        lfunc._primes_and_logs.cache_clear()

    @pytest.mark.parametrize("E", [c for c in CATALOG if c.cm_field is not None], ids=lambda c: c.name)
    def test_field_sums(self, E):
        K, L = E.cm_field, 10**4
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lfunc.TruncationWarning)
            assert lfunc.gamma_k(K, L) == gamma_k_loop(K, L)
            for all_primes in (False, True):
                assert lfunc.sigma_k(K, L, all_primes) == sigma_k_loop(K, L, all_primes)
        assert lfunc.l_one_series(K, L) == l_one_series_loop(K, L)

    @pytest.mark.parametrize("E", CATALOG, ids=lambda c: c.name)
    def test_alpha_empirical(self, E):
        orders = census.order_table(E, 0, 100)[1].tolist()
        assert lfunc.alpha_empirical(E, orders, 10**4) == alpha_empirical_loop(E, orders, 10**4)


class TestMemory:
    """Every temporary of a sum is one block of _TABLE_CELLS terms, whatever
    the number of primes, terms or orders."""

    def test_primes_and_logs(self):
        # the pair it keeps is 1.26 MB: 78,498 int64 primes and their logs
        lfunc._primes_and_logs.cache_clear()
        (primes, logs), peak = traced_peak(lambda: lfunc._primes_and_logs(10**6))
        assert primes.size == logs.size == 78498
        assert peak < 2.5 * 2**20, peak

    @pytest.mark.parametrize("fn", [lfunc.gamma_k, lfunc.sigma_k], ids=["gamma_k", "sigma_k"])
    def test_prime_sums(self, fn):
        K = arith.field_for(7)
        warm = fn(K, 10**6)
        value, peak = traced_peak(lambda: fn(K, 10**6))
        assert value == warm
        assert peak < 2**20, peak

    def test_mean_vals(self):
        orders = census.order_table(ecm.catalog_curve("e7"), 0, 2 * 10**5)[1][: 10**4]
        ells = lfunc._primes_and_logs(10**4)[0]
        assert orders.size == 10**4 and ells.size == 1229
        _, peak = traced_peak(lambda: lfunc._mean_vals(orders, ells))
        assert peak < 2**20, peak

    def test_mean_vals_counts_only_the_span_of_the_ells(self):
        # one count per integer in [min ell, max ell], not in [0, max ell]:
        # 0.4 MB here, where [0, max ell] would take 1.6 MB
        orders = census.order_table(ecm.catalog_curve("e7"), 0, 2 * 10**5)[1][: 10**4]
        ells = np.array(arith.prime_sieve(2 * 10**5, 15 * 10**4), np.int64)
        means, peak = traced_peak(lambda: lfunc._mean_vals(orders, ells))
        # ell^2 > n: val_ell(n) is 1 or 0
        assert means.tolist() == [np.count_nonzero(orders % ell == 0) / orders.size for ell in ells.tolist()]
        assert peak < 2**20, peak

    def test_l_one_series(self):
        K = arith.field_for(7)
        value, peak = traced_peak(lambda: lfunc.l_one_series(K, 10**6))
        assert value == pytest.approx(lfunc.l_one(K), abs=1e-3)
        assert peak < 2**20, peak


class TestRearrangementIdentity:
    def test_exact_identity(self):
        # sum_l (3/(l-1) - 4 E[val_l]) log l == gamma_K - Sigma_K(all primes),
        # term by term, at any common truncation
        for d in (1, 3, 7, 11):
            K = arith.field_for(d)
            L = 10**4
            lhs = math.fsum(
                (3.0 / (ell - 1) - 4.0 * lfunc.expected_valuation_cm(K, ell))
                * math.log(ell)
                for ell in arith.prime_sieve(L)
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", lfunc.TruncationWarning)
                rhs = lfunc.gamma_k(K, L) - lfunc.sigma_k(K, L, all_primes=True)
            assert lhs == pytest.approx(rhs, abs=1e-6), d


class TestExpectedValuation:
    def test_empirical_agreement(self):
        # theoretical per-prime expectations vs averages of true orders
        cat = ecm.catalog_curve("e7")
        K = cat.cm_field
        orders = [
            curve.naive_count(cat.curve, p)
            for p in arith.prime_sieve(2000)
            if cat.curve.has_good_reduction(p)
        ]
        for ell in (3, 5, 11, 13):
            avg = math.fsum(val(n, ell) for n in orders) / len(orders)
            assert avg == pytest.approx(lfunc.expected_valuation_cm(K, ell), abs=0.06)
        # the fixed curve beats the field average at l = 2 (global 2-torsion
        # forces even orders) and at the ramified l = 7; soft lower bounds only
        for ell in (2, 7):
            avg = math.fsum(val(n, ell) for n in orders) / len(orders)
            assert avg >= lfunc.expected_valuation_cm(K, ell)

    def test_composite_rejected(self):
        with pytest.raises(UsageError):
            lfunc.expected_valuation_cm(arith.field_for(7), 4)


class TestAlphaEmpirical:
    def test_order_fn_injection(self):
        cat = ecm.catalog_curve("e7")
        orders = [
            curve.naive_count(cat.curve, p)
            for p in arith.prime_sieve(500)
            if cat.curve.has_good_reduction(p)
        ]
        a = lfunc.alpha_empirical(cat, orders, ell_bound=100)
        b = lfunc.alpha_empirical(cat, census.order_table(cat, 0, 501)[1], ell_bound=100)
        assert a == pytest.approx(b, abs=1e-12)

    def test_bad_bounds(self):
        with pytest.raises(DomainError):
            lfunc.alpha_empirical(ecm.catalog_curve("e7"), [8], ell_bound=1)

    @pytest.mark.parametrize("orders", [[12, 0], [12, -8]], ids=["zero", "negative"])
    def test_order_below_one_rejected(self, orders):
        # an order of 0 is divisible by every ell forever
        with pytest.raises(DomainError, match=f"got {orders[1]}"):
            lfunc.alpha_empirical(ecm.catalog_curve("e7"), orders, ell_bound=100)


class TestMeanVals:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.integers(1, 10**12), min_size=1, max_size=40),
        st.lists(st.sampled_from([2, 3, 5, 7, 11, 13, 997]), min_size=1, max_size=7),
        # uint32 orders, and ells above isqrt(max n) that only the parts m
        # left by the division pass can count
        st.tuples(
            st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=40),
            st.lists(st.sampled_from(arith.prime_sieve(10**4)), min_size=1, max_size=7),
        ),
    )
    def test_against_repeated_division(self, orders, ells, small):
        for orders, ells in ((orders, ells), small):
            got = lfunc._mean_vals(np.array(orders, np.int64), np.array(ells, np.int64))
            want = [math.fsum(val(n, ell) for n in orders) / len(orders) for ell in ells]
            assert got.tolist() == want

    def test_blocks(self, monkeypatch):
        # a table of more than _TABLE_CELLS entries is split into tiles: blocks
        # of 7 orders by one ell, or of all 299 orders by 2 or 3 ells
        orders = np.arange(1, 300, dtype=np.int64)
        ells = np.array(arith.prime_sieve(50), np.int64)
        whole = lfunc._mean_vals(orders, ells)
        for cells in (7, 2 * orders.size, 1000):
            monkeypatch.setattr(lfunc, "_TABLE_CELLS", cells)
            assert lfunc._mean_vals(orders, ells).tolist() == whole.tolist(), cells


class TestWNonCm:
    def test_d2(self):
        # single factor l=2: 2 * (4-2) / (1 * 3) = 4/3
        assert lfunc.w_noncm(2) == pytest.approx(4.0 / 3.0)

    def test_multiplicative(self):
        assert lfunc.w_noncm(6) == pytest.approx(lfunc.w_noncm(2) * lfunc.w_noncm(3))

    def test_not_squarefree(self):
        with pytest.raises(DomainError):
            lfunc.w_noncm(4)

    def test_guard(self):
        with pytest.raises(UsageError):
            lfunc.w_noncm(6, m_guard=3)


class TestAlphaReport:
    def test_fields(self):
        with pytest.warns(lfunc.TruncationWarning):  # the orders of p <= 200 stay below 10^4
            rep = lfunc.alpha_report(ecm.catalog_curve("e7"), ell_bound=10**5, p_bound=200)
        assert rep.field_d == 7
        assert rep.alpha == pytest.approx(rep.gamma_k - rep.sigma_k)
        assert rep.difference == pytest.approx(rep.alpha_tilde - rep.alpha)

    def test_non_cm_rejected(self):
        with pytest.raises(UsageError):
            lfunc.alpha_report(ecm.catalog_curve("e37"), p_bound=10**3)

    def test_truncation_warning(self):
        # the orders of p <= 10^3 stay below EMPIRICAL_ELL_BOUND; those of p <= 2*10^4 do not
        e7 = ecm.catalog_curve("e7")
        with pytest.warns(lfunc.TruncationWarning, match="orders <= "):
            lfunc.alpha_report(e7, ell_bound=10**5, p_bound=10**3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lfunc.alpha_report(e7, ell_bound=10**5, p_bound=2 * 10**4)
