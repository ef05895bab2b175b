import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsmooth import arith, census, cmcount, curve, ecm, lfunc
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


def alpha_empirical_loop(orders, ell_bound):
    """The scalar reference for the alpha-tilde of lfunc.alpha_report: one
    (4 avg - 3/(ell - 1)) log ell term per prime ell <= ell_bound."""
    terms = []
    for ell in arith.prime_sieve(ell_bound):
        avg = sum(val(n, ell) for n in orders) / len(orders)
        terms.append((4.0 * avg - 3.0 / (ell - 1)) * math.log(ell))
    return math.fsum(terms)


def alpha_tilde(E, p_bound, ell_bound=10**5):
    """alpha_report(E, p_bound).alpha_tilde, its TruncationWarnings ignored."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", lfunc.TruncationWarning)
        return lfunc.alpha_report(E, p_bound, ell_bound).alpha_tilde


def l_one_series_loop(K, terms):
    """The truncated character sum sum_{n<=terms} chi(n)/n, the cross-check
    of lfunc.l_one."""
    return math.fsum(K.chi(n) / n for n in range(1, terms + 1))


class TestLOne:
    def test_closed_forms(self):
        # L(1, chi_{-7}) = pi / sqrt(7); L(1, chi_{-4}) = pi / 4
        assert lfunc.l_one(arith.field_for(7)) == pytest.approx(math.pi / math.sqrt(7))
        assert lfunc.l_one(arith.field_for(1)) == pytest.approx(math.pi / 4)

    def test_series_agrees(self):
        for d in (1, 7, 163):
            K = arith.field_for(d)
            assert l_one_series_loop(K, 10**5) == pytest.approx(lfunc.l_one(K), abs=2e-3)


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
        def alpha(d):
            K = arith.field_for(d)
            return lfunc.gamma_k(K) - lfunc.sigma_k(K)

        assert alpha(7) == pytest.approx(-3.924, abs=0.01)
        assert alpha(1) == pytest.approx(-2.268, abs=0.01)
        # the reference alpha row prints 0.585 for d=163 but its own
        # gamma - sigma rows give 0.577; tolerance bridges the 3-decimal gap
        assert alpha(163) == pytest.approx(0.585, abs=0.01)

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

    @pytest.mark.parametrize("E", [c for c in CATALOG if c.cm_field is not None], ids=lambda c: c.name)
    def test_alpha_empirical(self, E, monkeypatch):
        # blocks of 7 terms, in segments of 25 integers
        monkeypatch.setattr(census, "CACHE_SEGMENT", 25)
        orders = census.segment_orders(E, 0, 100)[1].tolist()
        assert alpha_tilde(E, 99, 10**4) == alpha_empirical_loop(orders, lfunc.EMPIRICAL_ELL_BOUND)


class TestMemory:
    """Every temporary of a sum is one block of _TABLE_CELLS terms, whatever
    the number of primes or terms, and a valuation pass holds one array of
    orders."""

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
        _, peak = traced_peak(lambda: census.valuation_totals(orders, ells))
        assert peak < 2**20, peak

    def test_mean_vals_counts_only_the_span_of_the_ells(self):
        # one count per prime <= max ell, 0.14 MB here, where one per integer
        # in [0, max ell] would take 1.6 MB
        orders = census.order_table(ecm.catalog_curve("e7"), 0, 2 * 10**5)[1][: 10**4]
        primes = arith.prime_array(2 * 10**5)
        totals, peak = traced_peak(lambda: census.valuation_totals(orders, primes))
        window = primes >= 15 * 10**4
        # ell^2 > n: val_ell(n) is 1 or 0
        assert totals[window].tolist() == [np.count_nonzero(orders % ell == 0) for ell in primes[window].tolist()]
        assert peak < 2**20, peak


def split(xs, cuts):
    """xs as float64 blocks, cut at the given positions (any order, repeats
    give empty blocks)."""
    return np.split(np.array(xs, dtype=np.float64), sorted(c % (len(xs) + 1) for c in cuts))


# every finite double from the smallest subnormal up to 2^1000, either sign
FLOATS = st.floats(min_value=-(2.0**1000), max_value=2.0**1000, allow_nan=False, allow_subnormal=True)


@st.composite
def cancelling_terms(draw):
    """Terms whose sum cancels heavily: each of some drawn terms comes back
    negated, in a shuffled order, among smaller ones."""
    xs = draw(st.lists(FLOATS, max_size=40))
    back = draw(st.lists(st.sampled_from(xs), max_size=len(xs))) if xs else []
    return draw(st.permutations(xs + [-x for x in back]))


class TestExactSum:
    """_exact_sum equals math.fsum bit for bit: both round the exact sum
    once, half to even."""

    @staticmethod
    def same(a, b):
        return a.hex() == b.hex()  # tells 0.0 from -0.0

    @settings(max_examples=300, deadline=None)
    @given(st.one_of(st.lists(FLOATS, max_size=60), cancelling_terms()), st.lists(st.integers(0, 100), max_size=6))
    def test_equals_fsum(self, xs, cuts):
        assert self.same(lfunc._exact_sum(split(xs, cuts)), math.fsum(xs)), xs

    @pytest.mark.parametrize(
        "xs",
        [
            [],
            [-0.0],
            [0.0, -0.0],
            [-0.0, -0.0],
            [5e-324],
            [-5e-324, 5e-324, -5e-324],
            [2.0**1000, 1.0, -(2.0**1000)],
            [1.0, 2.0**-53],  # a tie, to the even 1.0
            [1.0 + 2.0**-52, 2.0**-53],  # a tie, to the even 1 + 2^-51
            [1.0, 2.0**-53, 2.0**-1074],  # just above the tie
            [0.1] * 10 + [-1.0],
            [1e308, -1e308, 1e308, 1e-300],
            [2.0**-1022, -(2.0**-1074)],  # a normal minus a subnormal
            [-1.5],
        ],
    )
    def test_edges(self, xs):
        for cuts in ([], [0], [1, 1, 2]):
            assert self.same(lfunc._exact_sum(split(xs, cuts)), math.fsum(xs)), (xs, cuts)

    def test_full_mantissas_in_one_bucket(self):
        # halves just below 2^27 pile up in one exponent bucket: 2^20 of them
        # in one block, and in blocks of _TABLE_CELLS, folded one by one
        n, x = 1 << 20, 1.0 - 2.0**-53
        assert lfunc._exact_sum([np.full(n, x)]) == n * x == math.fsum([x] * n)
        blocks = (np.full(lfunc._TABLE_CELLS, x) for _ in range(n // lfunc._TABLE_CELLS))
        assert lfunc._exact_sum(blocks) == n * x


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
    """alpha_report's alpha-tilde over whatever orders cmcount.order gives."""

    def test_order_fn_injection(self, monkeypatch):
        # naive point counts in place of the CM closed form
        cat = ecm.catalog_curve("e7")
        want = alpha_tilde(cat, 500)
        monkeypatch.setattr(cmcount, "order", lambda E, p: curve.naive_count(E.curve, p))
        assert alpha_tilde(cat, 500) == want

    @pytest.mark.parametrize("orders", [[12, 0], [12, -8]], ids=["zero", "negative"])
    def test_order_below_one_rejected(self, monkeypatch, orders):
        # an order of 0 is divisible by every ell forever
        monkeypatch.setattr(census, "segment_orders", lambda E, lo, hi: (None, np.array(orders, np.int64)))
        with pytest.raises(DomainError, match=f"got {orders[1]}"):
            alpha_tilde(ecm.catalog_curve("e7"), 100)

    def test_empty_segments_add_nothing(self, monkeypatch):
        # segments of 4 integers: [24, 28) and many more hold no prime
        e7 = ecm.catalog_curve("e7")
        whole = alpha_tilde(e7, 1000)
        monkeypatch.setattr(census, "CACHE_SEGMENT", 4)
        assert alpha_tilde(e7, 1000) == whole
        with pytest.raises(DomainError, match="at least one order"):
            alpha_tilde(e7, 1)


class TestMeanVals:
    @settings(max_examples=60, deadline=None)
    @given(
        # uint64 orders, with the primes up to a drawn bound
        st.lists(st.integers(1, 10**12), min_size=1, max_size=40),
        st.integers(2, 1000),
        # uint32 orders, and ells above isqrt(max n) that only the parts m
        # left by the division pass can count
        st.tuples(st.lists(st.integers(1, 2 * 10**5), min_size=1, max_size=40), st.integers(2, 10**4)),
    )
    def test_against_repeated_division(self, orders, bound, small):
        for orders, bound in ((orders, bound), small):
            ells = arith.prime_array(bound)
            got = census.valuation_totals(np.array(orders, np.int64), ells)
            assert got.tolist() == [sum(val(n, ell) for n in orders) for ell in ells.tolist()]

    def test_makes_no_sieve(self, monkeypatch):
        # the pass divides by its caller's primes, and alpha_report takes them
        # from the cache of the prime sums: one column per run, not two
        # sieves per segment
        asked = []
        prime_array, sieve = arith.prime_array, arith._sieve
        orders, primes = np.arange(1, 5000, dtype=np.int64), arith.prime_array(10**4)
        monkeypatch.setattr(arith, "prime_array", lambda *args: asked.append(args) or prime_array(*args))
        monkeypatch.setattr(arith, "_sieve", lambda *args: asked.append(args) or sieve(*args))
        census.valuation_totals(orders, primes)
        assert asked == []
        monkeypatch.setattr(census, "CACHE_SEGMENT", 2**10)
        lfunc._primes_and_logs.cache_clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lfunc.TruncationWarning)
            lfunc.alpha_report(ecm.catalog_curve("e7"), ell_bound=10**5, p_bound=5000, per_ell_limit=50)
        assert asked.count((lfunc.EMPIRICAL_ELL_BOUND,)) == 1, asked

    def test_blocks(self):
        # the totals of the 299 orders cut into blocks of 7, or of one block,
        # add up to those of the whole array, as a stream of segments needs
        orders = np.arange(1, 300, dtype=np.int64)
        ells = np.array(arith.prime_sieve(50), np.int64)
        whole = census.valuation_totals(orders, ells)
        for cells in (7, 2 * orders.size):
            blocks = [census.valuation_totals(orders[lo : lo + cells], ells) for lo in range(0, orders.size, cells)]
            assert sum(blocks).tolist() == whole.tolist(), cells


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

    def test_alpha_tilde_grows_with_the_ell_bound(self, monkeypatch):
        # the terms' expectation under expected_valuation_cm sums to
        # -(gamma_K - Sigma_K^all), yet over p <= 10^5 the sum climbs by
        # about 2 from ell <= 10^2 to ell <= 10^3: no estimate of that constant
        for name, want in (("e7", [10.98, 13.03]), ("e11", [9.98, 11.63])):
            got = []
            for bound in (10**2, 10**3):
                monkeypatch.setattr(lfunc, "EMPIRICAL_ELL_BOUND", bound)
                got.append(round(alpha_tilde(ecm.catalog_curve(name), 10**5), 2))
            assert got == want and got[1] - got[0] > 1.5

    def test_segments_equal_the_whole_table(self, monkeypatch):
        # p <= 5000 in one segment, then in five of 2^10 integers: the
        # valuation totals are exact integers, divided once, so every value is
        # the same float
        e7, table = ecm.catalog_curve("e7"), census.order_table

        def report():
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", lfunc.TruncationWarning)
                return lfunc.alpha_report(e7, ell_bound=10**5, p_bound=5000, per_ell_limit=50)

        whole = report()
        orders = table(e7, 0, 5001)[1].tolist()
        assert whole.alpha_tilde == alpha_empirical_loop(orders, lfunc.EMPIRICAL_ELL_BOUND)
        assert [m for _, _, m in whole.per_ell] == [
            sum(val(n, ell) for n in orders) / len(orders) for ell in arith.prime_sieve(50)
        ]
        spans, segment_orders = [], census.segment_orders
        monkeypatch.setattr(census, "CACHE_SEGMENT", 2**10)
        monkeypatch.setattr(census, "segment_orders", lambda E, *span: spans.append(span) or segment_orders(E, *span))
        streamed = report()
        assert spans == [(lo, min(lo + 2**10, 5001)) for lo in range(0, 5001, 2**10)]
        assert streamed.alpha_tilde == whole.alpha_tilde
        assert streamed.per_ell == whole.per_ell

    def test_memory_does_not_grow_with_p_bound(self, monkeypatch):
        # one segment of orders at a time: the peak over 8 segments stays
        # within one segment's bytes of the peak over 2, which already hold
        # more than one block of _TABLE_CELLS orders.  |E(F_p)| := p + 1
        # keeps it cheap; the division passes are the real ones.
        monkeypatch.setattr(cmcount, "order", lambda cat, p: p + 1)
        seg, e7 = census.CACHE_SEGMENT, ecm.catalog_curve("e7")

        def peak(segments):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", lfunc.TruncationWarning)
                report = lambda: lfunc.alpha_report(e7, ell_bound=10**5, p_bound=segments * seg - 1, per_ell_limit=50)
                return traced_peak(report)[1]

        peak(2)  # the (primes, logs) pair that gamma_k and sigma_k cache
        one = sum(a.nbytes for a in census.order_table(e7, 0, seg))
        assert one // 24 > lfunc._TABLE_CELLS
        two, eight = peak(2), peak(8)
        assert eight <= two + one, (two, eight, one)

    @pytest.mark.parametrize("per_ell_limit", [0, 50, 2 * 10**4])
    def test_one_division_pass_per_segment(self, monkeypatch, per_ell_limit):
        # one valuation pass per segment feeds alpha-tilde and every per-ell
        # mean, and no P+ is computed: alpha-tilde never reads it
        calls, divide = [], census._largest_factor_left
        monkeypatch.setattr(census, "CACHE_SEGMENT", 2**10)
        monkeypatch.setattr(census, "_largest_factor_left", lambda ns, primes: calls.append(ns.size) or divide(ns, primes))
        monkeypatch.setattr(census, "largest_prime_factor", lambda ns: pytest.fail("a P+ pass"))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", lfunc.TruncationWarning)
            lfunc.alpha_report(ecm.catalog_curve("e7"), ell_bound=10**5, p_bound=5000, per_ell_limit=per_ell_limit)
        assert len(calls) == len(range(0, 5001, 2**10)), calls

    def test_per_ell_above_the_empirical_bound(self):
        # per_ell reads 2262 means of the accumulator and alpha-tilde its
        # first 1229, the ells <= EMPIRICAL_ELL_BOUND; orders of p <= 3*10^4
        # reach past 2*10^4, so the means above the bound are not all 0
        e7 = ecm.catalog_curve("e7")

        def report(per_ell_limit):
            return lfunc.alpha_report(e7, ell_bound=10**5, p_bound=3 * 10**4, per_ell_limit=per_ell_limit)

        wide = report(2 * 10**4)
        orders = census.order_table(e7, 0, 3 * 10**4 + 1)[1]
        ells = arith.prime_sieve(2 * 10**4)
        assert [ell for ell, _, _ in wide.per_ell] == ells and len(ells) == 2262
        want = [sum(val(n, ell) for n in orders[orders % ell == 0].tolist()) / orders.size for ell in ells]
        assert [m for _, _, m in wide.per_ell] == want
        assert any(want[1229:])
        assert wide.alpha_tilde == report(0).alpha_tilde
