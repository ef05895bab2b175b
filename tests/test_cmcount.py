import math
import random

import pytest

from ecsmooth import arith, census, cmcount, curve, ecm
from ecsmooth.errors import AmbiguityError, BadReductionError, UsageError

E7 = ecm.catalog_curve("e7")
E11 = ecm.catalog_curve("e11")
E8000 = ecm.catalog_curve("e8000")
CM_CURVES = [cat for cat in ecm.curve_catalog() if cat.cm_field is not None]


class TestSplittingType:
    def test_examples_d7(self):
        K = arith.field_for(7)
        assert K.chi(3) == -1  # inert
        assert K.chi(7) == 0  # ramified
        assert K.chi(29) == 1  # split

    def test_inert_density(self):
        # Chebotarev at desk scale: inert primes have density 1/2
        primes = arith.prime_sieve(10**5)
        for d in arith.CLASS_NUMBER_ONE_DS:
            K = arith.field_for(d)
            inert = sum(1 for p in primes if K.chi(p) == -1)
            assert 0.47 <= inert / len(primes) <= 0.53, d


class TestCandidateOrders:
    def test_p29_d7(self):
        K = arith.field_for(7)
        assert cmcount.candidate_orders(29, K) == {28, 32}

    def test_not_split_rejected(self):
        K = arith.field_for(7)
        with pytest.raises(UsageError):
            cmcount.candidate_orders(3, K)

    def test_hasse_membership_and_twist_sum(self):
        for d in (7, 11, 19):
            K = arith.field_for(d)
            for p in arith.prime_sieve(10**4):
                if p < 5 or K.chi(p) != 1:
                    continue
                cands = cmcount.candidate_orders(p, K)
                lo, hi = curve.hasse_interval(p)
                assert all(lo <= n <= hi for n in cands)
                if len(cands) == 2:
                    assert sum(cands) == 2 * (p + 1)

    def test_extra_units_d1_d3(self):
        K1, K3 = arith.field_for(1), arith.field_for(3)
        assert len(cmcount.candidate_orders(13, K1)) <= 4
        assert len(cmcount.candidate_orders(13, K3)) <= 6
        # somewhere the richer unit groups actually produce > 2 candidates
        assert any(
            len(cmcount.candidate_orders(p, K3)) > 2
            for p in arith.prime_sieve(200)
            if K3.chi(p) == 1
        )


def _lattice_points(p, K):
    """{(t, b) : t, b >= 0, t^2 + |D| b^2 = 4p}, found by trying every b."""
    absD, points = -K.disc, set()
    for b in range(math.isqrt(4 * p // absD) + 1):
        t = math.isqrt(4 * p - absD * b * b)
        if t * t + absD * b * b == 4 * p:
            points.add((t, b))
    return points


def _brute_candidates(p, K):
    """{p + 1 - t : t^2 + |D| b^2 = 4p, b >= 0}, t of either sign."""
    return {p + 1 + s * t for t, _ in _lattice_points(p, K) for s in (1, -1)}


class TestCandidateOracle:
    @pytest.mark.parametrize("d", arith.CLASS_NUMBER_ONE_DS)
    def test_matches_lattice_enumeration(self, d):
        K = arith.field_for(d)
        for p in arith.prime_sieve(2 * 10**4):
            if K.chi(p) == 1:
                assert cmcount.candidate_orders(p, K) == _brute_candidates(p, K), p


class TestOrbit:
    @pytest.mark.parametrize("d", arith.CLASS_NUMBER_ONE_DS)
    def test_pairs_are_the_lattice_points(self, d):
        K = arith.field_for(d)
        for p in arith.prime_sieve(2 * 10**4):
            if K.chi(p) != 1:
                continue
            orbit, points = cmcount._orbit(p, K), _lattice_points(p, K)
            assert all(t * t + (-K.disc) * b * b == 4 * p and b >= 0 for t, b in orbit), p
            assert {(abs(t), b) for t, b in orbit} == points, p
            # each lattice point once with each sign of t'
            assert sorted(orbit) == sorted((s * t, b) for t, b in points for s in (1, -1)), p


class TestCmOrder:
    def test_inert_gives_p_plus_one(self):
        K = E7.cm_field
        for p in arith.prime_sieve(500):
            if p >= 5 and K.chi(p) == -1:
                assert cmcount.cm_order(E7, p) == p + 1

    def test_oracle_sweep_sampled(self):
        rng = random.Random(17)
        for cat in (E7, E11, E8000):
            for p in arith.prime_sieve(2000):
                if p < 5 or not cat.curve.has_good_reduction(p):
                    continue
                if rng.random() < 0.8:
                    continue  # the acceptance sweep is exhaustive
                assert cmcount.cm_order(cat, p) == curve.naive_count(cat.curve, p)

    def test_bad_reduction(self):
        with pytest.raises(BadReductionError):
            cmcount.cm_order(E7, 7)

    def test_chi_checked_once_per_prime(self, monkeypatch):
        # cm_order checks good reduction and chi(p) itself and takes a split
        # prime's (t, b) from the private split-prime step: arith.cornacchia,
        # whose contract repeats both checks, is never called
        def refuse(p, K):
            raise AssertionError(f"cornacchia({p}) called from cm_order")

        for cat in (E7, E11, E8000, ecm.catalog_curve("e1"), ecm.catalog_curve("e3")):
            primes = [p for p in arith.prime_sieve(3000) if cat.curve.has_good_reduction(p)]
            want = [cmcount.cm_order(cat, p) for p in primes]
            with monkeypatch.context() as m:
                m.setattr(arith, "cornacchia", refuse)
                assert [cmcount.cm_order(cat, p) for p in primes] == want, cat.name

    def test_non_cm_rejected(self):
        with pytest.raises(UsageError):
            cmcount.cm_order(ecm.catalog_curve("e37"), 101)

    @pytest.mark.parametrize("d", (7, 11, 19, 43, 67, 163))
    def test_legendre_rule_reads_the_chi_table(self, d):
        # the trace rules of e7 ... e163 read (t/d) from the field's chi table,
        # at traces t' of either sign
        K = arith.field_for(d)
        assert [K.chi(t) for t in range(-d, d)] == [arith.kronecker(t, d) for t in range(-d, d)]

    def test_hasse_membership(self):
        for p in (101, 103, 1009):
            n = cmcount.cm_order(E11, p)
            lo, hi = curve.hasse_interval(p)
            assert lo <= n <= hi


class TestClosedForm:
    @pytest.mark.parametrize("cat", CM_CURVES, ids=lambda cat: cat.name)
    def test_matches_bsgs_at_large_p(self, cat):
        rng = random.Random(cat.name)
        checked = 0
        while checked < 4:
            p = rng.randrange(10**8, 10**9)
            if arith.is_prime(p) and cat.cm_field.chi(p) == 1 and cat.curve.has_good_reduction(p):
                want = curve.bsgs_order(cat.curve, p, samples=4, rng=random.Random(p))
                assert cmcount.cm_order(cat, p) == want, p
                checked += 1

    @pytest.mark.parametrize("cat", CM_CURVES, ids=lambda cat: cat.name)
    def test_one_candidate_passes_every_good_prime(self, cat):
        # cm_order raises ArithmeticError unless exactly one candidate passes
        for p in arith.prime_sieve(2 * 10**4):
            if cat.curve.has_good_reduction(p):
                cmcount.cm_order(cat, p)


class TestOrderFn:
    def test_deterministic(self):
        # only the non-CM path draws random points, from a generator seeded by p
        e37 = ecm.catalog_curve("e37")
        for p in (2003, 2011, 10007, 10**6 + 3):
            assert cmcount.order(e37, p) == cmcount.order(e37, p)

    def test_non_cm_path(self):
        e37 = ecm.catalog_curve("e37")
        for p in (101, 2003):
            assert cmcount.order(e37, p) == curve.naive_count(e37.curve, p)

    def test_bsgs_path_against_naive(self):
        e37 = ecm.catalog_curve("e37")
        rng = random.Random(37)
        primes = [p for p in arith.prime_sieve(2 * 10**4, 2001) if e37.curve.has_good_reduction(p)]
        for p in rng.sample(primes, 60):
            assert cmcount.order(e37, p) == curve.naive_count(e37.curve, p), p


class TestBsgsRetry:
    E37 = ecm.catalog_curve("e37")

    def test_second_failure_propagates_with_prefix(self, monkeypatch):
        # order makes one BSGS call; its AmbiguityError reaches the caller
        calls = []

        def bsgs(E, p, samples, rng=None):
            calls.append((p, samples))
            raise AmbiguityError(f"group order ambiguous at p={p} after 16 rounds")

        monkeypatch.setattr(curve, "bsgs_order", bsgs)
        with pytest.raises(AmbiguityError, match=r"^e37 segment \[2000, 2100\), p = 2003: "):
            census.order_table(self.E37, 2000, 2100)
        assert calls == [(2003, 3)]
