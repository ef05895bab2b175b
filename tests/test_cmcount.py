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
        # cm_order reads chi(p) once, itself, then takes (t, b) from one
        # arith.cornacchia call at a split prime and none at an inert one,
        # with no walk over the orbit
        def refuse(p, K):
            raise AssertionError(f"orbit of p={p} walked")

        for cat in CM_CURVES:
            primes = [p for p in arith.prime_sieve(3000) if cat.curve.has_good_reduction(p)]
            chi_calls, calls, cornacchia, chi = [], [], arith.cornacchia, arith.ImagQuadField.chi
            with monkeypatch.context() as m:
                m.setattr(arith.ImagQuadField, "chi", lambda K, n: chi_calls.append(n) or chi(K, n))
                m.setattr(arith, "cornacchia", lambda p, K: calls.append(p) or cornacchia(p, K))
                m.setattr(cmcount, "_orbit", refuse)
                m.setattr(cmcount, "candidate_orders", refuse)
                orders = [cmcount.cm_order(cat, p) for p in primes]
            assert chi_calls == primes, cat.name
            assert calls == [p for p in primes if cat.cm_field.chi(p) == 1], cat.name
            assert orders == [_reference_order(cat, p) for p in primes], cat.name

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
        # cm_order raises ArithmeticError unless one sign of its pair passes
        for p in arith.prime_sieve(2 * 10**4):
            if cat.curve.has_good_reduction(p):
                cmcount.cm_order(cat, p)


# The orbit-filter formulation of the trace rules, kept as the reference for
# cm_order: every curve filters the whole orbit of Cornacchia's pair, and the
# Legendre symbol (t/d) of e7 ... e163 comes from arith.kronecker, not from
# the field's chi table.
_REFERENCE_RULES = {
    "e1": lambda p, t, b: t % 8 == (2 if b % 4 == 0 else 6),
    "e3": lambda p, t, b: t % 3 == 2 and b % 3 == 0,
    "e8000": lambda p, t, b: t % 16 in {1: (2, 10), 9: (6, 14), 3: (14,), 11: (10,)}[p % 16],
    "e7": lambda p, t, b: arith.kronecker(t, 7) == 1,
    **{f"e{d}": lambda p, t, b, d=d: arith.kronecker(t, d) == -1 for d in (11, 19, 43, 67, 163)},
}


def _reference_order(cat, p):
    K = cat.cm_field
    if K.chi(p) == -1:
        return p + 1
    rule = _REFERENCE_RULES[cat.name]
    picked = [p + 1 - t for t, b in cmcount._orbit(p, K) if rule(p, t, b)]
    assert len(picked) == 1, (cat.name, p, picked)
    return picked[0]


def _split_primes_by_class(cat, lo, per_class):
    """`per_class` seeded split good primes above lo in every class mod 8
    that splits in the curve's field."""
    K = cat.cm_field
    classes = {c for c in (1, 3, 5, 7) if any(K.chi(c + 8 * j) == 1 for j in range(-K.disc))}
    rng, found = random.Random(f"{cat.name} {lo}"), {c: [] for c in classes}
    while min(map(len, found.values())) < per_class:
        p = rng.randrange(lo, lo + 2**24) | 1
        if p % 8 in classes and len(found[p % 8]) < per_class and arith.is_prime(p) and K.chi(p) == 1:
            found[p % 8].append(p)
    return [p for ps in found.values() for p in ps]


def _first_split_prime(cat, lo):
    return next(p for p in range(lo, 2 * lo) if arith.is_prime(p) and cat.cm_field.chi(p) == 1)


class TestTraceRules:
    @pytest.mark.parametrize("cat", CM_CURVES, ids=lambda cat: cat.name)
    def test_matches_orbit_filter_small(self, cat):
        for p in arith.prime_sieve(2 * 10**4):
            if cat.curve.has_good_reduction(p):
                assert cmcount.cm_order(cat, p) == _reference_order(cat, p), p

    @pytest.mark.parametrize("lo", (2**31, 2**40))
    @pytest.mark.parametrize("cat", CM_CURVES, ids=lambda cat: cat.name)
    def test_matches_orbit_filter_large(self, cat, lo):
        for p in _split_primes_by_class(cat, lo, 3):
            assert cmcount.cm_order(cat, p) == _reference_order(cat, p), p

    @pytest.mark.parametrize("name", ("e7", "e11", "e163"))
    def test_chi_rule_with_no_passing_sign_raises(self, name, monkeypatch):
        # t divisible by d: chi(t) = 0, so neither t nor -t passes
        cat = ecm.catalog_curve(name)
        d, cornacchia = cat.cm_field.d, arith.cornacchia
        p = _first_split_prime(cat, 10**4)
        monkeypatch.setattr(arith, "cornacchia", lambda q, K: (d * cornacchia(q, K)[0], cornacchia(q, K)[1]))
        with pytest.raises(ArithmeticError, match=rf"^no orbit pair of {name} passes its trace rule at p={p}$"):
            cmcount.cm_order(cat, p)

    @pytest.mark.parametrize("name", ("e1", "e3", "e8000"))
    def test_orbit_rule_needs_exactly_one_pair(self, name, monkeypatch):
        # (6t, 6b): every unit multiple has t' = 0 mod 4 (Q(i), Q(sqrt(-2)))
        # or 3 | t' (Q(sqrt(-3))), so the congruence fails at t' and at -t'
        cat = ecm.catalog_curve(name)
        p, cornacchia = _first_split_prime(cat, 10**4), arith.cornacchia
        monkeypatch.setattr(arith, "cornacchia", lambda q, K: tuple(6 * v for v in cornacchia(q, K)))
        with pytest.raises(ArithmeticError, match=rf"^no orbit pair of {name} passes its trace rule at p={p}$"):
            cmcount.cm_order(cat, p)

    def test_chi_rule_does_not_walk_the_orbit(self, monkeypatch):
        def refuse(p, K):
            raise AssertionError(f"_orbit({p}) called")

        primes = [p for p in arith.prime_sieve(3000) if E11.curve.has_good_reduction(p)]
        want = [_reference_order(E11, p) for p in primes]
        monkeypatch.setattr(cmcount, "_orbit", refuse)
        assert [cmcount.cm_order(E11, p) for p in primes] == want


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
        primes = [p for p in arith.prime_array(2 * 10**4, 2001).tolist() if e37.curve.has_good_reduction(p)]
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
