import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ecsmooth import arith, curve, ecm
from ecsmooth.curve import WeierstrassCurve
from ecsmooth.errors import AmbiguityError, BadReductionError, CapacityError, DivisorFound, UsageError

E8000 = ecm.catalog_curve("e8000").curve  # y^2 = x^3 + x^2 - 3x + 1
E7 = ecm.catalog_curve("e7").curve


def affine_points(E, p):
    """Affine points of the long model E mod p, by brute force."""
    return [
        (x, y)
        for x in range(p)
        for y in range(p)
        if (y * y + E.a1 * x * y + E.a3 * y - E.rhs(x)) % p == 0
    ]


def short_points(E, p):
    """The same points carried over to short_model(E, p)."""
    return [curve.short_point(E, p, P) for P in affine_points(E, p)]


def legendre_count(E, p):
    """|E(F_p)| for p > 3 by the scalar loop naive_count once ran: one
    Euler-criterion Legendre symbol per x."""
    count = 1
    for x in range(p):
        disc = (4 * E.rhs(x) + (E.a1 * x + E.a3) ** 2) % p
        if disc == 0:
            count += 1
        elif pow(disc, (p - 1) // 2, p) == 1:
            count += 2
    return count


class Failed(Exception):
    """A failed inversion of affine_mul, with gcd(denominator, n)."""

    def __init__(self, g):
        self.g = g


def affine_mul(n, A, k, P, seen):
    """[k]P mod n by the affine left-to-right double-and-add, written out
    here with its own chord-and-tangent steps: the point, None, or Failed
    at the first non-unit denominator.  Adds to `seen` the kind of that
    failure, and whether the chain went through O mod n before adding P."""

    def add(R, Q):
        if R is None:
            return Q
        if Q is None:
            return R
        (x1, y1), (x2, y2) = R, Q
        if x1 == x2 and (y1 + y2) % n == 0:
            return None
        if R == Q:
            num, den, kind = 3 * x1 * x1 + A, 2 * y1, "2y = 0 mod p"
        else:
            num, den = y2 - y1, x2 - x1
            kind = "R = P mod p" if (y2 - y1) % math.gcd(den, n) == 0 else "R = -P mod p"
        g = math.gcd(den, n)
        if g > 1:
            seen.add(kind)
            raise Failed(g)
        lam = num * pow(den, -1, n) % n
        x3 = (lam * lam - x1 - x2) % n
        return x3, (lam * (x1 - x3) - y1) % n

    R = None
    for i, bit in enumerate(bin(k)[2:]):
        R = add(R, R)
        if bit == "1":
            if i and R is None:
                seen.add("O mod n, then R + P")
            R = add(R, P)
    return R


def scalar_mul_cases(moduli, count, seed):
    """Seeded (n, A, k, P) on the catalog curves that have a point, with
    n drawn by moduli(rng) and 0 <= k < 3000."""
    cats = [c for c in ecm.curve_catalog() if c.point is not None]
    rng = random.Random(seed)
    cases = []
    while len(cases) < count:
        n, cat = moduli(rng), rng.choice(cats)
        if math.gcd(cat.curve.disc, n) == 1:
            A, _ = curve.short_model(cat.curve, n)
            cases.append((n, A, rng.randrange(3000), curve.short_point(cat.curve, n, cat.point)))
    return cases


def same_outcomes(cases):
    """Assert ec_scalar_mul and affine_mul agree on every case; return the
    kinds of event affine_mul met and the outcomes by kind."""
    seen, kinds = set(), {"point": 0, "None": 0, "divisor": 0}
    for n, A, k, P in cases:
        try:
            want = affine_mul(n, A, k, P, seen)
        except Failed as f:
            with pytest.raises(DivisorFound) as exc:
                curve.ec_scalar_mul(n, A, k, P)
            assert exc.value.g == f.g, (n, A, k, P)
            kinds["divisor"] += 1
            continue
        assert curve.ec_scalar_mul(n, A, k, P) == want, (n, A, k, P)
        kinds["None" if want is None else "point"] += 1
    return seen, kinds


class TestWeierstrassCurve:
    def test_singular_rejected(self):
        with pytest.raises(UsageError):
            WeierstrassCurve.from_coeffs(0, 0, 0, 0, 0)

    def test_good_reduction(self):
        assert E8000.has_good_reduction(7)
        assert not E7.has_good_reduction(7)

    def test_b_invariants_leave_eq_and_hash_to_the_fields(self):
        fresh = WeierstrassCurve(E7.a1, E7.a2, E7.a3, E7.a4, E7.a6, E7.disc)
        assert E7.b_invariants == (-3, -4, -4)  # 49a: [1, -1, 0, -2, -1]
        assert E7 == fresh and hash(E7) == hash(fresh) and "b_invariants" not in vars(fresh)


class TestGroupLaw:
    def test_identity(self):
        A, _ = curve.short_model(E8000, 101)
        P = curve.short_point(E8000, 101, (-1, 2))
        assert curve.sw_add(101, A, P, None) == P
        assert curve.sw_add(101, A, None, P) == P

    def test_inverse(self):
        p = 101
        A, _ = curve.short_model(E8000, p)
        P = curve.short_point(E8000, p, (-1, 2))
        negP = curve.short_point(E8000, p, (-1, -2))
        assert curve.sw_add(p, A, P, negP) is None

    def test_short_point_on_model(self):
        for cat in ecm.curve_catalog():
            if cat.point is None:
                continue
            for n in (101, 35, 10**9 + 7):
                A, B = curve.short_model(cat.curve, n)
                x, y = curve.short_point(cat.curve, n, cat.point)
                assert (y * y - x**3 - A * x - B) % n == 0, (cat.name, n)

    def test_divisor_from_crt_points(self):
        # points congruent mod 5 but not mod 7: chord denominator vanishes mod 5
        n = 35
        pts5 = affine_points(E8000, 5)
        pts7 = affine_points(E8000, 7)
        P5 = pts5[0]
        Q7a, Q7b = [pt for pt in pts7 if pt[0] != P5[0] % 7][:2]

        def crt(a, m, b, mm):
            return (a + m * ((b - a) * pow(m, -1, mm) % mm)) % (m * mm)

        P = curve.short_point(E8000, n, (crt(P5[0], 5, Q7a[0], 7), crt(P5[1], 5, Q7a[1], 7)))
        Q = curve.short_point(E8000, n, (crt(P5[0], 5, Q7b[0], 7), crt(P5[1], 5, Q7b[1], 7)))
        A, _ = curve.short_model(E8000, n)
        with pytest.raises(DivisorFound) as exc:
            curve.sw_add(n, A, P, Q)
        assert exc.value.g in (5, 35)

    def test_scalar_zero(self):
        A, _ = curve.short_model(E8000, 101)
        P = curve.short_point(E8000, 101, (-1, 2))
        assert curve.ec_scalar_mul(101, A, 0, P) is None

    def test_order_annihilates(self):
        for p in (11, 13, 101):
            if not E8000.has_good_reduction(p):
                continue
            n = curve.naive_count(E8000, p)
            A, _ = curve.short_model(E8000, p)
            for pt in short_points(E8000, p)[:5]:
                assert curve.ec_scalar_mul(p, A, n, pt) is None

    def test_double_matches_add(self):
        p = 1009
        A, _ = curve.short_model(E8000, p)
        rng = random.Random(1)
        for pt in rng.sample(short_points(E8000, p), 50):
            assert curve.sw_add(p, A, pt, pt) == curve.ec_scalar_mul(p, A, 2, pt)

    def test_associativity_random_triples(self):
        p = 211
        A, _ = curve.short_model(E8000, p)
        pts = short_points(E8000, p)
        rng = random.Random(7)
        for _ in range(50):
            P, Q, R = rng.sample(pts, 3)
            left = curve.sw_add(p, A, curve.sw_add(p, A, P, Q), R)
            right = curve.sw_add(p, A, P, curve.sw_add(p, A, Q, R))
            assert left == right

    def test_divisor_is_factor_for_small_semiprimes(self):
        for p in (5, 7, 11):
            for q in (13, 17, 19):
                n = p * q
                A, _ = curve.short_model(E8000, n)
                P = curve.short_point(E8000, n, (-1, 2))
                for k in (6, 30, 210):
                    try:
                        curve.ec_scalar_mul(n, A, k, P)
                    except DivisorFound as d:
                        assert d.g in (p, q, n)


class TestJacobianChain:
    """ec_scalar_mul against the affine chain: the same point, None, or the
    same DivisorFound.g, on the cases where the Jacobian Z is not a unit."""

    PRIMES = arith.prime_sieve(400)[2:]  # 5 <= p < 400

    def test_semiprimes(self):
        cases = scalar_mul_cases(lambda rng: math.prod(rng.sample(self.PRIMES, 2)), 1500, seed=18)
        seen, kinds = same_outcomes(cases)
        assert seen == {"2y = 0 mod p", "R = P mod p", "R = -P mod p", "O mod n, then R + P"}
        assert min(kinds.values()) > 0, kinds

    def test_primes(self):
        cases = scalar_mul_cases(lambda rng: rng.choice(self.PRIMES), 1000, seed=19)
        cases += scalar_mul_cases(lambda rng: 10**9 + 7, 50, seed=20)
        seen, kinds = same_outcomes(cases)
        assert "O mod n, then R + P" in seen
        assert kinds["divisor"] == 0 and kinds["None"] > 0 and kinds["point"] > 0, kinds

    def test_small_scalars_and_neutral(self):
        for n in (5 * 7, 101 * 103, 10**9 + 7):
            A, _ = curve.short_model(E8000, n)
            P = curve.short_point(E8000, n, (-1, 2))
            assert curve.ec_scalar_mul(n, A, 0, P) is None
            assert curve.ec_scalar_mul(n, A, 1, P) == P
            try:
                double = curve.sw_add(n, A, P, P)
            except DivisorFound as d:
                with pytest.raises(DivisorFound) as exc:
                    curve.ec_scalar_mul(n, A, 2, P)
                assert exc.value.g == d.g
            else:
                assert curve.ec_scalar_mul(n, A, 2, P) == double
            for k in (0, 1, 2, 7):
                assert curve.ec_scalar_mul(n, A, k, None) is None
        with pytest.raises(UsageError):
            curve.ec_scalar_mul(101, 0, -1, (1, 1))

    def test_rescaled_is_the_point_on_an_isomorphic_model(self):
        # ec_scalar_mul_rescaled returns ec_scalar_mul's outcome on the same
        # model, or (Z^4 A, (Z^2 x, Z^3 y)) for a unit Z
        cases = scalar_mul_cases(lambda rng: math.prod(rng.sample(self.PRIMES, 2)), 1500, seed=18)
        cases += scalar_mul_cases(lambda rng: 10**9 + 7, 50, seed=20)
        moved = 0
        for n, A, k, P in cases:
            try:
                want = curve.ec_scalar_mul(n, A, k, P)
            except DivisorFound as d:
                with pytest.raises(DivisorFound) as exc:
                    curve.ec_scalar_mul_rescaled(n, A, k, P)
                assert exc.value.g == d.g, (n, A, k, P)
                continue
            A2, R = curve.ec_scalar_mul_rescaled(n, A, k, P)
            if R == want:
                assert A2 == A or want is not None, (n, A, k, P)
                continue
            (x, y), (X, Y) = want, R
            if math.gcd(X * y, n) == 1:
                Z = Y * x * pow(X * y, -1, n) % n
                assert (Z * Z * x - X) % n == 0 and (Z**3 * y - Y) % n == 0 and A2 == A * Z**4 % n
                moved += 1
        assert moved > 500
        assert curve.ec_scalar_mul_rescaled(101, 7, 0, (1, 1)) == (7, None)


class TestNaiveCount:
    def test_hasse_membership(self):
        for p in arith.prime_sieve(200):
            if E8000.has_good_reduction(p):
                n = curve.naive_count(E8000, p)
                lo, hi = curve.hasse_interval(p)
                assert lo <= n <= hi

    def test_bad_reduction_raises(self):
        with pytest.raises(BadReductionError):
            curve.naive_count(E7, 7)

    def test_capacity_guard(self):
        with pytest.raises(CapacityError):
            curve.naive_count(E8000, 10**7 + 19)

    def test_matches_scalar_loop(self):
        rng = random.Random(1400)
        names = ["e7", "e11", "e37", "e8000", "e1", "e3", "e163"]
        ps = arith.prime_sieve(2 * 10**4)
        pairs = [(rng.choice(names), rng.choice(ps)) for _ in range(60)]
        pairs.append((rng.choice(names), 999_983))  # a prime near 10^6
        for name, p in pairs:
            E = ecm.catalog_curve(name).curve
            if p > 3 and E.has_good_reduction(p):
                assert curve.naive_count(E, p) == legendre_count(E, p), (name, p)

    def test_brute_agreement_tiny(self):
        for p in (5, 11, 13):
            if not E8000.has_good_reduction(p):
                continue
            assert curve.naive_count(E8000, p) == 1 + len(affine_points(E8000, p))


class TestHasseInterval:
    def test_examples(self):
        assert curve.hasse_interval(5) == (2, 10)
        assert curve.hasse_interval(2) == (1, 5)

    @given(st.integers(2, 10**9))
    def test_contains_p_plus_one(self, p):
        lo, hi = curve.hasse_interval(p)
        assert lo <= p + 1 <= hi


class TestBsgsOrder:
    def test_agrees_with_naive(self):
        rng = random.Random(3)
        for p in arith.prime_sieve(2000):
            if p < 5 or not E7.has_good_reduction(p):
                continue
            if rng.random() < 0.85:
                continue  # sample for speed; the acceptance sweep is exhaustive
            assert curve.bsgs_order(E7, p, samples=4, rng=random.Random(p)) == curve.naive_count(E7, p)

    def test_undersampled_exponent_at_11(self):
        # |E8000(F_11)| = 18 but a 4-point sample can yield an order lcm of 9;
        # the twist constraint must still recover 18.
        assert curve.bsgs_order(E8000, 11, samples=4, rng=random.Random(11)) == 18
        # this stream gives lcm_E = 9, which leaves 9 and 18; only |E^t| = 6
        # (not 24 - 9 = 15) admits the even twist point orders that decide it
        assert curve.bsgs_order(E8000, 11, samples=1, rng=random.Random(23768)) == 18

    @pytest.mark.parametrize("cat", ecm.curve_catalog(), ids=lambda cat: cat.name)
    def test_sound_at_small_primes(self, cat):
        # the true order or AmbiguityError, and the latter only where the group
        # exponents of E and its twist may not pin the order down: p <= 229
        # (Cremona & Sutherland, JTNB 22 (2010))
        E = cat.curve
        for p in arith.prime_array(300, 5).tolist():
            if not E.has_good_reduction(p):
                continue
            want = curve.naive_count(E, p)
            for samples in range(1, 5):
                for seed in range(3):
                    try:
                        got = curve.bsgs_order(E, p, samples, random.Random(seed))
                    except AmbiguityError:
                        assert p <= 229, (p, samples, seed)
                        continue
                    assert got == want, (p, samples, seed)

    def test_ambiguous_at_17(self):
        # |E(F_17)| = 24 and |E^t(F_17)| = 12: the group exponents of E and
        # E^t allow n = 12 and n = 24 alike, so no point orders can decide
        with pytest.raises(AmbiguityError, match="p=17"):
            curve.bsgs_order(E8000, 17, samples=1, rng=random.Random(17))

    def test_d3_curve_at_5(self):
        E3 = ecm.catalog_curve("e3").curve
        assert curve.bsgs_order(E3, 5, samples=4, rng=random.Random(5)) == curve.naive_count(E3, 5) == 6

    def test_zero_samples(self):
        with pytest.raises(UsageError):
            curve.bsgs_order(E7, 101, samples=0, rng=random.Random(101))

    def test_large_prime(self):
        p = 10**6 + 3
        n = curve.bsgs_order(E7, p, samples=4, rng=random.Random(9))
        lo, hi = curve.hasse_interval(p)
        assert lo <= n <= hi
        # CM structure: either inert (p+1) or a candidate norm; check [n]P = O
        A, B = curve.short_model(E7, p)
        for seed in range(3):
            P = curve.sw_random_point(p, A, B, random.Random(seed))
            assert curve.ec_scalar_mul(p, A, n, P) is None


class TestShortModel:
    @settings(max_examples=40)
    @given(st.sampled_from([p for p in arith.prime_sieve(500) if p > 3]))
    def test_point_counts_match(self, p):
        if not E7.has_good_reduction(p):
            return
        A, B = curve.short_model(E7, p)
        count = 1
        for x in range(p):
            r = (x * x % p * x + A * x + B) % p
            if r == 0:
                count += 1
            elif pow(r, (p - 1) // 2, p) == 1:
                count += 2
        assert count == curve.naive_count(E7, p)
