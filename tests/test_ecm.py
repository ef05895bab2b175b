import collections
import itertools
import json
import math
import random
from pathlib import Path

import pytest
from test_curve import Failed, affine_mul

from ecsmooth import arith, curve, ecm
from ecsmooth.errors import DivisorFound, UsageError

CORPUS = Path(__file__).with_name("data") / "ecm_corpus.json"
# the catalog curves whose point has infinite order: the ones ECM can run on
ECM_CURVES = [c for c in ecm.curve_catalog() if c.point is not None and ecm._torsion_order(c.curve, c.point) is None]


def factorial_plan(monkeypatch):
    """Make stage 1 run the textbook exponent M = C!^floor(log2 N): the one
    scalar C!, N.bit_length() - 1 times, in place of the plan."""
    monkeypatch.setattr(ecm, "stage1_exponent_plan", lambda C, n: [(math.factorial(C), n.bit_length() - 1)])


def naive_friable(n, C):
    for p in arith.prime_sieve(C):
        while n % p == 0:
            n //= p
    return n == 1


class TestEcmParams:
    def test_bounds(self):
        b, c = ecm.EcmParams(3.0, 2.0).bounds(10**6)
        assert b == 99 and c == 9

    def test_invalid(self):
        with pytest.raises(UsageError):
            ecm.EcmParams(1.0, 2.0)
        with pytest.raises(UsageError):
            ecm.EcmParams(2.0, 0.5)

    def test_c_too_small(self):
        with pytest.raises(UsageError):
            ecm.EcmParams(5.0, 5.0).bounds(100)

    def test_beyond_float_range(self):
        # floats end just below 2^1024: 2^1024 - 1 already rounds up to it
        params = ecm.EcmParams(3.0, 2.0)
        b, c = params.bounds(2**1023)
        assert b.bit_length() == 341 and c.bit_length() == 171
        for n in (2**1024 - 1, 2**1024 + 1, 2**1279 - 1):
            with pytest.raises(UsageError, match="too large for the float bounds"):
                params.bounds(n)


class TestCatalog:
    def test_points_on_curves(self):
        for cat in ecm.curve_catalog():
            if cat.point is None:
                continue
            x, y = cat.point
            E = cat.curve
            assert y * y + E.a1 * x * y + E.a3 * y == E.rhs(x), cat.name

    def test_required_members(self):
        names = {c.name for c in ecm.curve_catalog()}
        assert {"e8000", "e7", "e11", "e37"} <= names
        assert ecm.catalog_curve("e37").cm_field is None

    def test_infinite_order_spot_check(self):
        # [k]P != O mod several primes for k <= 100 implies nontorsion over Q
        for name in ("e8000", "e37"):
            cat = ecm.catalog_curve(name)
            for p in (1009, 2003, 3001):
                n = curve.naive_count(cat.curve, p)
                A, _ = curve.short_model(cat.curve, p)
                P = curve.short_point(cat.curve, p, cat.point)
                annihilated = {k for k in range(1, 101) if curve.ec_scalar_mul(p, A, k, P) is None}
                # only multiples of the point order mod p may annihilate;
                # across several p no common small k annihilates everywhere
                assert all(n % k == 0 for k in annihilated)

    def test_unknown_name(self):
        with pytest.raises(UsageError):
            ecm.catalog_curve("e999")


class TestStage1Plan:
    def test_c2_n100(self):
        assert ecm.stage1_exponent_plan(2, 100) == [(2, 6)]

    def test_c1_error(self):
        with pytest.raises(UsageError):
            ecm.stage1_exponent_plan(1, 100)

    def test_divisibility_property(self):
        # every C-friable m below the Hasse bound divides M'
        for n in (100, 9973):
            for C in (10, 20):
                bound = n + 2 * math.isqrt(n) + 1
                m_prime = math.prod(l**e for l, e in ecm.stage1_exponent_plan(C, n))
                for m in range(2, bound + 1):
                    if naive_friable(m, C):
                        assert m_prime % m == 0, (n, C, m)


class TestEcmOneCurve:
    def test_n35(self):
        cat = ecm.catalog_curve("e8000")
        out = ecm.ecm_one_curve(35, cat, 1.5, 1.2)
        assert out.ok and out.factor in (5, 7)

    def test_prime_fails(self):
        cat = ecm.catalog_curve("e8000")
        out = ecm.ecm_one_curve(10**9 + 7, cat, 3.0, 1.5)
        assert not out.ok

    def test_exact_m_equivalent(self, monkeypatch):
        # the plan M' and the textbook M = C!^floor(log2 N) agree
        cat, ns = ecm.catalog_curve("e8000"), (35, 1003, 9991)
        plan = [ecm.ecm_one_curve(n, cat, 1.5, 1.2) for n in ns]
        factorial_plan(monkeypatch)
        for n, a in zip(ns, plan):
            b = ecm.ecm_one_curve(n, cat, 1.5, 1.2)
            assert a.ok == b.ok
            if a.ok:
                assert n % a.factor == 0 and n % b.factor == 0

    def test_factor_divides(self):
        cat = ecm.catalog_curve("e8000")
        rng = random.Random(5)
        for _ in range(10):
            n = rng.choice([15, 21, 33, 35, 55, 77, 91, 143, 187, 209])
            out = ecm.ecm_one_curve(n, cat, 1.4, 1.2)
            if out.ok:
                assert n % out.factor == 0 and 1 < out.factor < n

    def test_shared_disc_factor(self):
        cat = ecm.catalog_curve("e8000")
        d = abs(cat.curve.disc)
        p = next(p for p in arith.prime_sieve(100) if d % p == 0)
        out = ecm.ecm_one_curve(p * 101, cat, 1.5, 1.2)
        assert out.ok and out.factor % p == 0


    def test_frozen_corpus(self):
        # (curve, N, u, v) -> factor, recorded with the long-model group law
        # that ECM ran on before it moved to the short model; every N is
        # coprime to 6, where the two models must agree step for step.
        # "UsageError" marks a torsion catalog point past the gcd shortcuts
        cats = {c.name: c for c in ecm.curve_catalog()}
        rows = json.loads(CORPUS.read_text())
        assert {r[0] for r in rows} == {c.name for c in cats.values() if c.point is not None}
        for name, n, u, v, factor in rows:
            assert math.gcd(n, 6) == 1
            if factor == "UsageError":
                with pytest.raises(UsageError, match="torsion point"):
                    ecm.ecm_one_curve(n, cats[name], u, v)
            else:
                assert ecm.ecm_one_curve(n, cats[name], u, v).factor == factor, (name, n, u, v)

    def test_three_divides_n(self):
        # the short model needs gcd(N, 6) = 1: an odd N with 3 | N that
        # shares nothing with the discriminant gets 3 from the gcd shortcut
        checked = 0
        for cat in ecm.curve_catalog():
            for n in range(9, 2000, 6):
                if math.gcd(n, cat.curve.disc) == 1:
                    assert ecm.ecm_one_curve(n, cat, 1.5, 1.2).factor == 3, (cat.name, n)
                    checked += 1
        assert checked > 1000


def next_prime(n):
    while not arith.is_prime(n):
        n += 1
    return n


def affine_stage1(n, cat, u, v):
    """Stage 1 as one affine chain per scalar of the plan on the short model
    of the catalog curve, with no change of model: the factor, or None for
    Fail."""
    _, C = ecm.EcmParams(u, v).bounds(n)
    A, _ = curve.short_model(cat.curve, n)
    P = curve.short_point(cat.curve, n, cat.point)
    for ell, e in ecm.stage1_exponent_plan(C, n):
        for _ in range(e):
            try:
                P = affine_mul(n, A, ell, P, set())
            except Failed as f:
                return f.g if f.g < n else None
            if P is None:
                return None
    return None


class TestStage1Model:
    """Stage 1 moves to the model y^2 = x^3 + Z^4 A x + Z^6 B after every
    scalar whose Z is a unit, and replays a scalar on the affine chain
    otherwise; its outcomes must be those of the affine chain throughout."""

    @staticmethod
    def seeded_cases(count):
        """(cat, n) for seeded n = pq, 5 < p, q < 2^16 of 3 to 16 bits, prime
        to the curve's discriminant, cycling through ECM_CURVES."""
        by_bits = collections.defaultdict(list)
        for p in arith.prime_sieve(1 << 16, 7):
            by_bits[p.bit_length()].append(p)
        rng, cases = random.Random(24), []
        while len(cases) < count:
            cat = ECM_CURVES[len(cases) % len(ECM_CURVES)]
            p, q = (rng.choice(by_bits[rng.randint(3, 16)]) for _ in range(2))
            if p != q and math.gcd(p * q, cat.curve.disc) == 1:
                cases.append((cat, p * q))
        return cases

    def test_matches_affine_chain_per_scalar(self, monkeypatch):
        replay, start = curve._affine_scalar_mul, {}
        seen = collections.Counter()  # (model rescaled, replay outcome)

        def spy(n, A, k, P):
            rescaled = A != start["A"]
            try:
                R = replay(n, A, k, P)
            except DivisorFound:
                seen[rescaled, "divisor"] += 1
                raise
            seen[rescaled, "O" if R is None else "point"] += 1
            return R

        monkeypatch.setattr(curve, "_affine_scalar_mul", spy)

        def found(cases):
            count = 0
            for cat, n in cases:
                start["A"] = curve.short_model(cat.curve, n)[0]
                got = ecm.ecm_one_curve(n, cat, 2.0, 2.0).factor
                assert got == affine_stage1(n, cat, 2.0, 2.0), (cat.name, n)
                count += got is not None
            return count

        # the seeded sample in plan order; every pair below 2^7 with M = C!,
        # where a scalar's chain can pass O mod N before its last addition
        seeded = self.seeded_cases(1000)
        small = arith.prime_sieve(1 << 7, 7)
        grid = [(cat, p * q) for cat in ECM_CURVES for p, q in itertools.combinations(small, 2)
                if math.gcd(p * q, cat.curve.disc) == 1]
        factors = found(seeded)
        factorial_plan(monkeypatch)
        factors += found(grid)
        cases = len(seeded) + len(grid)
        assert 0.3 * cases < factors < 0.9 * cases
        # failed inversions on a rescaled model, and replays that went
        # through O mod N and then added P, so stage 1 went on from a point
        assert seen[True, "divisor"] > 100 and seen[True, "point"] + seen[False, "point"] > 10

    @pytest.mark.parametrize("name, p, q", [("e8000", 151, 271), ("e8000", 751, 953), ("e19", 173, 619),
                                            ("e43", 137, 257), ("e37", 577, 683)])
    def test_goes_on_after_a_replay_returns_a_point(self, name, p, q, monkeypatch):
        # a scalar's chain passes O mod N, then adds P: stage 1 goes on from
        # that point, and a later scalar of M = C! surfaces a factor
        replay, points = curve._affine_scalar_mul, []

        def spy(*args):
            R = replay(*args)
            points.append(R is not None)
            return R

        monkeypatch.setattr(curve, "_affine_scalar_mul", spy)
        factorial_plan(monkeypatch)
        cat = ecm.catalog_curve(name)
        factor = ecm.ecm_one_curve(p * q, cat, 2.0, 2.0).factor
        assert factor in (p, q) and factor == affine_stage1(p * q, cat, 2.0, 2.0)
        assert any(points)

    def test_rescaled_model_holds_the_point(self, monkeypatch):
        # B <- Z^6 B beside A <- Z^4 A: every point stage 1 carries lies on
        # y^2 = x^3 + Ax + B for the A it is handed with
        chain, model = curve._jacobian_chain, {"unit Z": 0}

        def spy(n, A, k, P):
            assert A == model["A"]
            (x, y), B = P, model["B"]
            assert (y * y - x * x * x - A * x - B) % n == 0
            X, Y, Z = chain(n, A, k, P)
            if math.gcd(Z, n) == 1:
                ZZ = Z * Z % n
                A, B = A * ZZ * ZZ % n, B * ZZ * ZZ * ZZ % n
                assert (Y * Y - X * X * X - A * X - B) % n == 0
                model["A"], model["B"] = A, B
                model["unit Z"] += 1
            return X, Y, Z

        monkeypatch.setattr(curve, "_jacobian_chain", spy)
        rng = random.Random(79)
        for cat in ECM_CURVES:
            p = next_prime(rng.randrange(1 << 38, 1 << 39))
            n = p * next_prime(-(-(1 << 78) // p))
            assert n.bit_length() == 79
            model["A"], model["B"] = curve.short_model(cat.curve, n)
            ecm.ecm_one_curve(n, cat, 4.0, 3.0)
        assert model["unit Z"] > 100 * len(ECM_CURVES)


class TestSplitStep:
    def test_q101(self):
        res = ecm.split_step(101, 2, 1, 1.5, 1.5, seed=1, max_iters=500)
        assert res is not None
        e, f = res
        n = pow(2, e, 101)
        assert n % f == 0 and 1 < f < n
        assert f < int(101 ** (1 / 1.5))

    def test_max_iters_zero(self):
        assert ecm.split_step(101, 2, 1, 1.5, 1.5, max_iters=0) is None

    def test_deterministic(self):
        a = ecm.split_step(101, 2, 1, 1.5, 1.5, seed=7, max_iters=500)
        b = ecm.split_step(101, 2, 1, 1.5, 1.5, seed=7, max_iters=500)
        assert a == b

    def test_composite_q(self):
        with pytest.raises(UsageError):
            ecm.split_step(100, 2, 1, 1.5, 1.5)

    def test_bad_h(self):
        with pytest.raises(UsageError):
            ecm.split_step(101, 2, 0, 1.5, 1.5)


class TestAutoUV:
    def test_value_near_2_30(self):
        u = ecm.auto_uv(1 << 30)
        lq = math.log(1 << 30)
        assert u == pytest.approx(3 ** (1 / 3) * (lq / math.log(lq)) ** (1 / 3))
        assert 2.5 < u < 3.0

    @pytest.mark.parametrize("q", [1, 2])
    def test_log_log_q_not_positive(self, q):
        # log log 2 < 0 once made u complex
        with pytest.raises(UsageError, match=f"got q={q}"):
            ecm.auto_uv(q)
