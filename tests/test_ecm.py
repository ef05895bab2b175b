import json
import math
import random
from pathlib import Path

import pytest

from ecsmooth import arith, curve, ecm
from ecsmooth.errors import UsageError

CORPUS = Path(__file__).with_name("data") / "ecm_corpus.json"


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

    def test_exact_m_equivalent(self):
        cat = ecm.catalog_curve("e8000")
        for n in (35, 1003, 9991):
            a = ecm.ecm_one_curve(n, cat, 1.5, 1.2)
            b = ecm.ecm_one_curve(n, cat, 1.5, 1.2, exact_m=True)
            assert a.ok == b.ok
            if a.ok:
                assert n % a.factor == 0 and n % b.factor == 0

    def test_exact_m_capacity(self):
        cat = ecm.catalog_curve("e8000")
        n = next(k for k in range((1 << 22) + 1, (1 << 22) + 200) if arith.is_prime(k))
        with pytest.raises(UsageError):
            ecm.ecm_one_curve(n, cat, 3.0, 1.5, exact_m=True)

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
