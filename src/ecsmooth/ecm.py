"""One-curve ECM stage 1, the NFS splitting step, and the fixed curve catalog.

Stage 1 replaces the textbook exponent M = C!^floor(log2 N) by the equivalent
divisibility plan M' = prod_{l <= C} l^{e_l} with e_l chosen so that every
C-friable integer below the Hasse bound N + 2 sqrt(N) + 1 divides M'.  The
factorial exponent is still available behind a flag for tiny N so the
equivalence is testable.

Stage 1 runs on the short model of the catalog curve mod N: the catalog
point is carried over by curve.short_point, and curve.ec_scalar_mul
multiplies it by each prime l of the plan, e_l times, in plan order.  Each
scalar costs one inversion (the chain runs in Jacobian coordinates); when
that inversion fails, the affine chain is replayed and surfaces the factor
at its first failed inversion.  The affine chain can surface p at a step
where the running point is P mod p, although [l]P is not O mod p, so which
factors are found depends on the addition chain: NAF, windows or merged
scalars would change the outcomes.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

from . import arith, curve
from .curve import WeierstrassCurve
from .errors import DivisorFound, UsageError

EXACT_M_LIMIT = 1 << 20


@dataclass(frozen=True)
class EcmParams:
    """Smoothness parameters: B = floor(N^(1/u)), C = floor(B^(1/v))."""

    u: float
    v: float

    def __post_init__(self):
        if not (self.u > 1 and self.v > 1):
            raise UsageError("ECM parameters require u > 1 and v > 1")

    def bounds(self, n: int) -> tuple[int, int]:
        try:
            b = int(n ** (1.0 / self.u))
        except OverflowError:
            # floats end just below 2^1024
            raise UsageError(f"a {n.bit_length()}-bit modulus is too large for the float bounds B and C") from None
        c = int(b ** (1.0 / self.v)) if b >= 1 else 0
        if b >= n:
            raise UsageError(f"B={b} must be smaller than N={n}")
        if c < 2:
            raise UsageError(f"C={c} < 2: parameters too aggressive for N={n}")
        return b, c


@dataclass(frozen=True)
class EcmOutcome:
    """Factor(g) with 1 < g < N, or Fail: EcmOutcome(), with no factor."""

    factor: int | None = None

    @property
    def ok(self) -> bool:
        return self.factor is not None


@dataclass(frozen=True)
class CatalogCurve:
    name: str
    curve: WeierstrassCurve
    point: tuple[int, int] | None  # rational affine point, if one is published
    cm_d: int | None  # d of the CM field, None for non-CM

    @functools.cached_property
    def cm_field(self) -> arith.ImagQuadField | None:
        return arith.field_for(self.cm_d) if self.cm_d is not None else None


def curve_catalog() -> list[CatalogCurve]:
    """The fixed curves: one CM representative per class-number-1 field plus a
    non-CM control curve.  e8000 is the positive-rank twist used by the
    splitting step."""

    def mk(name, coeffs, point, cm_d):
        return CatalogCurve(name, WeierstrassCurve.from_coeffs(*coeffs), point, cm_d)

    return [
        mk("e8000", (0, 1, 0, -3, 1), (-1, 2), 2),
        mk("e7", (1, -1, 0, -2, -1), (2, -1), 7),
        mk("e11", (0, -1, 1, -7, 10), (4, 5), 11),
        mk("e1", (0, 0, 0, -1, 0), (0, 0), 1),
        mk("e3", (0, 0, 1, 0, 0), (0, 0), 3),
        mk("e19", (0, 0, 1, -38, 90), (0, 9), 19),
        mk("e43", (0, 0, 1, -860, 9707), (15, 13), 43),
        mk("e67", (0, 0, 1, -7370, 243528), None, 67),
        mk("e163", (0, 0, 1, -2174420, 1234136692), (850, 68), 163),
        mk("e37", (0, 0, 1, -1, 0), (0, 0), None),
    ]


def catalog_curve(name: str) -> CatalogCurve:
    for c in curve_catalog():
        if c.name == name:
            return c
    raise UsageError(f"unknown catalog curve {name!r}")


def stage1_exponent_plan(C: int, n: int) -> list[tuple[int, int]]:
    """(prime l, exponent e_l) pairs with e_l maximal such that
    l^e_l <= n + 2 sqrt(n) + 1; the product then kills every C-friable
    group order in the Hasse range."""
    if C < 2:
        raise UsageError(f"stage-1 bound C={C} must be >= 2")
    bound = n + 2 * math.isqrt(n) + 1
    plan = []
    for ell in arith.prime_sieve(C):
        e, pk = 0, ell
        while pk <= bound:
            e += 1
            pk *= ell
        plan.append((ell, e))
    return plan


def _stage1_scalars(C: int, n: int, exact_m: bool) -> list[int]:
    if not exact_m:
        return [ell for ell, e in stage1_exponent_plan(C, n) for _ in range(e)]
    if n > EXACT_M_LIMIT:
        raise UsageError(f"exact factorial exponent only supported for N <= {EXACT_M_LIMIT}")
    return [math.factorial(C)] * (n.bit_length() - 1)


def ecm_one_curve(
    n: int,
    cat: CatalogCurve,
    u: float,
    v: float,
    exact_m: bool = False,
) -> EcmOutcome:
    """Stage-1 ECM on one curve: [M']P mod n on the short model, returning the
    factor surfaced by the first failed inversion, or Fail.  A divisor equal
    to n itself is a Fail (retry with another curve rather than report n).
    The short model needs gcd(n, 6) = 1, so a factor 2 or 3 of n is reported
    by the gcd shortcut, like a factor of the discriminant.  Past the
    shortcuts, a catalog point of finite order k over Q is a UsageError: it
    has order k mod every prime of n, so stage 1 can never separate them."""
    if n < 2:
        raise UsageError("N must be >= 2")
    _, C = EcmParams(u, v).bounds(n)
    for m in (cat.curve.disc, 6):
        g = math.gcd(n, m)
        if 1 < g < n:
            return EcmOutcome(g)
        if g == n:
            return EcmOutcome()
    if cat.point is None:
        raise UsageError(f"catalog curve {cat.name} has no rational point for ECM")
    k = _torsion_order(cat.curve, cat.point)
    if k is not None:
        raise UsageError(f"the point of catalog curve {cat.name} is a torsion point of order {k} over Q")
    A, _ = curve.short_model(cat.curve, n)
    P = curve.short_point(cat.curve, n, cat.point)
    try:
        for s in _stage1_scalars(C, n, exact_m):
            P = curve.ec_scalar_mul(n, A, s, P)
            if P is None:
                # [M']P = O mod every prime of n at once: nothing to separate
                return EcmOutcome()
    except DivisorFound as d:
        if d.g == n:
            return EcmOutcome()
        if n % d.g:
            raise ArithmeticError(f"surfaced divisor {d.g} does not divide N={n}") from d
        return EcmOutcome(d.g)
    # stage 1 finished on an affine point without a failed inversion
    return EcmOutcome()


@functools.cache
def _torsion_order(E: WeierstrassCurve, P: tuple[int, int]) -> int | None:
    """Order of the rational point P if it is a torsion point, else None.
    By Mazur's theorem a torsion point over Q has order at most 12, so the
    multiples [k]P, k <= 11, are compared with -P in exact rational
    arithmetic on the long model (the group law mod n cannot decide this)."""
    x1, y1 = map(Fraction, P)
    neg_y1 = -y1 - E.a1 * x1 - E.a3
    x, y = x1, y1  # [k]P
    for k in range(1, 12):
        if x == x1 and y == neg_y1:
            return k + 1
        if x == x1:  # [k]P = P, so the tangent at P
            lam = (3 * x * x + 2 * E.a2 * x + E.a4 - E.a1 * y) / (2 * y + E.a1 * x + E.a3)
        else:
            lam = (y - y1) / (x - x1)
        x3 = lam * lam + E.a1 * lam - E.a2 - x - x1
        x, y = x3, -(lam + E.a1) * x3 - (y - lam * x) - E.a3
    return None


def split_step(
    q: int,
    g: int,
    h: int,
    u: float,
    v: float,
    seed: int = 0,
    max_iters: int = 1000,
) -> tuple[int, int] | None:
    """NFS splitting step: draw e uniformly in [1, q-1] until ECM on
    n = g^e * h mod q (with the j=8000 curve) yields a factor below
    B = floor(q^(1/u)).  Returns (e, factor) or None after max_iters."""
    if not arith.is_prime(q):
        raise UsageError(f"q={q} must be prime")
    if not (1 <= h < q):
        raise UsageError("h must lie in [1, q-1]")
    params = EcmParams(u, v)
    B, _ = params.bounds(q)
    cat = catalog_curve("e8000")
    rng = random.Random(seed)
    for _ in range(max_iters):
        e = rng.randrange(1, q)
        n = pow(g, e, q) * h % q
        if n <= 1:
            continue
        out = ecm_one_curve(n, cat, u, v)
        if out.ok and out.factor < B:
            if not (1 < out.factor < n and n % out.factor == 0):
                raise ArithmeticError(f"ECM reported {out.factor}, not a proper factor of n={n}")
            return e, out.factor
    return None


def auto_uv(q: int) -> float:
    """The L_q(1/3) parameter preset u = v = 3^(1/3) (log q / log log q)^(1/3)."""
    lq = math.log(q)
    return 3 ** (1 / 3) * (lq / math.log(lq)) ** (1 / 3)
