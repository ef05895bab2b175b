"""Elliptic curve group law over Z/NZ with divisor surfacing, plus two
independent group-order oracles over prime fields (naive enumeration and
baby-step/giant-step).

There is one group law: affine chord-and-tangent on a short model
y^2 = x^3 + Ax + B mod n (sw_add), serving ECM and BSGS alike.  Every
inversion goes through arith.inverse_or_divisor: a failed inversion is
exactly the event that surfaces a factor of a composite modulus.
ec_scalar_mul returns what the affine double-and-add chain of sw_add steps
returns, but evaluates that chain in Jacobian coordinates with a single
inversion at the end; only when that inversion fails does it replay the
affine chain, which then returns None or raises the same DivisorFound.
Curves are stored in long Weierstrass form; short_model and short_point
carry a curve and its points over.

BSGS keeps only the orders that the point orders on E and on its quadratic
twist allow, so it never returns a wrong order: it returns the one order
left, or raises AmbiguityError when more than one remains (possible only
for p <= 229).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import arith
from .errors import AmbiguityError, BadReductionError, CapacityError, DivisorFound, UsageError

NAIVE_COUNT_LIMIT = 10**7
NAIVE_CHUNK = 1 << 20  # x values per numpy step of naive_count
BSGS_ROUNDS = 16  # rounds of point orders before bsgs_order gives up


@dataclass(frozen=True)
class WeierstrassCurve:
    """Long Weierstrass model y^2 + a1 x y + a3 y = x^3 + a2 x^2 + a4 x + a6
    over the integers, with |discriminant| carried alongside."""

    a1: int
    a2: int
    a3: int
    a4: int
    a6: int
    disc: int

    @classmethod
    def from_coeffs(cls, a1: int, a2: int, a3: int, a4: int, a6: int) -> "WeierstrassCurve":
        b2 = a1 * a1 + 4 * a2
        b4 = 2 * a4 + a1 * a3
        b6 = a3 * a3 + 4 * a6
        b8 = a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4
        delta = -b2 * b2 * b8 - 8 * b4**3 - 27 * b6 * b6 + 9 * b2 * b4 * b6
        if delta == 0:
            raise UsageError("singular Weierstrass equation (discriminant 0)")
        return cls(a1, a2, a3, a4, a6, abs(delta))

    def rhs(self, x: int) -> int:
        return x**3 + self.a2 * x * x + self.a4 * x + self.a6

    def has_good_reduction(self, p: int) -> bool:
        return self.disc % p != 0


def hasse_interval(p: int) -> tuple[int, int]:
    """[ceil(p+1-2 sqrt p), floor(p+1+2 sqrt p)], always containing p+1."""
    s = math.isqrt(4 * p)  # floor(2 sqrt p)
    lo = p + 1 - s
    hi = p + 1 + s
    return lo, hi


def naive_count(E: WeierstrassCurve, p: int) -> int:
    """|E(F_p)| by enumerating x and counting y solutions."""
    if not arith.is_prime(p):
        raise UsageError(f"{p} is not prime")
    if not E.has_good_reduction(p):
        raise BadReductionError(f"bad reduction at {p}")
    if p > NAIVE_COUNT_LIMIT:
        raise CapacityError(f"naive_count guard: p={p} > {NAIVE_COUNT_LIMIT}")
    if p <= 3:
        count = 1
        for x in range(p):
            for y in range(p):
                if (y * y + E.a1 * x * y + E.a3 * y - E.rhs(x)) % p == 0:
                    count += 1
        return count
    # complete the square: (2y + a1 x + a3)^2 = 4 rhs(x) + (a1 x + a3)^2
    # = 4x^3 + b2 x^2 + 2 b4 x + b6, evaluated by Horner mod p, so that no
    # product exceeds p^2 < 2^63
    b2 = E.a1 * E.a1 + 4 * E.a2
    b4 = 2 * E.a4 + E.a1 * E.a3
    b6 = E.a3 * E.a3 + 4 * E.a6
    square = np.zeros(p, dtype=bool)  # the nonzero squares mod p
    for lo in range(1, (p + 1) // 2, NAIVE_CHUNK):
        r = np.arange(lo, min(lo + NAIVE_CHUNK, (p + 1) // 2), dtype=np.int64)
        square[r * r % p] = True
    count = 1
    for lo in range(0, p, NAIVE_CHUNK):
        x = np.arange(lo, min(lo + NAIVE_CHUNK, p), dtype=np.int64)
        disc = np.full(x.size, 4, dtype=np.int64)
        for c in (b2 % p, 2 * b4 % p, b6 % p):
            disc = (disc * x + c) % p
        count += int(np.count_nonzero(disc == 0)) + 2 * int(np.count_nonzero(square[disc]))
    return count


# --- the group law, on a short Weierstrass model y^2 = x^3 + Ax + B mod n ---


def short_model(E: WeierstrassCurve, n: int) -> tuple[int, int]:
    """Coefficients (A, B) of the model y^2 = x^3 + Ax + B, isomorphic to E
    over Z/nZ whenever gcd(n, 6) = 1 (see short_point)."""
    b2 = E.a1 * E.a1 + 4 * E.a2
    b4 = 2 * E.a4 + E.a1 * E.a3
    b6 = E.a3 * E.a3 + 4 * E.a6
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2**3) + 36 * b2 * b4 - 216 * b6
    return (-27 * c4) % n, (-54 * c6) % n


def short_point(E: WeierstrassCurve, n: int, P: tuple[int, int]) -> tuple[int, int]:
    """Image of a point of E on short_model(E, n): x' = 36x + 3b2,
    y' = 108(2y + a1 x + a3).  The map is defined over Z[1/6], so it keeps
    every chord and tangent denominator up to a unit mod n when gcd(n, 6) = 1."""
    x, y = P
    b2 = E.a1 * E.a1 + 4 * E.a2
    return (36 * x + 3 * b2) % n, 108 * (2 * y + E.a1 * x + E.a3) % n


def sw_add(n: int, A: int, P, Q):
    """P + Q on y^2 = x^3 + Ax + B mod n (None = neutral, coordinates
    reduced mod n).  A denominator that is not a unit mod n raises
    DivisorFound with gcd(denominator, n): the factoring event of ECM."""
    if P is None:
        return Q
    if Q is None:
        return P
    x1, y1 = P
    x2, y2 = Q
    if x1 == x2:
        if (y1 + y2) % n == 0:
            return None
        if y1 != y2:
            # distinct mod n yet equal x: the chord denominator vanishes
            raise DivisorFound(n)
        num, den = 3 * x1 * x1 + A, 2 * y1
    else:
        num, den = y2 - y1, x2 - x1
    inv, g = arith.inverse_or_divisor(den, n)
    if inv is None:
        raise DivisorFound(g)
    lam = num * inv % n
    x3 = (lam * lam - x1 - x2) % n
    return (x3, (lam * (x1 - x3) - y1) % n)


def ec_scalar_mul(n: int, A: int, k: int, P):
    """[k]P mod n by left-to-right double-and-add, with the outcome of the
    affine sw_add chain over the same bits of k: the point, None, or
    DivisorFound at its first failed inversion.

    The chain runs in Jacobian coordinates (x, y) = (X/Z^2, Y/Z^3), adding
    the affine P by mixed addition, so it makes one inversion, of Z at the
    end.  Every affine step that would fail mod a prime p of n (2y = 0,
    R = -P or R = P mod p) makes Z = 0 mod p, and Z stays 0 mod p from then
    on; so a unit Z means that no affine step failed and both chains reach
    the same point.  Otherwise the affine chain is replayed."""
    if k < 0:
        raise UsageError("scalar must be nonnegative")
    if k == 0 or P is None:
        return None
    x, y = P
    X, Y, Z = x, y, 1  # the leading bit of k: R = P
    for bit in bin(k)[3:]:
        # R = 2R, with Z3 = 2YZ
        YY = Y * Y % n
        S = 4 * X * YY % n
        ZZ = Z * Z % n
        M = (3 * X * X + A * ZZ * ZZ) % n
        Z = 2 * Y * Z % n
        X = (M * M - 2 * S) % n
        Y = (M * (S - X) - 8 * YY * YY) % n
        if bit == "1":
            # R = R + P, with Z3 = ZH
            ZZ = Z * Z % n
            H = (x * ZZ - X) % n
            r = (y * ZZ * Z - Y) % n
            HH = H * H % n
            HHH = H * HH % n
            V = X * HH % n
            X = (r * r - HHH - 2 * V) % n
            Y = (r * (V - X) - Y * HHH) % n
            Z = Z * H % n
    inv, _ = arith.inverse_or_divisor(Z, n)
    if inv is None:
        return _affine_scalar_mul(n, A, k, P)
    inv2 = inv * inv % n
    return X * inv2 % n, Y * inv2 * inv % n


def _affine_scalar_mul(n: int, A: int, k: int, P):
    """The affine double-and-add chain of ec_scalar_mul, one sw_add per step."""
    R = None
    for bit in bin(k)[2:]:
        R = sw_add(n, A, R, R)
        if bit == "1":
            R = sw_add(n, A, R, P)
    return R


def sw_random_point(p: int, A: int, B: int, rng: random.Random):
    """Uniform-enough random affine point on y^2 = x^3 + Ax + B over F_p."""
    while True:
        x = rng.randrange(p)
        rhs = (x * x % p * x + A * x + B) % p
        y = arith.sqrt_mod(rhs, p)
        if y is not None:
            if y and rng.getrandbits(1):
                y = p - y
            return (x, y)


def _point_order(p: int, A: int, P, k: int) -> int:
    """Exact order of P given a multiple k of the order ([k]P = O)."""
    order = k
    for q in arith.prime_factors(k):
        while order % q == 0 and ec_scalar_mul(p, A, order // q, P) is None:
            order //= q
    return order


def _bsgs_annihilator(p: int, A: int, P) -> int:
    """Some k in the Hasse interval with [k]P = O, via baby-step/giant-step."""
    lo, hi = hasse_interval(p)
    width = hi - lo + 1
    m = math.isqrt(width) + 1
    baby = {}
    R = None
    for j in range(m):
        baby.setdefault(R, j)
        R = sw_add(p, A, R, P)
    # find j, i with [lo + i*m]P = [j]P  =>  k = lo + i*m - j
    G = ec_scalar_mul(p, A, lo, P)
    step = ec_scalar_mul(p, A, m, P)
    i = 0
    while lo + i * m - (m - 1) <= hi:
        if G in baby:
            k = lo + i * m - baby[G]
            if k >= 1:  # k = 0 happens for tiny p where the baby table spans lo
                return k
        G = sw_add(p, A, G, step)
        i += 1
    raise ArithmeticError("BSGS found no annihilator in the Hasse interval")


def _exponent_multiple(p: int, A: int, B: int, count: int, rng: random.Random) -> int:
    acc = 1
    for _ in range(count):
        P = sw_random_point(p, A, B, rng)
        k = _bsgs_annihilator(p, A, P)
        acc = math.lcm(acc, _point_order(p, A, P, k))
    return acc


def bsgs_order(E: WeierstrassCurve, p: int, samples: int, rng: random.Random) -> int:
    """|E(F_p)| from the orders of random points on E and on its quadratic
    twist E^t: the one n in the Hasse interval with lcm_E | n and
    lcm_t | |E^t| = 2p + 2 - n.  Each round adds `samples` point orders to
    each side; if more than one n is left after BSGS_ROUNDS rounds, raises
    AmbiguityError.  For p > 229 the group exponents of E and E^t always pin
    n down (Cremona & Sutherland, "On a theorem of Mestre and Schoof",
    JTNB 22 (2010)); below that they may not (e8000 at p = 17: |E| = 24,
    |E^t| = 12)."""
    if samples <= 0:
        raise UsageError("samples must be positive")
    if not arith.is_prime(p):
        raise UsageError(f"{p} is not prime")
    if not E.has_good_reduction(p):
        raise BadReductionError(f"bad reduction at {p}")
    if p <= 3:
        return naive_count(E, p)
    A, B = short_model(E, p)
    c = 2
    while pow(c, (p - 1) // 2, p) != p - 1:
        c += 1
    sides = ((A, B), (c * c * A % p, c * c * c * B % p))
    lo, hi = hasse_interval(p)
    lcms = [1, 1]
    for _ in range(BSGS_ROUNDS):
        for side, (a, b) in enumerate(sides):
            lcms[side] = math.lcm(lcms[side], _exponent_multiple(p, a, b, samples, rng))
            first = -(-lo // lcms[0]) * lcms[0]
            cands = [n for n in range(first, hi + 1, lcms[0]) if (2 * p + 2 - n) % lcms[1] == 0]
            if not cands:
                raise ArithmeticError("no order in the Hasse interval fits the point orders of E and its twist")
            if len(cands) == 1:
                return cands[0]
    raise AmbiguityError(f"group order ambiguous at p={p} after {BSGS_ROUNDS} rounds")
