"""Fast |E(F_p)| for CM catalog curves: inert primes give p + 1 directly;
split primes give a short list of candidate orders (norms of pi - unit for pi
of norm p) which random points then eliminate.

The explicit character formulas behind the Deuring correspondence are
deliberately avoided; candidate elimination with a handful of random points is
cheaper and much harder to get wrong.
"""

from __future__ import annotations

import enum
import random

from . import arith, curve
from .arith import ImagQuadField
from .ecm import CatalogCurve
from .errors import BadReductionError, UsageError

_POINTS_PER_ROUND = 12
_ROUNDS = 2


class SplittingType(enum.Enum):
    SPLIT = "split"
    INERT = "inert"
    RAMIFIED = "ramified"


def splitting_type(p: int, K: ImagQuadField) -> SplittingType:
    if (-K.disc) % p == 0:
        return SplittingType.RAMIFIED
    return SplittingType.SPLIT if K.chi(p) == 1 else SplittingType.INERT


def candidate_orders(p: int, K: ImagQuadField) -> set[int]:
    """All norms ||pi' - mu|| for pi' in {pi, conj(pi)} and mu a unit, where
    pi has norm p.  Contains |E(F_p)| for every curve with CM by O_K."""
    if splitting_type(p, K) != SplittingType.SPLIT:
        raise UsageError(f"p={p} is not split in Q(sqrt(-{K.d}))")
    pi = arith.cornacchia(p, K)
    cands = set()
    for w in (pi, pi.conjugate()):
        for mu in K.units():
            n = (w - mu).norm
            cands.add(n)
    lo, hi = curve.hasse_interval(p)
    if not all(lo <= n <= hi for n in cands):
        raise ArithmeticError(f"candidate order outside the Hasse interval at p={p}")
    return cands


def cm_order(cat: CatalogCurve, p: int, rng: random.Random | None = None) -> int:
    """|E(F_p)| for a CM catalog curve via the Deuring correspondence."""
    K = cat.cm_field
    if K is None:
        raise UsageError(f"{cat.name} is not a CM curve")
    E = cat.curve
    if not E.has_good_reduction(p):
        raise BadReductionError(f"{cat.name} has bad reduction at {p}")
    st = splitting_type(p, K)
    if st == SplittingType.RAMIFIED:
        # for these catalog curves ramified primes are exactly the bad ones
        raise BadReductionError(f"p={p} ramifies in the CM field of {cat.name}")
    if st == SplittingType.INERT:
        return p + 1
    if p <= 5:
        return curve.naive_count(E, p)
    rng = rng if rng is not None else random.Random(0xCA ^ p)
    survivors = sorted(candidate_orders(p, K))
    if len(survivors) == 1:
        return survivors[0]
    A, B = curve.short_model(E, p)
    for _ in range(_ROUNDS * _POINTS_PER_ROUND):
        P = curve.sw_random_point(p, A, B, rng)
        base = curve.ec_scalar_mul(p, A, p + 1, P)
        trace_mults: dict[int, object] = {}
        still = []
        for n in survivors:
            t = p + 1 - n
            at = abs(t)
            if at not in trace_mults:
                trace_mults[at] = curve.ec_scalar_mul(p, A, at, P)
            T = trace_mults[at]
            if t < 0:
                T = curve.sw_neg(p, T)
            if base == T:  # [n]P = [p+1-t]P = O
                still.append(n)
        survivors = still
        if len(survivors) == 1:
            return survivors[0]
        if not survivors:
            raise ArithmeticError(f"true group order eliminated at p={p}: candidate set was wrong")
    # rare: every sampled point had small order; fall back to an oracle
    if p <= 10**5:
        return curve.naive_count(E, p)
    return curve.bsgs_order(E, p, samples=4, rng=rng)


def order_fn_for(cat: CatalogCurve, seed: int = 0):
    """Per-prime order oracle: the CM fast path when available, BSGS otherwise.
    Seeds are derived per prime (seed xor p) so results are scheduling-free."""
    if cat.cm_field is not None:
        def fn(p: int) -> int:
            return cm_order(cat, p, random.Random(seed ^ p))
    else:
        def fn(p: int) -> int:
            if p <= 2000:
                return curve.naive_count(cat.curve, p)
            return curve.bsgs_order(cat.curve, p, samples=3, rng=random.Random(seed ^ p))
    return fn
