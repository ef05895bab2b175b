"""|E(F_p)| for the CM catalog curves in closed form.

An inert prime gives p + 1.  At a split prime p, Cornacchia gives t, b >= 0
with t^2 + |disc K| b^2 = 4p, and |E(F_p)| = p + 1 - t' where t' is the trace
of a unit multiple of the Frobenius: +-t, also +-2b in Q(i) and +-(t -+ 3b)/2
in Q(sqrt(-3)).  Which of them is the curve's own is fixed by a congruence on
t' that depends only on the curve (Rubin & Silverberg, "Choosing the correct
elliptic curve in the CM method", Math. Comp. 79 (2010)).
"""

from __future__ import annotations

import math
import random

from . import arith, curve
from .arith import ImagQuadField
from .ecm import CatalogCurve
from .errors import BadReductionError, UsageError


def candidate_orders(p: int, K: ImagQuadField) -> set[int]:
    """p + 1 -+ t' over the traces t' of the unit orbit of an element of norm
    p.  Contains |E(F_p)| for every curve with CM by O_K."""
    if K.chi(p) != 1:
        raise UsageError(f"p={p} is not split in Q(sqrt(-{K.d}))")
    t, b = arith.cornacchia(p, K)
    traces = [t]
    if K.d == 1:
        traces.append(2 * b)
    elif K.d == 3:
        traces += [(t - 3 * b) // 2, (t + 3 * b) // 2]
    cands = {p + 1 + s * u for u in traces for s in (1, -1)}
    lo, hi = curve.hasse_interval(p)
    if not all(lo <= n <= hi for n in cands):
        raise ArithmeticError(f"candidate order outside the Hasse interval at p={p}")
    return cands


# The trace rule of each CM catalog curve at a split prime p, on the trace t
# of pi and b >= 0 with 4p - t^2 = |disc K| b^2 (Rubin & Silverberg, op. cit.).
# Exactly one candidate passes:
# - d = 7 ... 163: the traces are +-t, d does not divide t (else d | 4p) and
#   (-1/d) = -1, so one sign has the Legendre symbol (t/d) the rule asks for.
# - e3: for 4p = L^2 + 3M^2 the traces are +-L, +-(L -+ 3M)/2 with b = M,
#   (L +- M)/2; 3 does not divide L, so exactly one b is divisible by 3
#   (27 | 4p - t^2), and then t = 2 or 1 mod 3 tells the signs apart.
# - e1: for p = a^2 + b^2 the traces are +-2a, +-2b and one of a, b is odd;
#   t = 2a with a odd and a = 1 mod 4 iff 4 | b, i.e. t = 2 or 6 mod 8.
# - e8000: t = 2 mod 4, and -t falls outside the classes mod 16 allowed for
#   p mod 16 (t = 2 mod 8 at 1, 6 mod 8 at 9, 14 mod 16 at 3, 10 mod 16 at 11).
_E8000_TRACE = {1: (2, 10), 9: (6, 14), 3: (14,), 11: (10,)}  # p mod 16 -> t mod 16
_TRACE_RULES = {
    "e1": lambda p, t, b: t % 8 == (2 if b % 4 == 0 else 6),
    "e3": lambda p, t, b: t % 3 == 2 and b % 3 == 0,
    "e8000": lambda p, t, b: t % 16 in _E8000_TRACE[p % 16],
    "e7": lambda p, t, b: arith.kronecker(t, 7) == 1,
    **{f"e{d}": lambda p, t, b, d=d: arith.kronecker(t, d) == -1 for d in (11, 19, 43, 67, 163)},
}


def cm_order(cat: CatalogCurve, p: int) -> int:
    """|E(F_p)| for a CM catalog curve: p + 1 at an inert prime, otherwise
    the one candidate order whose trace solves the norm equation and passes
    the curve's trace rule."""
    K = cat.cm_field
    if K is None:
        raise UsageError(f"{cat.name} is not a CM curve")
    if not cat.curve.has_good_reduction(p):
        raise BadReductionError(f"{cat.name} has bad reduction at {p}")
    chi = K.chi(p)
    if chi == 0:
        # for these catalog curves ramified primes are exactly the bad ones
        raise BadReductionError(f"p={p} ramifies in the CM field of {cat.name}")
    if chi == -1:
        return p + 1
    picked = []
    for n in candidate_orders(p, K):
        t = p + 1 - n
        b2, r = divmod(4 * p - t * t, -K.disc)
        b = math.isqrt(max(b2, 0))
        if r == 0 and b * b == b2 and _TRACE_RULES[cat.name](p, t, b):
            picked.append(n)
    if len(picked) != 1:
        raise ArithmeticError(f"{len(picked)} candidate orders of {cat.name} pass its trace rule at p={p}")
    return picked[0]


def order(cat: CatalogCurve, p: int) -> int:
    """|E(F_p)| at a good prime p: the closed form for CM curves; for the
    others a naive count up to 2000 and BSGS above, its random points drawn
    from random.Random(p).  BSGS returns only the true order and is never
    ambiguous above p = 229, so no choice of points changes the result."""
    if cat.cm_field is not None:
        return cm_order(cat, p)
    if p <= 2000:
        return curve.naive_count(cat.curve, p)
    return curve.bsgs_order(cat.curve, p, samples=3, rng=random.Random(p))
