"""|E(F_p)| for the CM catalog curves in closed form.

An inert prime gives p + 1.  At a split prime p, Cornacchia gives t, b >= 0
with t^2 + |disc K| b^2 = 4p.  The unit multiples of that element of norm p
form an orbit of pairs (t', b') with t'^2 + |disc K| b'^2 = 4p, t' of either
sign and b' >= 0: (t, b); also (2b, t/2) in Q(i); also ((t - 3b)/2, (t + b)/2)
and ((t + 3b)/2, |t - b|/2) in Q(sqrt(-3)).  |E(F_p)| = p + 1 - t' for the
one pair that passes a congruence depending only on the curve (Rubin &
Silverberg, "Choosing the correct elliptic curve in the CM method", Math.
Comp. 79 (2010)).
"""

from __future__ import annotations

import random

from . import arith, curve
from .arith import ImagQuadField
from .ecm import CatalogCurve
from .errors import BadReductionError, UsageError


def _orbit(p: int, K: ImagQuadField) -> list[tuple[int, int]]:
    """The pairs (t', b'), t' of either sign, of the unit multiples of
    Cornacchia's element of norm p, for a split prime p (not checked)."""
    t, b = arith._cornacchia_split(p, K)
    pairs = [(t, b)]
    if K.d == 1:
        pairs.append((2 * b, t // 2))
    elif K.d == 3:
        pairs += [((t - 3 * b) // 2, (t + b) // 2), ((t + 3 * b) // 2, abs(t - b) // 2)]
    return [(s * u, v) for u, v in pairs for s in (1, -1)]


def candidate_orders(p: int, K: ImagQuadField) -> set[int]:
    """p + 1 - t' over the orbit's traces t'.  Contains |E(F_p)| for every
    curve with CM by O_K."""
    if K.chi(p) != 1:
        raise UsageError(f"p={p} is not split in Q(sqrt(-{K.d}))")
    cands = {p + 1 - t for t, _ in _orbit(p, K)}
    lo, hi = curve.hasse_interval(p)
    if not all(lo <= n <= hi for n in cands):
        raise ArithmeticError(f"candidate order outside the Hasse interval at p={p}")
    return cands


# The trace rule of each CM catalog curve at a split prime p, on one pair
# (t', b') of the orbit, written (t, b) (Rubin & Silverberg, op. cit.).
# Exactly one pair passes:
# - d = 7 ... 163: the orbit is (+-t, b), d does not divide t (else d | 4p)
#   and (-1/d) = -1, so one sign has the Legendre symbol (t/d) the rule asks for.
#   For a prime d = 3 mod 4 the field's character chi_{-d} is that symbol, so
#   the rule reads (t/d) from the field's chi table of period d.
# - e3: for 4p = L^2 + 3M^2 the orbit is (+-L, M), (+-(L - 3M)/2, (L + M)/2)
#   and (+-(L + 3M)/2, |L - M|/2); 3 does not divide L, so exactly one b' is
#   divisible by 3 (27 | 4p - t'^2), and then t' = 2 or 1 mod 3 tells the
#   signs apart.
# - e1: for p = a^2 + b^2 the orbit is (+-2a, b), (+-2b, a) and one of a, b is
#   odd; t' = 2a with a odd and a = 1 mod 4 iff 4 | b, i.e. t' = 2 or 6 mod 8.
# - e8000: t' = 2 mod 4, and -t' falls outside the classes mod 16 allowed for
#   p mod 16 (t' = 2 mod 8 at 1, 6 mod 8 at 9, 14 mod 16 at 3, 10 mod 16 at 11).
_E8000_TRACE = {1: (2, 10), 9: (6, 14), 3: (14,), 11: (10,)}  # p mod 16 -> t mod 16
_TRACE_RULES = {
    "e1": lambda p, t, b: t % 8 == (2 if b % 4 == 0 else 6),
    "e3": lambda p, t, b: t % 3 == 2 and b % 3 == 0,
    "e8000": lambda p, t, b: t % 16 in _E8000_TRACE[p % 16],
    "e7": lambda p, t, b, chi=arith.field_for(7).chi: chi(t) == 1,
    **{f"e{d}": lambda p, t, b, chi=arith.field_for(d).chi: chi(t) == -1 for d in (11, 19, 43, 67, 163)},
}


def cm_order(cat: CatalogCurve, p: int) -> int:
    """|E(F_p)| for a CM catalog curve: p + 1 at an inert prime, otherwise
    p + 1 - t' for the one orbit pair (t', b') that passes the curve's trace
    rule."""
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
    rule = _TRACE_RULES[cat.name]
    picked = [p + 1 - t for t, b in _orbit(p, K) if rule(p, t, b)]
    if len(picked) != 1:
        raise ArithmeticError(f"{len(picked)} orbit pairs of {cat.name} pass its trace rule at p={p}")
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
