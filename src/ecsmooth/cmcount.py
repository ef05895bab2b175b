"""|E(F_p)| for the CM catalog curves in closed form.

An inert prime gives p + 1.  At a split prime p, Cornacchia gives t, b >= 0
with t^2 + |disc K| b^2 = 4p.  The unit multiples of that element of norm p
are pairs (t', b') with t'^2 + |disc K| b'^2 = 4p, t' of either sign and
b' >= 0: (t, b); also (2b, t/2) in Q(i); also ((t - 3b)/2, (t + b)/2) and
((t + 3b)/2, |t - b|/2) in Q(sqrt(-3)).  |E(F_p)| = p + 1 - t' for the one
multiple that passes a congruence depending only on the curve (Rubin &
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
    t, b = arith.cornacchia(p, K)
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


# At a split prime p, cm_order moves Cornacchia's (t, b) to the one unit
# multiple (t', b'), up to the sign of t', that can pass the curve's
# congruence; the curve's sign rule then gives eps in {+1, -1, 0}, and the
# trace of |E(F_p)| is eps t' (Rubin & Silverberg, op. cit.).  eps = 0 means
# that neither sign passes, and cm_order raises.
# - d = 7 ... 163: the multiples are (+-t, b).  d does not divide t (else
#   d | 4p) and (-1/d) = -1, so chi(-t) = -chi(t) and exactly one sign has the
#   Legendre symbol (t'/d) the curve asks for, s = +1 for e7 and -1 for the
#   others.  For a prime d = 3 mod 4 the field's character chi_{-d} is that
#   symbol, so eps = s chi(t) is one read of a table of period d.
# - e1: for p = a^2 + b^2 the multiples are (+-2a, b) and (+-2b, a), and one
#   of a, b is odd.  The rule asks for t' = 2 mod 8 if 4 | b' and 6 mod 8
#   otherwise, so t'/2 is odd: cm_order takes that pair.  t' = 2 mod 8 iff
#   -t' = 6 mod 8, so exactly one sign passes.
# - e3: for 4p = L^2 + 3M^2, 3 does not divide L, so exactly one multiple has
#   3 | b' (27 | 4p - t'^2): M if 3 | M, (L + M)/2 if M = -L mod 3, else
#   |L - M|/2.  cm_order takes that pair, and t' = 2 mod 3 picks the sign.
# - e8000: the multiples are (+-t, b), and t' mod 16 lies in the classes
#   allowed for p mod 16: 2 or 10 at 1, 6 or 14 at 9, 14 at 3, 10 at 11.  No
#   class is the negative of an allowed one, so at most one sign passes.
def _congruence(passes):
    """The sign rule of a curve whose trace t' satisfies passes(p, t', b')."""
    return lambda p, t, b: 1 if passes(p, t, b) else -1 if passes(p, -t, b) else 0


def _chi_rule(d: int, s: int):
    """The sign rule s chi(t) of e7 ... e163: one read of a table of period d."""
    table = [s * arith.field_for(d).chi(r) for r in range(d)]
    return lambda p, t, b: table[t % d]


_E8000_TRACE = {1: (2, 10), 9: (6, 14), 3: (14,), 11: (10,)}  # p mod 16 -> t mod 16
_SIGN_RULES = {
    "e1": _congruence(lambda p, t, b: t % 8 == (2 if b % 4 == 0 else 6)),
    "e3": _congruence(lambda p, t, b: t % 3 == 2 and b % 3 == 0),
    "e8000": _congruence(lambda p, t, b: t % 16 in _E8000_TRACE[p % 16]),
    "e7": _chi_rule(7, 1),
    **{f"e{d}": _chi_rule(d, -1) for d in (11, 19, 43, 67, 163)},
}


def cm_order(cat: CatalogCurve, p: int) -> int:
    """|E(F_p)| for a CM catalog curve: p + 1 at an inert prime, otherwise
    p + 1 - eps t' for the unit multiple (t', b') of Cornacchia's (t, b)
    that can pass the curve's congruence and the sign eps its rule gives."""
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
    t, b = arith.cornacchia(p, K)
    d = K.d
    if d == 1 and t % 4 == 0:
        t, b = 2 * b, t // 2
    elif d == 3 and b % 3:
        t, b = ((t - 3 * b) // 2, (t + b) // 2) if (t + b) % 3 == 0 else ((t + 3 * b) // 2, abs(t - b) // 2)
    sign = _SIGN_RULES[cat.name](p, t, b)
    if sign:
        return p + 1 - sign * t
    raise ArithmeticError(f"no orbit pair of {cat.name} passes its trace rule at p={p}")


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
