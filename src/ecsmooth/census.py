"""Counting experiments: exact psi(x,y), curve-order friability counts
psi_E(x,y) and psi_{E,z}(x,y), divisibility counts pi_E(x;d), the E7/E11
Chebyshev race, and the gamma-tilde error-term estimator, plus the on-disk
order cache, each file a whole segment computed at once, that lets the long
sweeps resume and be shared between experiments.

Friability is strict everywhere: n counts as y-friable iff P+(n) < y, and
every serialized output carries the convention marker.  A curve-order table
carries P+(|E(F_p)|) beside every order, so a friability count on it is one
comparison at any y.  Every curve-order count takes segments: an iterable of
aligned int64 (primes, orders, pplus) arrays in ascending p, holding every
good prime up to each x asked, and read once.  OrderCache.segments streams
them; a whole table is [order_table(E, lo, hi)].
"""

from __future__ import annotations

import bisect
import enum
import itertools
import json
import math
import os
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arith, cmcount, dickman
from .ecm import CatalogCurve, catalog_curve
from .errors import CacheError, CapacityError, DomainError, EcsmoothError, UsageError

PSI_BUDGET = 10**9
CONVENTION = "Pplus_strict"
CACHE_SEGMENT = 1 << 17
PSI_SEGMENT = 1 << 18  # integers per window of psi_counts and psi_E_z: a 1 MiB int32 window stays in L2
# Part of every cache file name: bump it whenever an order algorithm's
# output or the file layout may change, so that files from the old code are
# never read.
ORDER_VERSION = 2


@dataclass(frozen=True)
class FriabilityTester:
    """Strict y-friability: accepts n iff P+(n) < y.  n = 1 is accepted
    (its largest prime factor is an empty maximum); callers that must
    exclude 1 (no prime divisor exists) do so themselves.  Called on an int
    it returns a bool, on an int64 array the boolean mask.  Each call
    divides out the primes below min(y, isqrt(max n) + 1) and accepts n iff
    what is left is below y: an n <= N with no prime factor <= sqrt(N) is 1
    or a prime, so no verdict needs a prime above sqrt(N).  The division is
    the kernel of largest_prime_factor, exact for every int64 n >= 1.  The
    curve-order counts do not call it: they compare the table's P+ column."""

    y: int

    def __post_init__(self):
        if self.y < 2:
            raise UsageError(f"friability bound y={self.y} must be >= 2")

    def __call__(self, n: int | np.ndarray) -> bool | np.ndarray:
        ns = n if isinstance(n, np.ndarray) else np.array([n], dtype=np.int64)
        _check_positive(ns, "friability test")
        out = _largest_factor_left(ns, _friability_primes(self.y, int(ns.max(initial=1))))[0] < self.y
        return out if ns is n else bool(out[0])


def _check_positive(ns: np.ndarray, what: str) -> None:
    if ns.min(initial=1) < 1:
        raise UsageError(f"{what} needs n >= 1, got {ns.min()}")


def largest_prime_factor(ns: np.ndarray) -> np.ndarray:
    """P+(n), int64, for every n of an int64 array of n >= 1, with
    P+(1) = 1: the primes <= isqrt(max n) divided out, after which what is
    left of each n is 1 or its largest prime factor.  Those primes come
    from arith.prime_sieve, under its guards."""
    _check_positive(ns, "largest_prime_factor")
    return _largest_factor_left(ns, arith.primes_below(math.isqrt(int(ns.max(initial=1))) + 1))[0]


def _largest_factor_left(ns: np.ndarray, primes: list[int]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The one pass that divides every n of ns (all >= 1) by the ascending
    primes.  First, for every n, int64: the part m of n free of the primes
    if m > 1, else the largest of them dividing n (1 for n = 1).  With every
    prime <= isqrt(max ns) this is P+(n).  With the primes below min(y,
    isqrt(max ns) + 1) it is below y iff P+(n) < y.  Second, per prime p,
    int64: its divisions, sum v_p(n) over the n still in the working set
    when p comes.  Third, every m, unsigned (1 or a prime if n left early).

    Each n runs in uint32 when max ns < 2^32 (every cached order: x <= 2^31
    gives n <= x + 1 + 2 sqrt x), else in uint64.  An odd p divides n iff
    n * p^-1 mod 2^k <= (2^k - 1) // p, and then that product is n / p
    (Granlund & Montgomery, "Division by invariant integers using
    multiplication", PLDI 1994); p = 2 goes with the lowest set bit.  Once
    the primes below p are divided out, an n left below p^2 is 1 or a prime:
    it leaves the working set, checked every 8th prime so that compacting
    costs less than the passes it saves, and not at p = 2, where only
    n <= 3 could leave."""
    k = 32 if int(ns.max(initial=1)) < 1 << 32 else 64
    dt = np.uint32 if k == 32 else np.uint64
    live = ns.astype(dt)
    top = np.ones(ns.size, dt)  # the largest prime divided out so far
    out = np.empty(ns.size, dt)  # top of each n that left the working set
    left = np.empty(ns.size, dt)  # m of each n that left the working set
    divisions = np.zeros(len(primes), np.int64)
    pos = np.arange(ns.size, dtype=dt)  # dt holds every index: 2^32 int64 n fill 32 GiB
    for i, p in enumerate(primes):
        if i % 8 == 0 and p > 2:
            keep = live >= p * p
            done = ~keep
            out[pos[done]], left[pos[done]] = top[done], live[done]
            # one array at a time, so that no old copy outlives its new one
            pos = pos[keep]
            live = live[keep]
            top = top[keep]
            if not live.size:
                break
        if p == 2:
            low = live & (~live + dt(1))  # 2^v for v = v_2(n)
            top[low > 1] = 2
            v = np.bitwise_count(low - dt(1)).astype(dt)
            divisions[i] = v.sum()
            live >>= v
            continue
        inv, lim = dt(pow(p, -1, 1 << k)), dt(((1 << k) - 1) // p)
        idx = np.flatnonzero(live * inv <= lim)
        top[idx] = p
        while idx.size:
            divisions[i] += idx.size
            live[idx] *= inv
            idx = idx[live[idx] * inv <= lim]
    out[pos], left[pos] = top, live
    # an m above 1 has only prime factors above the last of the primes, so
    # it exceeds every prime divided out
    return np.maximum(out, left, out=out).astype(np.int64), divisions, left


def _friability_primes(y: int, n: int) -> list[int]:
    """The primes below min(y, isqrt(n) + 1), all that a strict y-friability
    verdict on an m <= n divides out: what is left of m is then 1, a prime,
    or free of primes below y, and m is y-friable iff that is below y."""
    return arith.primes_below(min(y, math.isqrt(n) + 1))


def _divide_out(lo: int, hi: int, primes) -> np.ndarray:
    """The integers n in [lo, hi), int32 (every caller keeps hi <= PSI_BUDGET
    + 1 < 2^31), each divided by the full power of every prime in primes: one
    strided exact division by p along the multiples of each power p^k < hi,
    so that an n with v_p(n) = v is divided v times.  p = 2 divides by a
    shift.  An odd p multiplies by p^-1 mod 2^32 as int32: at a multiple of
    p^k, p still divides what is left of n, and the product, wrapped mod
    2^32 as numpy's int32 arrays do without a warning, is the quotient
    (Granlund & Montgomery, PLDI 1994).  A strided multiply costs a fraction
    of a strided floor division."""
    rem = np.arange(lo, hi, dtype=np.int32)
    ps = np.array(primes, dtype=np.uint32)
    invs = ps.copy()  # p^-1 mod 8, as p^2 = 1 mod 8; each Newton step doubles the bits
    for _ in range(4):
        invs *= 2 - ps * invs
    for p, inv in zip(primes, invs.view(np.int32)):
        q = p
        while q < hi:
            if p == 2:
                rem[-lo % q :: q] >>= 1
            else:
                rem[-lo % q :: q] *= inv
            q *= p
    return rem


def _friable_windows(x: int, y: int):
    """(lo, mask) for each PSI_SEGMENT window [lo, lo + len(mask)) of [1, x],
    one at a time: the positions that dividing out the primes below
    min(y, isqrt(x) + 1) reduces below y (the rule of FriabilityTester)."""
    primes = _friability_primes(y, x)
    for lo in range(1, x + 1, PSI_SEGMENT):
        yield lo, _divide_out(lo, min(lo + PSI_SEGMENT, x + 1), primes) < y


def psi_counts(checkpoints: list[int], y: int) -> list[int]:
    """Exact Psi(c, y) = #{n <= c : P+(n) < y} at each checkpoint c, from one
    pass over the friable windows of [1, max(checkpoints)]: each window's
    count added to a running total and read off at every checkpoint inside
    the window."""
    if not checkpoints:
        return []
    x = max(checkpoints)
    if min(checkpoints) < 1:
        raise UsageError(f"x={min(checkpoints)} must be >= 1")
    if y < 2:
        raise UsageError(f"y={y} must be >= 2")
    if x > PSI_BUDGET:
        raise CapacityError(f"psi budget: x={x} > {PSI_BUDGET}")
    if y > x:
        return list(checkpoints)
    todo = sorted(set(checkpoints), reverse=True)  # the next checkpoint last
    counts: dict[int, int] = {}
    total = 0
    for lo, friable in _friable_windows(x, y):
        while todo and todo[-1] < lo + len(friable):
            c = todo.pop()
            counts[c] = total + int(np.count_nonzero(friable[: c + 1 - lo]))
        total += int(np.count_nonzero(friable))
    return [counts[c] for c in checkpoints]


def valuation_totals(orders: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """sum_n val_ell(n), int64, over the orders n >= 1 for each ell of
    primes, the ascending int64 primes from 2 up to some bound: one
    _largest_factor_left pass by its prefix up to isqrt(max n), ell's
    divisions plus the orders whose part m left free of that prefix is
    ell, counted by one search of primes.  An ell above isqrt(max n)
    divides an order at most once, and then m = ell."""
    divided = primes[: np.searchsorted(primes, math.isqrt(int(orders.max(initial=1))), side="right")]
    _, divisions, left = _largest_factor_left(orders, divided.tolist())
    totals = np.zeros(primes.size, dtype=np.int64)
    totals[: divided.size] = divisions
    m = left[left <= int(primes[-1])].astype(np.int64)
    i = np.searchsorted(primes, m)
    totals += np.bincount(i[primes[i] == m], minlength=primes.size)
    return totals


def segment_orders(E: CatalogCurve, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned int64 arrays of the good primes p in [lo, hi) and their orders
    |E(F_p)|, one cmcount.order call per prime filling its slot of one int64
    array.  An order that fails names the curve, the range and the prime."""
    primes = arith.prime_array(hi - 1, lo) if hi > 2 else np.empty(0, np.int64)
    # every catalog |disc| fits in int64, so the remainders are exact
    primes = primes[E.curve.disc % primes != 0]
    orders = np.empty(primes.size, np.int64)
    for i, p in enumerate(primes.tolist()):
        try:
            orders[i] = cmcount.order(E, p)
        except EcsmoothError as exc:
            exc.args = (f"{E.name} segment [{lo}, {hi}), p = {p}: {exc}",)
            raise
    return primes, orders


def order_table(E: CatalogCurve, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """segment_orders's arrays and the orders' largest prime factors
    P+(|E(F_p)|), from one largest_prime_factor call."""
    primes, orders = segment_orders(E, lo, hi)
    return primes, orders, largest_prime_factor(orders)


def sweep(primes: np.ndarray, hits: np.ndarray, checkpoints: list[int]) -> list[int]:
    """#{i : primes[i] <= c and hits[i]} at each checkpoint c, in any order,
    from the ascending primes and an aligned boolean mask."""
    return np.searchsorted(primes[hits], checkpoints, side="right").tolist()


def psi_E(segments, points: list[tuple[int, float]]) -> list[int]:
    """#{good p <= x : P+(|E(F_p)|) < y} for every (x, y) of points, in any
    order and y possibly math.inf: one sweep per segment and per distinct y,
    added up, so that one segment is held at a time."""
    by_y: dict[float, list[int]] = {}
    for i, (_, y) in enumerate(points):
        by_y.setdefault(y, []).append(i)
    counts = [0] * len(points)
    for primes, _, pplus in segments:
        for y, idx in by_y.items():
            for i, c in zip(idx, sweep(primes, pplus < y, [points[i][0] for i in idx])):
                counts[i] += c
    return counts


def psi_E_z(segments, x: int, y: int, z: int) -> int:
    """#{n <= x : P+(n) < y and some good prime p | n has P+(|E(F_p)|) < z}.
    n = 1 never counts: it has no prime divisor (P-(1) = infinity).  Holds
    the hit primes p < min(y, x + 1) and one window of [1, x] at a time."""
    if not (2 <= z and 2 <= y):
        raise UsageError("bounds must be >= 2")
    if x > 10**8:
        raise CapacityError(f"psi_E_z sieve guard: x={x}")
    if x < 2:
        return 0
    hits = np.concatenate([np.zeros(0, np.int64)] + [
        primes[(primes < min(y, x + 1)) & (pplus < z)] for primes, _, pplus in segments])
    small = hits[hits < PSI_SEGMENT].tolist()
    count = 0
    for lo, friable in _friable_windows(x, y):
        hi = lo + len(friable)
        hit = np.zeros(len(friable), dtype=bool)
        for p in small:
            hit[-lo % p :: p] = True
        for k in range(1, (hi - 1) // PSI_SEGMENT + 1):
            # a larger hit prime has at most one multiple k p in the window
            i, j = np.searchsorted(hits, [max(-(-lo // k), PSI_SEGMENT), -(-hi // k)])
            hit[k * hits[i:j] - lo] = True
        count += int(np.count_nonzero(hit & friable))
    return count


def pi_E_d(segments, x: int, d: int) -> int:
    """#{p <= x good : d divides |E(F_p)|}."""
    if d < 1:
        raise UsageError(f"d={d} must be >= 1")
    return sum(sweep(primes, orders % d == 0, [x])[0] for primes, orders, _ in segments)


class SeriesKind(enum.Enum):
    PSI = "psi"
    PSI_E = "psi_e"
    RACE = "race"
    RHO = "rho"
    GAMMA_TILDE = "gamma_tilde"


@dataclass
class CensusSeries:
    kind: SeriesKind
    params: dict
    rows: list[tuple[int, float]]

    def __post_init__(self):
        xs = [x for x, _ in self.rows]
        if xs != sorted(set(xs)):
            raise UsageError("series rows must be strictly increasing in x")

    def header(self) -> str:
        items = ",".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        sep = "," if items else ""
        return f"# {self.kind.value}{sep}{items},convention={CONVENTION}"

    def to_csv(self) -> str:
        lines = [self.header(), "x,value"]
        for x, v in self.rows:
            lines.append(f"{x},{v}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        return json.dumps(
            {
                "kind": self.kind.value,
                "params": {k: self.params[k] for k in sorted(self.params)},
                "convention": CONVENTION,
                "rows": [[x, v] for x, v in self.rows],
            },
            indent=None,
            separators=(",", ":"),
        ) + "\n"


def race(E1: CatalogCurve, E2: CatalogCurve, y: int, checkpoints: list[int], segments1, segments2) -> CensusSeries:
    """Pointwise psi_E1(x,y) - psi_E2(x,y) at the checkpoints, ascending and
    each once, from each curve's segments up to max(checkpoints): one psi_E
    per curve."""
    checkpoints = sorted(set(checkpoints))
    c1, c2 = (psi_E(segments, [(x, y) for x in checkpoints]) for segments in (segments1, segments2))
    rows = [(x, a - b) for x, a, b in zip(checkpoints, c1, c2)]
    return CensusSeries(SeriesKind.RACE, {"e1": E1.name, "e2": E2.name, "y": y}, rows)


def psi_K(x: int, K: arith.ImagQuadField) -> int:
    """Number of integral ideals of O_K with norm <= x, that is
    sum_{ab <= x} chi(a) since #ideals of norm n = sum_{d|n} chi(d).  The
    Dirichlet hyperbola method with r = isqrt(x) gives
    sum_{a <= r} (chi(a) floor(x/a) + S(floor(x/a))) - r S(r), where
    S(t) = sum_{a <= t} chi(a) depends only on t mod |disc| (a period of chi
    sums to 0): O(sqrt x) time, O(|disc|) memory."""
    if x < 0:
        raise UsageError(f"ideal count needs x >= 0, got {x}")
    m = -K.disc
    S = list(itertools.accumulate((K.chi(a) for a in range(1, m)), initial=0))
    r = math.isqrt(x)
    total = sum(K.chi(a) * (x // a) + S[x // a % m] for a in range(1, r + 1))
    return total - r * S[r % m]


def psi_K_friable(x: int, y: int, K: arith.ImagQuadField) -> int:
    """Number of ideals with y-friable norm <= x (the norm, as an integer,
    has P+ < y), by depth-first search over the rational primes.  A split p
    contributes k+1 ideals of norm p^k, inert p one ideal of norm p^(2k),
    ramified p one ideal of norm p^k.  The primes are taken in ascending
    order of their step, the least norm of an ideal above p (p, or p^2 for
    an inert p), so the first step above the budget ends each level.  Once
    step^2 > budget, every later step is a leaf: it fits once, alone, and
    the leaves' ideals (2 for a split p, else 1) come from a prefix sum."""
    if x < 0:
        raise UsageError(f"ideal count needs x >= 0, got {x}")
    chis = ((p, K.chi(p)) for p in arith.primes_below(min(y, x + 1)))
    steps = sorted((p * p if c == -1 else p, c) for p, c in chis)
    values = [step for step, _ in steps]
    leaves = list(itertools.accumulate((2 if c == 1 else 1 for _, c in steps), initial=0))

    def dfs(i: int, budget: int) -> int:
        total = 1  # exponent-0 assignment for all remaining primes
        for j in range(i, len(steps)):
            step, c = steps[j]
            if step * step > budget:
                return total + leaves[bisect.bisect_right(values, budget, j)] - leaves[j]
            norm = step
            k = 1
            while norm <= budget:
                mult = (k + 1) if c == 1 else 1
                total += mult * dfs(j + 1, budget // norm)
                norm *= step
                k += 1
        return total

    return dfs(0, x) if x else 0


def gamma_tilde_field(K: arith.ImagQuadField, x: int, y: int) -> float:
    """gamma-tilde in ideal-count mode:
    ((psi_K(x,y)/psi_K(x,inf)) / rho(u) - 1) / (log(u+1)/log y)."""
    check_gamma_tilde_bounds(x, y)
    return gamma_tilde_counts(psi_K_friable(x, y, K), psi_K(x, K), x, y)


def gamma_tilde_curve(segments, points: list[tuple[int, int]]) -> list[float]:
    """gamma-tilde in curve mode at every (x, y) of points, with
    psi_E(x,y)/#good primes <= x as the ratio: every point checked, then one
    psi_E pass, in which every good p counts at y = inf for the totals."""
    for x, y in points:
        check_gamma_tilde_bounds(x, y)
    counts = psi_E(segments, points + [(x, math.inf) for x, _ in points])
    return [gamma_tilde_counts(f, t, x, y) for (x, y), f, t in zip(points, counts, counts[len(points):])]


def check_gamma_tilde_bounds(x: int, y: int) -> None:
    """Refuse a gamma-tilde at (x, y) unless 2 <= y <= x, before any count."""
    if not (2 <= y <= x):
        raise UsageError("gamma_tilde needs 2 <= y <= x")


def gamma_tilde_counts(friable: int, total: int, x: int, y: int) -> float:
    """gamma-tilde at (x, y) from the counts of its ratio friable/total:
    ((friable/total) / rho(u) - 1) / (log(u+1)/log y) with u = log x/log y."""
    if total == 0:
        raise DomainError("empty census, cannot form the ratio")
    u = math.log(x) / math.log(y)
    if u > dickman.DEFAULT_MAX_U:  # past the rho table; inside it rho >= rho(50) > 0
        raise DomainError(f"rho({u}) underflows; gamma_tilde undefined")
    return (friable / total / dickman.rho(u) - 1.0) / (math.log(u + 1) / math.log(y))


# --- on-disk order cache ---


def _cache_path(cache_dir: Path, curve_name: str, seg_lo: int) -> Path:
    return cache_dir / f"{curve_name}.v{ORDER_VERSION}.{seg_lo:010d}.npy"


def _compute_segment(curve_name: str, seg_lo: int, seg_hi: int, tmps: list[Path], cache: OrderCache) -> None:
    """Write the run [seg_lo, seg_hi), cut into segments of CACHE_SEGMENT
    integers from seg_lo, one file per name of tmps through cache._write:
    the header (lo, hi, 0), then the (p, |E(F_p)|, P+(|E(F_p)|)) rows,
    int64, of the good primes in [lo, hi).  One order table serves the
    whole run, so it sieves once and makes one P+ pass; in a pool worker
    the rows never leave the worker."""
    primes, orders, pplus = order_table(catalog_curve(curve_name), seg_lo, seg_hi)
    rows = np.column_stack((primes, orders, pplus))
    for lo, tmp in zip(range(seg_lo, seg_hi, CACHE_SEGMENT), tmps, strict=True):
        hi = min(lo + CACHE_SEGMENT, seg_hi)
        i, j = np.searchsorted(primes, [lo, hi])
        cache._write(tmp, np.vstack(([lo, hi, 0], rows[i:j])))


def _read_rows(path: Path, whole: bool) -> np.ndarray:
    """A cache file's int64 rows, all of them if whole, else only the first,
    (lo, hi, 0): its .npy header is read and checked, then the rows with one
    plain read into an array of their size, through a descriptor closed on
    return; no file is mapped.  Rejects a file that holds no C-order int64
    array of shape (rows, 3), rows >= 1; whose size is not that of its
    header and those rows, so that no header makes this allocate more than
    the file holds; or whose first row does not name a range [lo, hi) inside
    the segment of its file name."""
    try:
        with path.open("rb") as fh:
            if np.lib.format.read_magic(fh) != (1, 0):  # what np.save writes for a cache array
                raise ValueError("not a version 1.0 .npy file")
            shape, fortran_order, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype != np.int64 or fortran_order or len(shape) != 2 or shape[0] < 1 or shape[1] != 3:
                order = "Fortran-order " if fortran_order else ""
                raise CacheError(f"cache file {path} holds a {order}{dtype} array of shape {shape}")
            size = os.fstat(fh.fileno()).st_size
            if size != fh.tell() + 24 * shape[0]:  # 24 bytes: one row of three int64
                raise CacheError(f"cache file {path} holds {size} bytes, not its header and {shape[0]} rows")
            seg = np.empty((shape[0] if whole else 1, 3), np.int64)
            if fh.readinto(seg) != seg.nbytes:
                raise CacheError(f"cache file {path} ends before its {shape[0]} rows")
    except (OSError, ValueError) as exc:
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    lo, hi, _ = seg[0].tolist()
    if lo != int(path.name.split(".")[-2]) or not lo < hi <= lo + CACHE_SEGMENT:
        raise CacheError(f"cache file {path} covers [{lo}, {hi})")
    return seg


def _load_segment(path: Path) -> np.ndarray:
    """A cache file's int64 rows, read whole by _read_rows and checked: the
    covered range (lo, hi, 0), then the (p, |E(F_p)|, P+(|E(F_p)|)) rows.
    Rejects also a file whose p do not ascend inside [lo, hi), with an order
    outside the Hasse interval [p + 1 - floor(2 sqrt p), p + 1 + floor(2
    sqrt p)], or with a P+ entry m that is below 1, above its order n or no
    divisor of n."""
    seg = _read_rows(path, whole=True)
    (lo, hi, _), p, n, m = seg[0], seg[1:, 0], seg[1:, 1], seg[1:, 2]
    if p.size and (p[0] < lo or p[-1] >= hi or np.any(p[1:] <= p[:-1])):
        raise CacheError(f"cache file {path}: primes not ascending inside [{lo}, {hi})")
    # |t| <= floor(2 sqrt p) iff t^2 <= 4p for the trace t = p + 1 - n; t^2 fits
    # in int64 once -p <= t <= p (np.abs(-2^63) is -2^63), since p < hi <= lo +
    # CACHE_SEGMENT and OrderCache.segments opens files only for lo <= SIEVE_LIMIT
    t = p + 1 - n
    outside = np.flatnonzero((t < -p) | (t > p) | (t * t > 4 * p))
    if outside.size:
        i = outside[0]
        r = math.isqrt(4 * int(p[i]))
        raise CacheError(f"cache file {path}: order {n[i]} of p = {p[i]} is outside the Hasse "
                         f"interval [{p[i] + 1 - r}, {p[i] + 1 + r}]")
    # an m above its order n >= 1 (Hasse) leaves n mod m = n != 0
    bad = np.flatnonzero((m < 1) | (n % np.clip(m, 1, None) != 0))
    if bad.size:
        i = bad[0]
        raise CacheError(f"cache file {path}: P+ = {m[i]} of the order {n[i]} of p = {p[i]} "
                         "does not divide it")
    return seg


def ProcessPoolExecutor(max_workers: int):
    """A concurrent.futures process pool of max_workers processes, imported
    here so that only a run that forks a pool loads multiprocessing and the
    modules it pulls in."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers)


class OrderCache:
    """One int64 .npy file per (curve, segment of CACHE_SEGMENT integers),
    named with ORDER_VERSION: a header row (lo, hi, 0) with the covered
    range, then (p, |E(F_p)|, P+(|E(F_p)|)) rows in ascending p, P+ computed
    where the order is.  The partial last segment is persisted too; a run
    whose x + 1 <= hi only loads the file, and a run that needs more
    computes the whole segment again from lo and replaces the file, so
    that every file's rows come from one computation.  A call computes its
    segments in runs of consecutive ones through one map, in process or on a
    pool of up to `workers` processes.  Each run makes one order table and
    writes its segments' files itself, so pool workers send back no rows,
    and the files are renamed into place only once every run has succeeded;
    a failure cancels the runs not yet started.  Files are bit-exact
    reproducible, whatever the runs, and the last of two concurrent writers
    of a file wins with a whole one.

    segments() streams the table one segment at a time, which is how every
    curve-order count reads it, each file read into memory with plain reads
    through a descriptor closed before the segment is yielded, and no file
    mapped; table() joins the stream into whole arrays."""

    def __init__(self, cache_dir: str | os.PathLike, workers: int = 1):
        if workers < 1:
            raise UsageError(f"workers={workers} must be >= 1")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers

    def segments(self, cat: CatalogCurve, x: int):
        """Aligned int64 (primes, orders, pplus) views of one cache file at a
        time, in ascending p, for the good primes p <= x: the orders and
        their P+.  A first pass reads each stored file's header and first
        row only, to find the segments that no file covers up to x; those
        are computed whole and persisted before the first is yielded, and
        every stored file is checked whole before that work.  The stream
        then reads each file once, whole, and checks every row
        (_load_segment).  A file that another run has since replaced with
        one covering less than x is refused."""
        if x > arith.SIEVE_LIMIT:
            # up front: prime_sieve would refuse only the last segment, after
            # every segment below it had been computed
            raise CapacityError(f"order table to x={x} exceeds the sieve limit {arith.SIEVE_LIMIT}")
        paths = {lo: _cache_path(self.cache_dir, cat.name, lo) for lo in range(0, x + 1, CACHE_SEGMENT)}
        todo = []
        for lo, path in paths.items():
            hi = min(lo + CACHE_SEGMENT, x + 1)
            if path.exists() and _read_rows(path, whole=False)[0, 1] >= hi:
                continue
            todo.append((lo, hi, path))
        if todo:
            # so that a corrupt file, a short one included, fails before any
            # segment is computed
            for path in paths.values():
                if path.exists():
                    _load_segment(path)
        self._compute(cat.name, todo)
        for lo, path in paths.items():
            seg = _load_segment(path)
            if seg[0, 1] < min(lo + CACHE_SEGMENT, x + 1):
                raise CacheError(f"cache file {path} now covers [{lo}, {seg[0, 1]}), short of x={x}: "
                                 "another run replaced it, run again")
            rows = seg[1:]
            rows = rows[: np.searchsorted(rows[:, 0], x, side="right")]
            yield rows[:, 0], rows[:, 1], rows[:, 2]

    def table(self, cat: CatalogCurve, x: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Aligned int64 arrays of the good primes p <= x, their orders and
        the orders' P+: the segments() stream joined."""
        parts = list(self.segments(cat, x)) or [(np.empty(0, np.int64),) * 3]
        return tuple(np.concatenate(col) for col in zip(*parts))

    def orders(self, cat: CatalogCurve, x: int) -> dict[int, int]:
        """All good-prime orders for p <= x as a p -> n mapping, built from
        the segments() stream with no joined table."""
        return {p: n for primes, orders, _ in self.segments(cat, x) for p, n in zip(primes.tolist(), orders.tolist())}

    def _compute(self, curve_name: str, todo) -> None:
        """Persist every (lo, hi, path) of todo, ascending in lo.  Consecutive
        segments are grouped into runs, and _compute_segment writes each
        run's files, under private names next to their paths that this
        process chose, through one map: the builtin one for one worker or one
        run, else a pool's, whose tasks return no rows.  A pooled run holds
        up to min(4, ceil(len(todo) / (2 workers))) segments, so that every
        worker gets at least two runs; a run in process holds one, so that
        this process never holds more than one segment's table, whatever x.
        Only the pooled branch imports the pool, through ProcessPoolExecutor,
        so a process that forks none never loads multiprocessing and its
        modules (about 20 ms and 2 MB).  Once every run has succeeded the
        staged files are renamed onto their paths; if one fails, the runs not
        yet started are cancelled, the staged files are removed once the
        running ones have ended, and every stored file is left as it was."""
        if not todo:
            return
        size = min(4, -(-len(todo) // (2 * self.workers))) if self.workers > 1 else 1
        runs, staged = [], []  # runs: [lo, hi, tmps] of consecutive segments
        for lo, hi, path in todo:
            tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
            staged.append((tmp, path))
            if runs and runs[-1][1] == lo and len(runs[-1][2]) < size:
                runs[-1][1] = hi
                runs[-1][2].append(tmp)
            else:
                runs.append([lo, hi, [tmp]])
        pooled = self.workers > 1 and len(runs) > 1
        try:
            # the fork start method forks all max_workers at the first submit
            with ProcessPoolExecutor(min(self.workers, len(runs))) if pooled else nullcontext() as pool:
                # a failed run raises out of the map, which cancels every run
                # not yet started; leaving the pool waits for the others
                list((pool.map if pooled else map)(
                    _compute_segment, itertools.repeat(curve_name), *zip(*runs), itertools.repeat(self)
                ))
        except BaseException:
            for tmp, _ in staged:
                tmp.unlink(missing_ok=True)
            raise
        for tmp, path in staged:
            tmp.replace(path)

    def _write(self, path: Path, seg: np.ndarray) -> None:
        # a new file, never one another writer has opened
        with path.open("xb") as fh:
            np.save(fh, seg)
