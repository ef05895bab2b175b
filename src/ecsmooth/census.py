"""Counting experiments: exact psi(x,y), curve-order friability counts
psi_E(x,y) and psi_{E,z}(x,y), divisibility counts pi_E(x;d), the E7/E11
Chebyshev race, and the gamma-tilde error-term estimator, plus the on-disk
order cache that lets the long sweeps resume and be shared between
experiments.

Friability is strict everywhere: n counts as y-friable iff P+(n) < y, and
every serialized output carries the convention marker.
"""

from __future__ import annotations

import bisect
import enum
import itertools
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import arith, cmcount, dickman
from .ecm import CatalogCurve, catalog_curve
from .errors import CacheError, CapacityError, DomainError, EcsmoothError, UsageError

PSI_BUDGET = 10**9
CONVENTION = "Pplus_strict"
CACHE_SEGMENT = 1 << 17
MASK_CHUNK = 1 << 15  # orders per step of the array friability test
# Part of every cache file name: bump it whenever an order algorithm's
# output may change, so that files from the old code are never read.
ORDER_VERSION = 1


@dataclass(frozen=True)
class FriabilityTester:
    """Strict y-friability: accepts n iff P+(n) < y.  n = 1 is accepted
    (its largest prime factor is an empty maximum); callers that must
    exclude 1 (no prime divisor exists) do so themselves.  Called on an int
    it returns a bool, on an int64 array the boolean mask.  Each call
    divides out the primes below min(y, isqrt(max n) + 1) and accepts n iff
    what is left is below y: an n <= N with no prime factor <= sqrt(N) is 1
    or a prime, so no verdict needs a prime above sqrt(N)."""

    y: int

    def __post_init__(self):
        if self.y < 2:
            raise UsageError(f"friability bound y={self.y} must be >= 2")

    def __call__(self, n: int | np.ndarray) -> bool | np.ndarray:
        # Divide out the primes in ascending order, one chunk of ns at a time
        # so that the temporaries stay small.  Once the primes below p are
        # divided out, a remainder below p^2 is 1 or a prime, so its verdict
        # is final and it leaves the working set; compacting only every 8th
        # prime keeps the compaction cheaper than the passes it saves.
        ns = n if isinstance(n, np.ndarray) else np.array([n], dtype=np.int64)
        if ns.min(initial=1) < 1:
            raise UsageError(f"friability test needs n >= 1, got {ns.min()}")
        primes = _friability_primes(self.y, int(ns.max(initial=1)))
        out = np.empty(ns.size, dtype=bool)
        for lo in range(0, ns.size, MASK_CHUNK):
            verdict = out[lo : lo + MASK_CHUNK]
            live = ns[lo : lo + MASK_CHUNK].astype(np.int64)
            pos = np.arange(live.size)
            for i, p in enumerate(primes):
                if i % 8 == 0:
                    verdict[pos] = live < self.y
                    keep = np.flatnonzero(live >= p * p)
                    pos, live = pos[keep], live[keep]
                if not live.size:
                    break
                idx = np.flatnonzero(live % p == 0)
                while idx.size:
                    live[idx] //= p
                    idx = idx[live[idx] % p == 0]
            verdict[pos] = live < self.y
        return out if ns is n else bool(out[0])


def _friability_primes(y: int, n: int) -> list[int]:
    """The primes below min(y, isqrt(n) + 1), all that a strict y-friability
    verdict on an m <= n divides out: what is left of m is then 1, a prime,
    or free of primes below y, and m is y-friable iff that is below y."""
    return arith.primes_below(min(y, math.isqrt(n) + 1))


def _divide_out(lo: int, hi: int, primes) -> np.ndarray:
    """The integers n in [lo, hi), int64, each divided by the full power of
    every prime in primes: one strided division by p along the multiples of
    each power p^k < hi, so that an n with v_p(n) = v is divided v times."""
    rem = np.arange(lo, hi, dtype=np.int64)
    for p in primes:
        q = p
        while q < hi:
            rem[-lo % q :: q] //= p
            q *= p
    return rem


def psi_counts(checkpoints: list[int], y: int) -> list[int]:
    """Exact Psi(c, y) = #{n <= c : P+(n) < y} at each checkpoint c, from one
    segmented pass over [1, max(checkpoints)]: per segment, the positions
    that dividing out the primes below min(y, isqrt(max(checkpoints)) + 1)
    reduces below y (the rule of FriabilityTester), added to a running total
    and read off at every checkpoint inside the segment."""
    if not checkpoints:
        return []
    x = max(checkpoints)
    if min(checkpoints) < 1:
        raise UsageError(f"x={min(checkpoints)} must be >= 1")
    if y < 2:
        raise UsageError(f"y={y} must be >= 2")
    if x > PSI_BUDGET:
        raise CapacityError(f"psi_exact budget: x={x} > {PSI_BUDGET}")
    if y > x:
        return list(checkpoints)
    primes = _friability_primes(y, x)
    todo = sorted(set(checkpoints))
    counts: dict[int, int] = {}
    total = 0
    seg = 1 << 20
    for lo in range(1, x + 1, seg):
        friable = _divide_out(lo, min(lo + seg, x + 1), primes) < y
        while todo and todo[0] < lo + seg:
            c = todo.pop(0)
            counts[c] = total + int(np.count_nonzero(friable[: c + 1 - lo]))
        total += int(np.count_nonzero(friable))
        del friable  # one segment's mask at a time
    return [counts[c] for c in checkpoints]


def psi_exact(x: int, y: int) -> int:
    """Exact Psi(x, y) = #{n <= x : P+(n) < y}."""
    return psi_counts([x], y)[0]


def order_table(E: CatalogCurve, lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """Aligned int64 arrays of the good primes p in [lo, hi) and their orders
    |E(F_p)|, one cmcount.order call per prime.  An order that fails names
    the curve, the range and the prime."""
    primes = arith.prime_sieve(hi - 1, lo) if hi > 2 else []
    primes = [p for p in primes if E.curve.has_good_reduction(p)]
    orders = []
    for p in primes:
        try:
            orders.append(cmcount.order(E, p))
        except EcsmoothError as exc:
            exc.args = (f"{E.name} segment [{lo}, {hi}), p = {p}: {exc}",)
            raise
    return np.array(primes, dtype=np.int64), np.array(orders, dtype=np.int64)


def sweep(primes: np.ndarray, orders: np.ndarray, checkpoints: list[int], hit) -> list[int]:
    """#{i : primes[i] <= c and hit(orders)[i]} at each ascending checkpoint
    c, from the ascending primes, their aligned orders and one boolean mask
    hit(orders)."""
    hits = primes[hit(orders)]
    return np.searchsorted(hits, checkpoints, side="right").tolist()


# The counts below take a (primes, orders) table, as from order_table or
# OrderCache.table, that holds every good prime up to at least x.


def psi_E(table, x: int, y: int) -> int:
    """#{p <= x good : P+(|E(F_p)|) < y}, testing only the orders of the p <= x."""
    primes, orders = table
    n = int(np.searchsorted(primes, x, side="right"))
    return sweep(primes[:n], orders[:n], [x], FriabilityTester(y))[0]


def psi_E_z(table, x: int, y: int, z: int) -> int:
    """#{n <= x : P+(n) < y and some good prime p | n has P+(|E(F_p)|) < z}.
    n = 1 never counts: it has no prime divisor (P-(1) = infinity)."""
    if not (2 <= z and 2 <= y):
        raise UsageError("bounds must be >= 2")
    if x > 10**8:
        raise CapacityError(f"psi_E_z sieve guard: x={x}")
    if x < 2:
        return 0
    primes, orders = table
    below = primes < min(y, x + 1)
    hit = np.zeros(x + 1, dtype=bool)
    for p in primes[below][FriabilityTester(z)(orders[below])].tolist():
        hit[p::p] = True
    friable = _divide_out(1, x + 1, _friability_primes(y, x)) < y
    return int(np.count_nonzero(hit[1:] & friable))


def pi_E_d(table, x: int, d: int) -> int:
    """#{p <= x good : d divides |E(F_p)|}."""
    if d < 1:
        raise UsageError(f"d={d} must be >= 1")
    return sweep(*table, [x], lambda n: n % d == 0)[0]


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

    @classmethod
    def from_json(cls, text: str) -> "CensusSeries":
        obj = json.loads(text)
        if obj.get("convention") != CONVENTION:
            raise UsageError(f"unknown convention {obj.get('convention')!r}")
        return cls(
            kind=SeriesKind(obj["kind"]),
            params=obj["params"],
            rows=[(r[0], r[1]) for r in obj["rows"]],
        )


def race(
    E1: CatalogCurve, E2: CatalogCurve, y: int, checkpoints: list[int], table1, table2
) -> CensusSeries:
    """Pointwise psi_E1(x,y) - psi_E2(x,y) at the given checkpoints, from each
    curve's (primes, orders) table up to max(checkpoints): one sweep per
    curve."""
    checkpoints = sorted(set(checkpoints))
    tester = FriabilityTester(y)
    c1 = sweep(*table1, checkpoints, tester)
    c2 = sweep(*table2, checkpoints, tester)
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
    return _gamma_tilde(psi_K_friable(x, y, K), psi_K(x, K), x, y)


def gamma_tilde_curve(table, x: int, y: int) -> float:
    """gamma-tilde in curve mode, with psi_E(x,y)/#good primes <= x as the
    ratio."""
    check_gamma_tilde_bounds(x, y)
    total = int(np.searchsorted(table[0], x, side="right"))
    return _gamma_tilde(psi_E(table, x, y), total, x, y)


def check_gamma_tilde_bounds(x: int, y: int) -> None:
    """Refuse a gamma-tilde at (x, y) unless 2 <= y <= x, before any count."""
    if not (2 <= y <= x):
        raise UsageError("gamma_tilde needs 2 <= y <= x")


def _gamma_tilde(friable: int, total: int, x: int, y: int) -> float:
    if total == 0:
        raise DomainError("empty census, cannot form the ratio")
    u = math.log(x) / math.log(y)
    r, underflow = dickman.rho_clipped(u)
    if underflow or r == 0.0:
        raise DomainError(f"rho({u}) underflows; gamma_tilde undefined")
    return (friable / total / r - 1.0) / (math.log(u + 1) / math.log(y))


# --- on-disk order cache ---


def _cache_path(cache_dir: Path, curve_name: str, seg_lo: int) -> Path:
    return cache_dir / f"{curve_name}.v{ORDER_VERSION}.{seg_lo:010d}.npy"


def _compute_segment(curve_name: str, seg_lo: int, seg_hi: int) -> np.ndarray:
    """(p, |E(F_p)|) rows, int64, for the good primes in [seg_lo, seg_hi)."""
    return np.column_stack(order_table(catalog_curve(curve_name), seg_lo, seg_hi))


def _load_segment(path: Path) -> np.ndarray:
    """A cache file's int64 rows: the covered range (lo, hi), then the
    (p, |E(F_p)|) rows.  Rejects a file whose shape or dtype is wrong, whose
    p do not ascend inside [lo, hi), or with an order outside the Hasse
    interval [p + 1 - floor(2 sqrt p), p + 1 + floor(2 sqrt p)]."""
    try:
        seg = np.load(path, allow_pickle=False)
    except (OSError, ValueError, EOFError) as exc:
        raise CacheError(f"unreadable cache file {path}: {exc}") from exc
    if seg.dtype != np.int64 or seg.ndim != 2 or seg.shape[0] < 1 or seg.shape[1] != 2:
        raise CacheError(f"cache file {path} holds a {seg.dtype} array of shape {seg.shape}")
    (lo, hi), p, n = seg[0], seg[1:, 0], seg[1:, 1]
    if lo != int(path.name.split(".")[-2]) or not lo < hi <= lo + CACHE_SEGMENT:
        raise CacheError(f"cache file {path} covers [{lo}, {hi})")
    if p.size and (p[0] < lo or p[-1] >= hi or np.any(p[1:] <= p[:-1])):
        raise CacheError(f"cache file {path}: primes not ascending inside [{lo}, {hi})")
    r = np.sqrt(4.0 * p).astype(np.int64)
    r -= r * r > 4 * p  # floor(2 sqrt p) where the float root rounded up
    outside = np.flatnonzero((n < p + 1 - r) | (n > p + 1 + r))
    if outside.size:
        i = outside[0]
        raise CacheError(f"cache file {path}: order {n[i]} of p = {p[i]} is outside the Hasse "
                         f"interval [{p[i] + 1 - r[i]}, {p[i] + 1 + r[i]}]")
    return seg


class OrderCache:
    """One int64 .npy file per (curve, segment of CACHE_SEGMENT integers),
    named with ORDER_VERSION: a header row (lo, hi) with the covered range,
    then (p, |E(F_p)|) rows in ascending p.  The partial last segment is
    persisted too; a run whose x + 1 <= hi only loads the file, and a run
    that needs more computes only [hi, x + 1) and replaces the file with the
    stored rows and the new ones.  Files are bit-exact reproducible."""

    def __init__(self, cache_dir: str | os.PathLike, workers: int = 1):
        if workers < 1:
            raise UsageError(f"workers={workers} must be >= 1")
        self.cache_dir = Path(cache_dir)
        self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.workers = workers

    def table(self, cat: CatalogCurve, x: int) -> tuple[np.ndarray, np.ndarray]:
        """Aligned int64 arrays of the good primes p <= x and their orders,
        computing and persisting any segment no file covers."""
        if x > arith.SIEVE_LIMIT:
            # up front: prime_sieve would refuse only the last segment, after
            # every segment below it had been computed
            raise CapacityError(f"order table to x={x} exceeds the sieve limit {arith.SIEVE_LIMIT}")
        los = range(0, x + 1, CACHE_SEGMENT)
        parts: dict[int, np.ndarray] = {}
        todo = []
        for lo in los:
            hi = min(lo + CACHE_SEGMENT, x + 1)
            path = _cache_path(self.cache_dir, cat.name, lo)
            # no file is a file covering [lo, lo); a stored tail is extended
            seg = _load_segment(path) if path.exists() else np.array([[lo, lo]], np.int64)
            parts[lo] = seg[1:]
            if seg[0, 1] < hi:
                todo.append((lo, int(seg[0, 1]), hi, path))
        for (lo, _, hi, path), new in zip(todo, self._compute(cat.name, todo)):
            parts[lo] = np.vstack((parts[lo], new))
            self._write(path, np.vstack(([lo, hi], parts[lo])))
        rows = np.concatenate([np.empty((0, 2), np.int64)] + [parts[lo] for lo in los])
        rows = rows[: np.searchsorted(rows[:, 0], x, side="right")]
        return rows[:, 0], rows[:, 1]

    def orders(self, cat: CatalogCurve, x: int) -> dict[int, int]:
        """All good-prime orders for p <= x as a p -> n mapping."""
        primes, orders = self.table(cat, x)
        return dict(zip(primes.tolist(), orders.tolist()))

    def _compute(self, curve_name: str, todo):
        if self.workers == 1 or len(todo) <= 1:
            return [_compute_segment(curve_name, start, hi) for _, start, hi, _ in todo]
        # the fork start method forks all max_workers at the first submit
        with ProcessPoolExecutor(max_workers=min(self.workers, len(todo))) as pool:
            futs = [pool.submit(_compute_segment, curve_name, start, hi) for _, start, hi, _ in todo]
            return [f.result() for f in futs]

    def _write(self, path: Path, seg: np.ndarray) -> None:
        # a private temporary name per writer, so that concurrent writers of
        # one segment never interleave; the last rename wins with a whole file
        tmp = path.with_name(f"{path.name}.{os.urandom(8).hex()}.tmp")
        with tmp.open("xb") as fh:
            np.save(fh, seg)
        tmp.replace(path)
