"""Per-layer counters for the traced benchmark run.

The tracer wraps, from outside the package, the public functions of the
ecsmooth layer modules plus the few private functions that carry the cache
I/O and the per-segment task.  Each wrapper counts calls and adds up total
time, self time (total minus the time of wrapped callees) and the longest
call.  Nothing is recorded per call except the `cm_order` latencies that
`cmcount.cm_order.us_p50` needs.

Processes write their counters as JSON lines to one trace file: the CLI
process at exit, and each census pool worker every time a segment task
returns (workers are forked after the wrappers are installed, so they
inherit them).  `merge` adds the lines up and `layer_metrics` turns the sum
into the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time

from stats import percentile

LAYERS = ("arith", "curve", "cmcount", "census", "ecm", "lfunc", "dickman", "cli")

# private functions and methods that carry work the metrics need
EXTRA = (
    ("census", "_compute_segment"),
    ("census", "_load_segment"),
    ("census", "OrderCache._write"),
    ("census", "OrderCache._compute"),
    ("census", "FriabilityTester.__call__"),
    ("dickman", "RhoTable._build"),
)

_FALLBACKS = ("curve.naive_count", "curve.bsgs_order")


class Tracer:
    def __init__(self, out_path: str, segment_size: int):
        self.out_path = out_path
        self.segment_size = segment_size
        self.main_pid = os.getpid()
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s, max_s]
        self.extra: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}
        self._stack: list[float] = []
        self._saved: list[tuple[object, str, object]] = []
        self._last_candidates = 0
        self._hooks = self._post_hooks()

    # --- installation ---

    def install(self, modules: dict[str, object]) -> None:
        """Wrap every public function of the layer modules, and the EXTRA
        ones.  Every module-level alias of a wrapped function (for example
        `census.catalog_curve`, imported from `ecm`) is rebound too."""
        originals: dict[int, tuple[str, object]] = {}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and not name.startswith("_")
                    and obj.__module__ == mod.__name__
                ):
                    originals[id(obj)] = (f"{layer}.{name}", obj)
        wrapped = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for layer in LAYERS:
            mod = modules[layer]
            for name, obj in list(vars(mod).items()):
                if id(obj) in wrapped and originals[id(obj)][1] is obj:
                    self._set(mod, name, wrapped[id(obj)])
        for layer, path in EXTRA:
            owner = modules[layer]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            fn = vars(owner)[attr]
            self._set(owner, attr, self._wrap(f"{layer}.{path}", fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def _set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        st = self.stats.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        post = self._hooks.get(name)

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                st[0] += 1
                st[1] += dt
                st[2] += dt - child
                if dt > st[3]:
                    st[3] = dt
                if stack:
                    stack[-1] += dt
            if post is not None:
                post(out, args, dt)
            return out

        if name == "cmcount.cm_order":
            return self._classify_cm_order(timed)
        if name == "census._compute_segment":
            return self._segment_task(timed)
        return timed

    # --- hooks for the counts that need arguments or results ---

    def _add(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0) + value

    def _post_hooks(self):
        def primes_out(out, args, dt):
            self._add("arith.prime_sieve.primes_out", len(out))

        def candidates(out, args, dt):
            self._last_candidates = len(out)

        def cm_order(out, args, dt):
            self.samples.setdefault("cmcount.cm_order", []).append(dt)

        def segment(out, args, dt):
            seg_lo, seg_hi = args[1], args[2]
            if seg_hi - seg_lo < self.segment_size:
                self._add("census.tail_recomputed", 1)

        def written(out, args, dt):
            self._add("census.write.bytes", os.path.getsize(args[1]))

        def loaded(out, args, dt):
            self._add("census.load.bytes", os.path.getsize(args[0]))

        def pool(out, args, dt):
            cache, todo = args[0], args[2]
            if cache.workers > 1 and len(todo) > 1:
                self._add("census.pool.s", dt)
                self._add("census.pool.worker_s", dt * cache.workers)

        return {
            "arith.prime_sieve": primes_out,
            "cmcount.candidate_orders": candidates,
            "cmcount.cm_order": cm_order,
            "census._compute_segment": segment,
            "census.OrderCache._write": written,
            "census._load_segment": loaded,
            "census.OrderCache._compute": pool,
        }

    def _count(self, name: str) -> int:
        st = self.stats.get(name)
        return st[0] if st else 0

    def _classify_cm_order(self, timed):
        """Infer the path one order took: inert (no candidate list), unique
        candidate, elimination by random points, or a naive/BSGS fallback."""

        @functools.wraps(timed)
        def classify(*args, **kwargs):
            cands = self._count("cmcount.candidate_orders")
            falls = sum(self._count(n) for n in _FALLBACKS)
            points = self._count("curve.sw_random_point")
            out = timed(*args, **kwargs)
            if sum(self._count(n) for n in _FALLBACKS) > falls:
                self._add("cmcount.path.fallback", 1)
            elif self._count("cmcount.candidate_orders") == cands:
                self._add("cmcount.path.inert", 1)
            elif self._last_candidates == 1:
                self._add("cmcount.path.unique", 1)
            else:
                self._add("cmcount.path.elim", 1)
                self._add("cmcount.elim_points", self._count("curve.sw_random_point") - points)
            return out

        return classify

    def _segment_task(self, timed):
        """In a pool worker, start each segment from zero and flush the
        worker's counters when the segment returns."""

        @functools.wraps(timed)
        def task(*args, **kwargs):
            in_worker = os.getpid() != self.main_pid
            if in_worker:
                self.reset()
            try:
                return timed(*args, **kwargs)
            finally:
                if in_worker:
                    self.flush(worker=True)

        return task

    # --- output ---

    def reset(self) -> None:
        for st in self.stats.values():
            st[:] = [0, 0.0, 0.0, 0.0]
        self.extra.clear()
        self.samples.clear()
        self._stack.clear()

    def flush(self, worker: bool = False) -> None:
        line = json.dumps(
            {
                "worker": worker,
                "stats": {k: v for k, v in self.stats.items() if v[0]},
                "extra": self.extra,
                "samples": self.samples,
            }
        )
        with open(self.out_path, "a") as fh:
            fh.write(line + "\n")
        self.reset()


def merge(lines: list[dict]) -> dict:
    """Sum the counter lines of all processes of one traced cycle."""
    stats: dict[str, list] = {}
    extra: dict[str, float] = {}
    samples: dict[str, list[float]] = {}
    worker_segment_s = 0.0
    for line in lines:
        for name, (calls, total, self_s, max_s) in line["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += self_s
            acc[3] = max(acc[3], max_s)
        for key, value in line["extra"].items():
            extra[key] = extra.get(key, 0) + value
        for key, values in line["samples"].items():
            samples.setdefault(key, []).extend(values)
        if line["worker"]:
            worker_segment_s += line["stats"].get("census._compute_segment", [0, 0.0])[1]
    extra["census.worker_segment_s"] = worker_segment_s
    return {"stats": stats, "extra": extra, "samples": samples}


def layer_metrics(merged: dict) -> dict[str, float]:
    """The traced per-layer metrics of BENCHMARK.json from a merged trace."""
    stats, extra, samples = merged["stats"], merged["extra"], merged["samples"]

    def calls(name):
        return stats.get(name, [0])[0]

    def secs(name):
        return stats.get(name, [0, 0.0])[1]

    def ratio(num, den):
        return num / den if den else 0.0

    cm_us = sorted(1e6 * t for t in samples.get("cmcount.cm_order", []))
    cm_calls = calls("cmcount.cm_order")
    elim = extra.get("cmcount.path.elim", 0)
    out = {
        "arith.prime_sieve.calls": calls("arith.prime_sieve"),
        "arith.prime_sieve.s": secs("arith.prime_sieve"),
        "arith.prime_sieve.primes_out": extra.get("arith.prime_sieve.primes_out", 0),
        "arith.kronecker.calls": calls("arith.kronecker"),
        "arith.kronecker.s": secs("arith.kronecker"),
        "arith.cornacchia.calls": calls("arith.cornacchia"),
        "arith.cornacchia.s": secs("arith.cornacchia"),
        "arith.inverse_or_divisor.calls": calls("arith.inverse_or_divisor"),
        "curve.sw_add.calls": calls("curve.sw_add"),
        "curve.sw_add.s": secs("curve.sw_add"),
        "curve.sw_ops_per_order": ratio(calls("curve.sw_add"), cm_calls),
        "curve.ec_scalar_mul.calls": calls("curve.ec_scalar_mul"),
        "curve.ec_scalar_mul.s": secs("curve.ec_scalar_mul"),
        "curve.naive_count.calls": calls("curve.naive_count"),
        "curve.bsgs_order.calls": calls("curve.bsgs_order"),
        "cmcount.cm_order.calls": cm_calls,
        "cmcount.cm_order.s": secs("cmcount.cm_order"),
        "cmcount.cm_order.us_p50": percentile(cm_us, 0.5) if cm_us else 0.0,
        "cmcount.path.inert": extra.get("cmcount.path.inert", 0),
        "cmcount.path.unique": extra.get("cmcount.path.unique", 0),
        "cmcount.path.elim": elim,
        "cmcount.path.fallback": extra.get("cmcount.path.fallback", 0),
        "cmcount.points_per_elim": ratio(extra.get("cmcount.elim_points", 0), elim),
        "census.segments_computed": calls("census._compute_segment"),
        "census.segments_loaded": calls("census._load_segment"),
        "census.tail_recomputed": extra.get("census.tail_recomputed", 0),
        "census.compute_segment.s": secs("census._compute_segment"),
        "census.compute_segment.max_s": stats.get("census._compute_segment", [0, 0.0, 0.0, 0.0])[3],
        "census.worker_busy_ratio": ratio(
            extra.get("census.worker_segment_s", 0.0), extra.get("census.pool.worker_s", 0.0)
        ),
        "census.write.s": secs("census.OrderCache._write"),
        "census.write.bytes": extra.get("census.write.bytes", 0),
        "census.load.s": secs("census._load_segment"),
        "census.load.bytes": extra.get("census.load.bytes", 0),
        "census.friability_tests": calls("census.FriabilityTester.__call__"),
        "census.friability.s": secs("census.FriabilityTester.__call__"),
        "census.psi_exact.s": secs("census.psi_exact"),
        "census.psi_K.s": secs("census.psi_K"),
        "census.psi_K_friable.s": secs("census.psi_K_friable"),
        "ecm.ecm_one_curve.calls": calls("ecm.ecm_one_curve"),
        "ecm.ecm_one_curve.s": secs("ecm.ecm_one_curve"),
        "lfunc.gamma_k.s": secs("lfunc.gamma_k"),
        "lfunc.sigma_k.s": secs("lfunc.sigma_k"),
        "lfunc.alpha_empirical.s": secs("lfunc.alpha_empirical"),
        "dickman.rho_table.s": secs("dickman.RhoTable._build"),
        "dickman.rho.calls": calls("dickman.rho"),
    }
    for layer in LAYERS:
        out[f"{layer}.self_s"] = sum(
            v[2] for k, v in stats.items() if k.split(".", 1)[0] == layer
        )
    # the parent's wait on the census pool is not census work
    out["census.self_s"] -= extra.get("census.pool.s", 0.0)
    return out
