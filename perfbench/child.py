"""One benchmark process: imports ecsmooth from the checkout and runs one job.

    python3 perfbench/child.py cli <ecsmooth arguments...>
    python3 perfbench/child.py ecm <spec.json> <out.json>
    python3 perfbench/child.py check <spec.json> <out.json>

`cli` runs `ecsmooth.cli.main` exactly as the `ecsmooth` console script
does.  `ecm` is a library caller making `split_step` and `ecm_one_curve`
calls and timing each one.  `check` reads a census cache through the
package's own `OrderCache` and compares a sample of its orders with the
naive point count and BSGS.

Environment: PERFBENCH_SRC is the `src` directory to import from (required);
PERFBENCH_PROBE, if set, receives the moment the import finished;
PERFBENCH_TRACE, if set, is the trace file and turns the tracer on.
"""

from __future__ import annotations

import time

T_START = time.monotonic()

import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import sys  # noqa: E402

from tracer import LAYERS, Tracer  # noqa: E402


def import_layers(src: str) -> dict[str, object]:
    """Import every layer module from `src`, refusing any other copy."""
    sys.path.insert(0, src)
    modules = {name: importlib.import_module(f"ecsmooth.{name}") for name in LAYERS}
    root = os.path.realpath(src) + os.sep
    for mod in modules.values():
        if not os.path.realpath(mod.__file__).startswith(root):
            raise SystemExit(f"perfbench: {mod.__name__} imported from {mod.__file__}, not {src}")
    return modules


def run_ecm(mods, spec: dict, tracer: Tracer | None) -> dict:
    """Time each split_step and each stage-1 curve of the spec.  When
    traced, also count the curves each split tried and the scalar
    multiplications of each stage-1 curve."""
    ecm = mods["ecm"]
    q, g, h = spec["q"], spec["g"], spec["h"]
    uv = ecm.auto_uv(q)
    bound, _ = ecm.EcmParams(uv, uv).bounds(q)
    clock = time.perf_counter
    splits = []
    for seed in spec["split_seeds"]:
        calls0 = tracer.stats["ecm.ecm_one_curve"][0] if tracer else 0
        t0 = clock()
        res = ecm.split_step(q, g, h, uv, uv, seed=seed)
        dt = clock() - t0
        row = {"seed": seed, "s": dt, "e": None, "factor": None, "bound": bound}
        if res is not None:
            row["e"], row["factor"] = res
        if tracer:
            row["attempts"] = tracer.stats["ecm.ecm_one_curve"][0] - calls0
        splits.append(row)
    cat = ecm.catalog_curve("e8000")
    curves = []
    for n in spec["curve_moduli"]:
        steps0 = tracer.stats["curve.ec_scalar_mul"][0] if tracer else 0
        t0 = clock()
        out = ecm.ecm_one_curve(n, cat, spec["curve_u"], spec["curve_v"])
        dt = clock() - t0
        row = {"n": n, "s": dt, "factor": out.factor}
        if tracer:
            row["scalar_steps"] = tracer.stats["curve.ec_scalar_mul"][0] - steps0
        curves.append(row)
    return {"splits": splits, "curves": curves, "disc": cat.curve.disc}


def run_check(mods, spec: dict) -> dict:
    """Compare a seeded sample of cached (p, |E(F_p)|) with the oracles:
    naive_count for p <= naive_max, bsgs_order above."""
    census, ecm, curve = mods["census"], mods["ecm"], mods["curve"]
    cache = census.OrderCache(spec["cache_dir"], workers=1)
    rng = random.Random(spec["seed"])
    orders_total = 0
    mismatches = []
    checked = 0
    for name in spec["curves"]:
        cat = ecm.catalog_curve(name)
        orders = cache.orders(cat, spec["budget"])
        orders_total += len(orders)
        ps = sorted(orders)
        low = [p for p in ps if 5 < p <= spec["naive_max"]]
        high = [p for p in ps if p > spec["naive_max"]]
        for p in rng.sample(low, min(spec["naive_samples"], len(low))):
            checked += 1
            if curve.naive_count(cat.curve, p) != orders[p]:
                mismatches.append([name, p, orders[p], "naive_count"])
        for p in rng.sample(high, min(spec["bsgs_samples"], len(high))):
            checked += 1
            want = curve.bsgs_order(cat.curve, p, samples=4, rng=random.Random(p))
            if want != orders[p]:
                mismatches.append([name, p, orders[p], "bsgs_order"])
    return {"orders": orders_total, "checked": checked, "mismatches": mismatches}


def main() -> int:
    mode, args = sys.argv[1], sys.argv[2:]
    mods = import_layers(os.environ["PERFBENCH_SRC"])
    import_s = time.monotonic() - T_START
    probe = os.environ.get("PERFBENCH_PROBE")
    if probe:
        with open(probe, "w") as fh:
            json.dump({"t_ready": time.monotonic(), "import_s": import_s}, fh)
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        tracer = Tracer(trace_path, mods["census"].CACHE_SEGMENT)
        tracer.install(mods)
        tracer.extra["cli.import_s"] = import_s
    try:
        if mode == "cli":
            return mods["cli"].main(args)
        spec = json.loads(open(args[0]).read())
        result = run_ecm(mods, spec, tracer) if mode == "ecm" else run_check(mods, spec)
        with open(args[1], "w") as fh:
            json.dump(result, fh)
        return 0
    finally:
        sys.stdout.flush()
        if tracer:
            tracer.flush()


if __name__ == "__main__":
    sys.exit(main())
