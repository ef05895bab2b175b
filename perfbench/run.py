"""The ecsmooth benchmark: four workloads, end to end and per layer.

    python3 perfbench/run.py --workload race-cold --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  Every ecsmooth process is a fresh
interpreter started through perfbench/child.py, importing the checkout's
`src`; this process imports only the standard library.  A run repeats the
workload's cycle until --seconds have passed (and until the cycle count a
workload needs for its percentiles), checks every output against the golden
values or an oracle, and prints as its last line one JSON object with
`correct`, `attempted`, `failed` and `metrics`.

--trace 0 reports the end-to-end metrics: medians over cycles of setup,
wall and CPU time, and the peak RSS of any process.  --trace 1 runs the same
untraced cycles, then one traced cycle, and reports the per-layer metrics.
The line before the result holds the run's provenance (core count, source
revision, Python and numpy versions, seed) and the raw samples.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from stats import percentile, samples_for, tail_percentile
from tracer import layer_metrics, merge

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
GOLDEN_DIR = HERE / "golden"
PROC_TIMEOUT_S = 170

GAMMA_TOL = 2e-6  # gamma_tilde is printed with 6 decimals
ALPHA_TOL = 1e-5  # absolute, on every cell of `alpha --all --csv`
RHO_REL_TOL = 1e-9

SCALES = {
    # the sizes the benchmark measures
    "full": dict(
        race_budget=10**6, y=128, workers=2, gt_y=10**4,
        alpha_args=[], psi_budget=10**7, gt_d_budget=10**7, max_u=20,
        q=2**127 - 1, splits_per_cycle=10, curve_bits=79,
        naive_max=10**5, naive_samples=4, bsgs_samples=24,
    ),
    # a pass of a few seconds per workload, for the self-tests
    "smoke": dict(
        race_budget=300_000, y=128, workers=2, gt_y=10**3,
        alpha_args=["--ell-bound", "20000"], psi_budget=10**5, gt_d_budget=10**5, max_u=5,
        q=2**61 - 1, splits_per_cycle=50, curve_bits=40,
        naive_max=10**4, naive_samples=2, bsgs_samples=4,
    ),
}
SPLIT_G, SPLIT_H = 3, 7
CURVE_U, CURVE_V = 3.0, 2.0
MIN_SPLITS = samples_for(0.9)  # so that split_ms_p90 has 10 samples beyond it


def commands(cfg: dict, cache: str, out: Path, seed: int) -> dict[str, list[str]]:
    """The ecsmooth command lines of the workloads, by output name.  Every
    census command gets the run-private cache directory."""
    census = ["census", "--cache-dir", cache, "--seed", str(seed)]
    race = ["--race", "e7-e11", "--y", str(cfg["y"]), "--budget", str(cfg["race_budget"])]
    return {
        "race": census + race + ["--workers", str(cfg["workers"]), "--out", str(out / "race")],
        "psi_e": census + ["psi_e", "--curve", "e7", "--y", str(cfg["y"]),
                           "--budget", str(cfg["race_budget"]), "--out", str(out / "psi_e")],
        "gamma_tilde_e11": census + ["gamma_tilde", "--curve", "e11", "--y", str(cfg["gt_y"]),
                                     "--budget", str(cfg["race_budget"])],
        "alpha": ["alpha", "--all", "--csv", *cfg["alpha_args"]],
        "psi": census + ["psi", "--y", "100", "--budget", str(cfg["psi_budget"]),
                         "--out", str(out / "psi")],
        "gamma_tilde_d7": census + ["gamma_tilde", "-d", "7", "--y", str(cfg["gt_y"]),
                                    "--budget", str(cfg["gt_d_budget"])],
        "rho": census + ["--rho", "--max-u", str(cfg["max_u"]), "--out", str(out / "rho")],
    }


WORKLOAD_COMMANDS = {
    "race-cold": ["race"],
    "census-warm": ["race", "psi_e", "gamma_tilde_e11"],
    "constants": ["alpha", "psi", "gamma_tilde_d7", "rho"],
}


# --- reading outputs ---


def read_series(path: Path, kind=int) -> list[list]:
    rows = []
    for line in path.read_text().splitlines():
        if line.startswith("#") or line == "x,value":
            continue
        x, v = line.split(",")
        rows.append([int(x), kind(v)])
    return rows


def read_gamma(stdout: str) -> float:
    return float(stdout.strip().splitlines()[-1].rsplit("=", 1)[1])


def read_alpha(stdout: str) -> dict:
    lines = [ln for ln in stdout.splitlines() if ln and not ln.startswith("#")]
    table = {"columns": lines[0].split(",")[1:], "rows": {}}
    for line in lines[1:]:
        name, *vals = line.split(",")
        table["rows"][name] = [float(v) for v in vals]
    return table


def read_output(name: str, out_dir: Path, stdout: str):
    """The checked value of one command's output."""
    if name in ("race", "psi_e", "psi"):
        return read_series(out_dir / f"{name}.csv")
    if name == "rho":
        return read_series(out_dir / "rho.csv", float)
    if name == "alpha":
        return read_alpha(stdout)
    return read_gamma(stdout)


def output_matches(name: str, got, want) -> bool:
    if name in ("race", "psi_e", "psi"):
        return got == want
    if name == "rho":
        return len(got) == len(want) and all(
            gx == wx and math.isclose(gv, wv, rel_tol=RHO_REL_TOL, abs_tol=1e-300)
            for (gx, gv), (wx, wv) in zip(got, want)
        )
    if name == "alpha":
        return (
            got["columns"] == want["columns"]
            and got["rows"].keys() == want["rows"].keys()
            and all(
                len(got["rows"][k]) == len(v)
                and all(abs(a - b) <= ALPHA_TOL for a, b in zip(got["rows"][k], v))
                for k, v in want["rows"].items()
            )
        )
    return abs(got - want) <= GAMMA_TOL


# --- processes ---


@dataclass
class Proc:
    rc: int
    setup_s: float  # spawn until ecsmooth is imported
    wall_s: float  # import done until exit
    cpu_s: float  # user + system, the process and all its children
    rss_mb: float  # largest RSS of the process or any of its children
    stdout: str


def spawn(argv: list[str], cwd: Path, env: dict | None, out=None, err=None):
    """Run argv in its own session and wait for it with wait4, which gives
    the resource usage of the process and of every descendant it waited
    for.  Kill whatever is left in its process group, and the whole group
    after PROC_TIMEOUT_S.  Returns (exit code, start, end, rusage)."""
    t0 = time.monotonic()
    p = subprocess.Popen(
        argv, cwd=cwd, env=env, start_new_session=True,
        stdout=out or subprocess.DEVNULL, stderr=err or subprocess.DEVNULL,
    )
    timer = threading.Timer(PROC_TIMEOUT_S, _kill_group, (p.pid,))
    timer.start()
    try:
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
        t1 = time.monotonic()
        _kill_group(p.pid)
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, t0, t1, ru


def run_child(ctx: "Context", args: list[str], trace: Path | None = None) -> Proc:
    """Run one child.py job; setup ends when the child reports ecsmooth
    imported, wall time runs from there to its exit."""
    ctx.nproc += 1
    tag = ctx.tmp / f"p{ctx.nproc}"
    probe = tag.with_suffix(".probe")
    env = dict(ctx.env, PERFBENCH_PROBE=str(probe))
    if trace is not None:
        env["PERFBENCH_TRACE"] = str(trace)
    with open(tag.with_suffix(".out"), "wb") as out, open(tag.with_suffix(".err"), "wb") as err:
        rc, t0, t1, ru = spawn([sys.executable, str(CHILD), *args], ctx.tmp, env, out, err)
    ready = json.loads(probe.read_text())["t_ready"] if probe.exists() else t1
    return Proc(
        rc=rc,
        setup_s=ready - t0,
        wall_s=t1 - ready,
        cpu_s=ru.ru_utime + ru.ru_stime,
        rss_mb=ru.ru_maxrss / 1024,
        stdout=tag.with_suffix(".out").read_text(),
    )


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        pass


# --- runs and cycles ---


@dataclass
class Cycle:
    setup_s: float = 0.0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    data: dict = field(default_factory=dict)

    def add(self, proc: Proc) -> None:
        self.setup_s += proc.setup_s
        self.wall_s += proc.wall_s
        self.cpu_s += proc.cpu_s
        self.rss_mb = max(self.rss_mb, proc.rss_mb)


@dataclass
class Context:
    workload: str
    seed: int
    scale: str
    root: Path
    tmp: Path
    env: dict
    cfg: dict
    golden: dict
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    nproc: int = 0
    ecm_rng: random.Random | None = None
    ecm_moduli: list = field(default_factory=list)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def cli_cycle(ctx: Context, i: int, trace: Path | None) -> Cycle:
    cyc = Cycle()
    out = ctx.tmp / f"out{i}"
    out.mkdir()
    cache = ctx.tmp / f"cache{i}"
    if ctx.workload == "census-warm":
        t0 = time.monotonic()
        shutil.copytree(ctx.tmp / "warm-fixture", cache)
        cyc.setup_s += time.monotonic() - t0
    cmds = commands(ctx.cfg, str(cache), out, ctx.seed)
    for name in WORKLOAD_COMMANDS[ctx.workload]:
        proc = run_child(ctx, ["cli", *cmds[name]], trace)
        cyc.add(proc)
        want = ctx.golden[name]
        ctx.check(proc.rc == want["rc"], f"{name}: exit code {proc.rc}, want {want['rc']}")
        if proc.rc == want["rc"]:
            got = read_output(name, out, proc.stdout)
            ctx.check(output_matches(name, got, want["value"]), f"{name}: output differs from golden")
    shutil.rmtree(out)
    if ctx.workload != "race-cold" or trace is not None:
        shutil.rmtree(cache)
    else:
        cyc.data["cache"] = str(cache)
    return cyc


def next_prime(n: int) -> int:
    n = max(n, 2)
    while not is_probable_prime(n):
        n += 1
    return n


def is_probable_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases: deterministic below
    3.3e24, far above the fixture sizes."""
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n in bases:
        return True
    if any(n % b == 0 for b in bases):
        return False
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def ecm_inputs(ctx: Context) -> None:
    """Seeded split seeds and stage-1 moduli.  Each modulus is a product of
    two primes of about curve_bits/2 bits just above 2^curve_bits, so every
    stage-1 curve has the same bound C."""
    rng = random.Random(f"ecm-{ctx.seed}")
    bits = ctx.cfg["curve_bits"]
    target = 1 << bits
    moduli = []
    for _ in range(64):
        p = next_prime(rng.randrange(1 << (bits // 2), 1 << (bits // 2 + 1)))
        moduli.append(p * next_prime(-(-target // p)))
    ctx.ecm_rng = rng
    ctx.ecm_moduli = moduli


def ecm_cycle(ctx: Context, i: int, trace: Path | None) -> Cycle:
    cfg = ctx.cfg
    spec = {
        "q": cfg["q"], "g": SPLIT_G, "h": SPLIT_H,
        "split_seeds": [ctx.ecm_rng.randrange(1 << 32) for _ in range(cfg["splits_per_cycle"])],
        "curve_moduli": [ctx.ecm_moduli[i % len(ctx.ecm_moduli)]],
        "curve_u": CURVE_U, "curve_v": CURVE_V,
    }
    spec_path, out_path = ctx.tmp / f"ecm{i}.json", ctx.tmp / f"ecm{i}.out.json"
    spec_path.write_text(json.dumps(spec))
    proc = run_child(ctx, ["ecm", str(spec_path), str(out_path)], trace)
    cyc = Cycle(setup_s=proc.setup_s, cpu_s=proc.cpu_s, rss_mb=proc.rss_mb)
    ctx.check(proc.rc == 0, f"ecm child exit code {proc.rc}")
    if proc.rc != 0:
        return cyc
    res = json.loads(out_path.read_text())
    q, disc = cfg["q"], res["disc"]
    for row in res["splits"]:
        if row["e"] is None:
            ctx.check(False, f"split seed {row['seed']} exhausted its iterations")
            continue
        n = pow(SPLIT_G, row["e"], q) * SPLIT_H % q
        f = row["factor"]
        ctx.check(
            1 <= row["e"] < q and 1 < f < n and n % f == 0 and f < row["bound"],
            f"split seed {row['seed']}: factor {f} of n={n} is not a factor below B",
        )
        g = math.gcd(n, disc)
        row["gcd_shortcut"] = 1 < g < n
    for row in res["curves"]:
        f, n = row["factor"], row["n"]
        ctx.check(f is None or (1 < f < n and n % f == 0), f"curve on n={n}: bad factor {f}")
    cyc.wall_s = sum(r["s"] for r in res["splits"]) + sum(r["s"] for r in res["curves"])
    cyc.data = res
    return cyc


def prepare(ctx: Context) -> None:
    """Untimed, once per run: warm the bytecode cache of the checkout, and
    build the workload's run-level fixtures."""
    proc = run_child(ctx, ["cli", "--help"])
    if proc.rc != 0:
        raise SystemExit("perfbench: cannot import ecsmooth from the checkout")
    if ctx.workload == "census-warm":
        fixture = str(ctx.tmp / "warm-fixture")
        cmd = commands(ctx.cfg, fixture, ctx.tmp, ctx.seed)["race"]
        proc = run_child(ctx, ["cli", *cmd])
        ctx.check(proc.rc == ctx.golden["race"]["rc"], "warm fixture: race failed")
    if ctx.workload == "ecm":
        ecm_inputs(ctx)


def oracle_check(ctx: Context, cache: str) -> int:
    """Sample the race-cold cache against naive_count and bsgs_order;
    returns the number of orders the cache holds."""
    cfg = ctx.cfg
    spec = {
        "cache_dir": cache, "curves": ["e7", "e11"], "budget": cfg["race_budget"],
        "seed": ctx.seed, "naive_max": cfg["naive_max"],
        "naive_samples": cfg["naive_samples"], "bsgs_samples": cfg["bsgs_samples"],
    }
    spec_path, out_path = ctx.tmp / "check.json", ctx.tmp / "check.out.json"
    spec_path.write_text(json.dumps(spec))
    proc = run_child(ctx, ["check", str(spec_path), str(out_path)])
    ctx.check(proc.rc == 0, f"oracle check exit code {proc.rc}")
    if proc.rc != 0:
        return 0
    res = json.loads(out_path.read_text())
    ctx.attempted += res["checked"] - len(res["mismatches"])
    for name, p, n, oracle in res["mismatches"]:
        ctx.check(False, f"{name}: cached |E(F_{p})| = {n} disagrees with {oracle}")
    return res["orders"]


def measure(ctx: Context, seconds: float, cycle_fn, min_cycles: int) -> list[Cycle]:
    cycles = []
    t0 = time.monotonic()
    while len(cycles) < min_cycles or time.monotonic() - t0 < seconds:
        cycles.append(cycle_fn(ctx, len(cycles), None))
    return cycles


def end_to_end(cycles: list[Cycle]) -> dict[str, float]:
    return {
        "setup_s": statistics.median(c.setup_s for c in cycles),
        "wall_s": statistics.median(c.wall_s for c in cycles),
        "cpu_s": statistics.median(c.cpu_s for c in cycles),
        "peak_rss_mb": max(c.rss_mb for c in cycles),
    }


def traced_metrics(ctx: Context, cycle_fn, untraced: list[Cycle], orders: int) -> dict:
    """Run one traced cycle and derive the per-layer metrics: counters from
    the traced cycle, latencies from the untraced ones."""
    trace = ctx.tmp / "trace.jsonl"
    cyc = cycle_fn(ctx, len(untraced), trace)
    lines = [json.loads(ln) for ln in trace.read_text().splitlines()] if trace.exists() else []
    m = layer_metrics(merge(lines))
    m["cli.import_s"] = sum(ln["extra"].get("cli.import_s", 0.0) for ln in lines)
    m["trace.overhead_s"] = cyc.wall_s - statistics.median(c.wall_s for c in untraced)
    if ctx.workload == "race-cold":
        ctx.check(
            m["cmcount.cm_order.calls"] == orders,
            f"traced cm_order calls {m['cmcount.cm_order.calls']} != {orders} orders produced",
        )
    m["orders_per_s"] = orders / statistics.median(c.wall_s for c in untraced) if orders else 0.0
    m.update(ecm_metrics(untraced, cyc) if ctx.workload == "ecm" else EMPTY_ECM)
    return m


EMPTY_ECM = dict.fromkeys(
    [
        "split_ms_p50", "split_ms_p90", "ecm_curve_s_p50", "split_success_ratio",
        "ecm.attempts_per_success", "ecm.success.gcd_shortcut", "ecm.success.stage1",
        "ecm.stage1.scalar_steps",
    ],
    0.0,
)


def ecm_metrics(untraced: list[Cycle], traced: Cycle) -> dict:
    splits = [r for c in untraced for r in c.data["splits"]]
    ok = [r for r in splits if r["e"] is not None]
    t_splits = [r for r in traced.data["splits"] if r["e"] is not None]
    t_curves = traced.data["curves"]
    return {
        "split_ms_p50": 1e3 * percentile(sorted(r["s"] for r in splits), 0.5),
        "split_ms_p90": 1e3 * tail_percentile([r["s"] for r in splits], 0.9),
        "ecm_curve_s_p50": statistics.median(r["s"] for c in untraced for r in c.data["curves"]),
        "split_success_ratio": len(ok) / len(splits),
        "ecm.attempts_per_success": sum(r["attempts"] for r in traced.data["splits"])
        / max(1, len(t_splits)),
        "ecm.success.gcd_shortcut": sum(1 for r in t_splits if r["gcd_shortcut"]),
        "ecm.success.stage1": sum(1 for r in t_splits if not r["gcd_shortcut"]),
        "ecm.stage1.scalar_steps": sum(r["scalar_steps"] for r in t_curves) / len(t_curves),
    }


# --- provenance ---


def provenance(ctx: Context) -> dict:
    root = ctx.root
    src = root / "src" / "ecsmooth"
    digest = hashlib.sha256()
    for path in sorted(src.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    rev = None
    if (root / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "-C", str(root), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            rev = None
    numpy_version = subprocess.run(
        [sys.executable, "-c", "import numpy; print(numpy.__version__)"],
        capture_output=True, text=True, timeout=60, cwd=ctx.tmp,
    ).stdout.strip()
    return {
        "workload": ctx.workload, "seed": ctx.seed, "scale": ctx.scale,
        "cores": os.cpu_count(), "git_rev": rev, "src_sha256": digest.hexdigest(),
        "python": sys.version.split()[0], "numpy": numpy_version,
    }


# --- main ---


CYCLES = {"race-cold": cli_cycle, "census-warm": cli_cycle, "constants": cli_cycle, "ecm": ecm_cycle}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: str, root: Path) -> dict:
    src = root / "src"
    if not (src / "ecsmooth" / "cli.py").is_file():
        raise SystemExit(f"perfbench: no ecsmooth sources under {src}")
    tmp = root / ".bench_build" / f"perfbench-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "ECSMOOTH_CACHE_DIR"}
    env["PERFBENCH_SRC"] = str(src)
    golden = json.loads((GOLDEN_DIR / f"{scale}.json").read_text())
    ctx = Context(workload, seed, scale, root, tmp, env, SCALES[scale], golden)
    try:
        prepare(ctx)
        cycle_fn = CYCLES[workload]
        min_cycles = 1
        if workload == "ecm":
            min_cycles = -(-MIN_SPLITS // ctx.cfg["splits_per_cycle"])
        cycles = measure(ctx, seconds, cycle_fn, min_cycles)
        orders = 0
        if workload == "race-cold":
            orders = oracle_check(ctx, cycles[-1].data["cache"])
        if trace:
            metrics = traced_metrics(ctx, cycle_fn, cycles, orders)
            metrics["error_ratio"] = ctx.failed / ctx.attempted
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(cycles)
            units = END_TO_END_UNITS
        info = provenance(ctx)
        info["cycles"] = [
            {"setup_s": c.setup_s, "wall_s": c.wall_s, "cpu_s": c.cpu_s, "rss_mb": c.rss_mb}
            for c in cycles
        ]
        info["problems"] = ctx.problems
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return {
        "info": info,
        "result": {
            "correct": ctx.failed == 0,
            "attempted": ctx.attempted,
            "failed": ctx.failed,
            "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        },
    }


def _units(section: str) -> dict[str, str]:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


END_TO_END_UNITS = _units("end_to_end")
PER_LAYER_UNITS = _units("per_layer")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(CYCLES))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind so that the running child's group is killed and
    # the run directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.scale, HERE.parent)
    print(json.dumps(out["info"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
