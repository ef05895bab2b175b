"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/sweep.py --workloads race-cold,ecm --seeds 1-10 \\
        --trace 0 --out sweep.json

For every workload and metric it prints the median, the quartiles and the
quartile spread (Q3 - Q1 over the median) of the per-seed values, next to
the metric's bound from BENCHMARK.json.  --out keeps every run's result
and provenance lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from stats import quartile_spread

ROOT = Path(__file__).resolve().parent.parent


def seeds_of(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out")
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True,
            )
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                return 1
            info, result = (json.loads(ln) for ln in proc.stdout.splitlines()[-2:])
            runs.append({"seed": seed, "info": info, "result": result})
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = quartile_spread(values) if len(values) > 1 else 0.0
            summary[name] = {"median": q2, "q1": q1, "q3": q3, "spread": spread}
            if name in bounds:
                print(f"{workload:12s} {name:14s} median {q2:10.4f}  spread {spread:6.3f}"
                      f"  bound {bounds[name]}")
        record[workload] = {"summary": summary, "runs": runs}
    if args.out:
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
