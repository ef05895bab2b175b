"""Write the golden outputs the benchmark checks against.

    python3 perfbench/make_golden.py full
    python3 perfbench/make_golden.py smoke

Runs every workload command once with the checkout's ecsmooth and stores
exit code and checked value in perfbench/golden/<scale>.json.  The values
are only as right as the code that produced them: regenerate them only
for a deliberate change of output, and say so where the change is recorded.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

from run import GOLDEN_DIR, HERE, SCALES, Context, commands, read_output, run_child


def main(scale: str) -> int:
    root = HERE.parent
    tmp = root / ".bench_build" / f"golden-{os.getpid()}"
    tmp.mkdir(parents=True)
    env = {k: v for k, v in os.environ.items() if k != "ECSMOOTH_CACHE_DIR"}
    env["PERFBENCH_SRC"] = str(root / "src")
    ctx = Context("golden", 0, scale, root, tmp, env, SCALES[scale], {})
    golden = {}
    try:
        cmds = commands(ctx.cfg, str(tmp / "cache"), tmp, seed=0)
        for name, argv in cmds.items():
            proc = run_child(ctx, ["cli", *argv])
            golden[name] = {"rc": proc.rc, "value": read_output(name, tmp, proc.stdout)}
            print(f"{name}: rc={proc.rc}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    GOLDEN_DIR.mkdir(exist_ok=True)
    entries = ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}" for k, v in golden.items())
    (GOLDEN_DIR / f"{scale}.json").write_text("{\n" + entries + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
