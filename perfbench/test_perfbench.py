"""Self-tests of the benchmark harness.

    python3 -m pytest -q perfbench

They run the real package at the smoke scale (a few seconds per workload).
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from stats import MIN_BEYOND, percentile, quartile_spread, samples_for, tail_percentile
from tracer import LAYERS, Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


# --- percentiles ---


def test_percentile_nearest_rank():
    xs = list(range(1, 101))
    assert percentile(xs, 0.5) == 50
    assert percentile(xs, 0.9) == 90
    assert percentile(xs, 1.0) == 100
    assert percentile([7.0], 0.5) == 7.0
    with pytest.raises(ValueError):
        percentile([], 0.5)


def test_tail_percentile_needs_ten_beyond():
    assert samples_for(0.9) == 100
    assert samples_for(0.5) == 20
    assert tail_percentile(list(range(100, 0, -1)), 0.9) == 90
    with pytest.raises(ValueError):
        tail_percentile(list(range(99)), 0.9)
    n = samples_for(0.99)
    assert n - -(-n * 99 // 100) == MIN_BEYOND


def test_quartile_spread():
    assert quartile_spread([10.0] * 5) == 0.0
    assert quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx(3.0 / 3.0)


# --- process accounting ---

GRANDCHILD = """
import subprocess, sys
code = "b = bytearray(120 << 20)\\nimport time\\nt = time.process_time()\\nwhile time.process_time() - t < 0.3: pass"
subprocess.run([sys.executable, "-c", code], check=True)
"""


def test_rusage_includes_grandchildren(tmp_path):
    rc, _, _, ru = run.spawn([sys.executable, "-c", GRANDCHILD], tmp_path, None)
    assert rc == 0
    assert ru.ru_utime + ru.ru_stime >= 0.3
    assert ru.ru_maxrss / 1024 >= 120


def test_timeout_kills_the_process_group(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "PROC_TIMEOUT_S", 0.5)
    code = "import subprocess, sys, time; subprocess.Popen([sys.executable, '-c', 'import time; time.sleep(30)']); time.sleep(30)"
    rc, t0, t1, _ = run.spawn([sys.executable, "-c", code], tmp_path, None)
    assert rc != 0 and t1 - t0 < 10


# --- tracer ---


def _layer_modules():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        return {name: importlib.import_module(f"ecsmooth.{name}") for name in LAYERS}
    finally:
        sys.path.remove(str(ROOT / "src"))


def test_wrappers_restore_originals(tmp_path):
    mods = _layer_modules()
    classes = [mods["census"].FriabilityTester, mods["census"].OrderCache, mods["dickman"].RhoTable]
    before = [dict(vars(m)) for m in mods.values()] + [dict(vars(c)) for c in classes]
    tracer = Tracer(str(tmp_path / "trace.jsonl"), mods["census"].CACHE_SEGMENT)
    tracer.install(mods)
    try:
        assert mods["curve"].sw_add is not before[1]["sw_add"]
        assert mods["census"].catalog_curve is not before[3]["catalog_curve"]
        assert mods["census"].FriabilityTester(5)(12) is True
        assert tracer.stats["census.FriabilityTester.__call__"][0] == 1
    finally:
        tracer.uninstall()
    after = [dict(vars(m)) for m in mods.values()] + [dict(vars(c)) for c in classes]
    for b, a in zip(before, after):
        assert b.keys() == a.keys()
        assert all(a[k] is b[k] for k in b)


# --- end to end at the smoke scale ---


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_pass(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--scale", "smoke"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert list(res["metrics"]) == names
    assert all(res["metrics"][n]["value"] > 0 for n in names)


def test_worker_counters_arrive():
    """The traced race runs its segments in pool workers; their counters
    must reach the result, and the run itself checks that cm_order was
    called once per order the cache holds."""
    res = result_of(bench("--workload", "race-cold", "--seed", "5", "--seconds", "1", "--trace", "1", "--scale", "smoke"))
    assert res["correct"], res
    m = {k: v["value"] for k, v in res["metrics"].items()}
    assert list(m) == [x["name"] for x in SPEC["per_layer"]]
    assert m["cmcount.cm_order.calls"] > 0
    assert m["census.segments_computed"] == 6  # 3 segments per curve
    assert m["census.tail_recomputed"] == 2
    assert 0 < m["census.worker_busy_ratio"] <= 1
    assert m["arith.prime_sieve.primes_out"] > 0


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "constants", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
