"""The benchmark's tracer (perfbench/tracer.py) wraps package functions by
name and reads some of their arguments by position, and its runner
(perfbench/run.py) passes fixed command lines to the CLI.  These tests read
their source with ast, importing nothing from perfbench, and check that
every name the tracer hooks still exists, that the arguments it reads are
still where it reads them, and that every benchmark command line parses.
The library jobs of perfbench/child.py (`ecm` and `check`) run in a child
process on tiny specs, and their results must pass the checks run.py
applies."""

import ast
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ecsmooth import arith, census, cli, cmcount, curve, dickman, ecm, lfunc

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
RUNNER = TRACER.with_name("run.py")
CHILD = TRACER.with_name("child.py")
ROOT = TRACER.parents[1]
TREE = ast.parse(TRACER.read_text())
MODULES = {m.__name__.rsplit(".", 1)[1]: m for m in (arith, census, cli, cmcount, curve, dickman, ecm, lfunc)}


def assigned(name: str):
    """The literal value of the tracer's module-level assignment to name."""
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{TRACER.name} assigns no {name}")


def post_hook_names() -> list[str]:
    """The keys of the dict that Tracer._post_hooks returns."""
    for node in ast.walk(TREE):
        if isinstance(node, ast.FunctionDef) and node.name == "_post_hooks":
            ret = [n for n in ast.walk(node) if isinstance(n, ast.Return) and isinstance(n.value, ast.Dict)]
            return [ast.literal_eval(k) for k in ret[-1].value.keys]
    raise AssertionError(f"{TRACER.name} defines no _post_hooks")


def resolve(name: str):
    """The object a dotted "layer.attr[.attr]" name refers to, or None."""
    layer, *parts = name.split(".")
    obj = MODULES.get(layer)
    for part in parts:
        obj = vars(obj).get(part) if obj is not None else None
    return obj


def hooked_names() -> list[str]:
    extra = [f"{layer}.{path}" for layer, path in assigned("EXTRA")]
    return extra + list(assigned("_FALLBACKS")) + post_hook_names()


def test_layers_are_the_package_modules():
    assert set(assigned("LAYERS")) == set(MODULES)


@pytest.mark.parametrize("name", hooked_names())
def test_hooked_function_exists(name):
    assert inspect.isfunction(resolve(name)), name


@pytest.mark.parametrize(
    "name, leading",
    [
        ("census._compute_segment", ["curve_name", "seg_lo", "seg_hi"]),  # args[1], args[2]
        ("census._load_segment", ["path"]),  # args[0]
        ("census.OrderCache._write", ["self", "path"]),  # args[1]
        ("census.OrderCache._compute", ["self", "curve_name", "todo"]),  # args[0], args[2]
    ],
)
def test_positional_arguments_read_by_hooks(name, leading):
    assert name in hooked_names()
    params = list(inspect.signature(resolve(name)).parameters)
    assert params[: len(leading)] == leading


def benchmark_command_lines() -> dict[str, list[str]]:
    """Every command line of perfbench/run.py's commands() at each of its
    SCALES, from only those two definitions of its source."""
    tree = ast.parse(RUNNER.read_text())
    keep = [
        node for node in tree.body
        if (isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "SCALES" for t in node.targets))
        or (isinstance(node, ast.FunctionDef) and node.name == "commands")
    ]
    ns = {"Path": Path}
    exec(compile(ast.Module(body=keep, type_ignores=[]), str(RUNNER), "exec"), ns)
    return {
        f"{scale}-{name}": argv
        for scale, cfg in ns["SCALES"].items()
        for name, argv in ns["commands"](cfg, "cache", Path("out"), 0).items()
    }


COMMAND_LINES = benchmark_command_lines()


def test_all_benchmark_command_lines_found():
    assert len(COMMAND_LINES) == 14


@pytest.mark.parametrize("argv", COMMAND_LINES.values(), ids=COMMAND_LINES.keys())
def test_benchmark_command_line_parses(argv):
    try:
        args = cli.build_parser().parse_args(argv)
    except SystemExit:
        pytest.fail(f"the CLI refuses {argv}")
    assert args.command == argv[0]


def run_child(mode: str, spec: dict, tmp_path: Path) -> dict:
    """Run one perfbench/child.py job on the checkout's src, untraced, and
    return its result."""
    spec_path, out_path = tmp_path / f"{mode}.json", tmp_path / f"{mode}.out.json"
    spec_path.write_text(json.dumps(spec))
    env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
    env["PERFBENCH_SRC"] = "src"
    proc = subprocess.run(
        [sys.executable, str(CHILD), mode, str(spec_path), str(out_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(out_path.read_text())


def test_child_ecm_job(tmp_path):
    q, g, h = 2**61 - 1, 3, 7
    n_curve = 786433 * 1398107  # just above 2^40, drawn as run.py's smoke scale draws them
    spec = {"q": q, "g": g, "h": h, "split_seeds": [1, 2], "curve_moduli": [n_curve], "curve_u": 3.0, "curve_v": 2.0}
    res = run_child("ecm", spec, tmp_path)
    assert [row["seed"] for row in res["splits"]] == [1, 2]
    uv = ecm.auto_uv(q)
    for row in res["splits"]:
        assert row["e"] is not None, f"split seed {row['seed']} exhausted its iterations"
        n, f = pow(g, row["e"], q) * h % q, row["factor"]
        assert 1 <= row["e"] < q and 1 < f < n and n % f == 0 and f < row["bound"], row
        assert (row["e"], f) == ecm.split_step(q, g, h, uv, uv, seed=row["seed"])
    [row] = res["curves"]
    f = row["factor"]
    assert row["n"] == n_curve and (f is None or (1 < f < n_curve and n_curve % f == 0))
    assert res["disc"] == ecm.catalog_curve("e8000").curve.disc


def test_child_check_job(tmp_path, capsys):
    cache = tmp_path / "cache"
    argv = ["census", "--cache-dir", str(cache), "--race", "e7-e11", "--budget", "3000", "--out", str(tmp_path / "race")]
    assert cli.main(argv) == cli.EXIT_OK
    capsys.readouterr()
    spec = {
        "cache_dir": str(cache), "curves": ["e7", "e11"], "budget": 3000, "seed": 1,
        "naive_max": 1000, "naive_samples": 2, "bsgs_samples": 4,
    }
    res = run_child("check", spec, tmp_path)
    assert res["mismatches"] == []
    assert res["checked"] == 2 * (2 + 4)
    cats = [ecm.catalog_curve(name).curve for name in spec["curves"]]
    assert res["orders"] == sum(E.has_good_reduction(p) for E in cats for p in arith.prime_sieve(3000))


@pytest.mark.parametrize("name", ["e7", "e11"])
def test_one_cm_order_call_per_order(name, tmp_path, monkeypatch):
    # the traced race-cold run checks that cmcount.cm_order calls equal the
    # orders produced, so every CM order goes through one cm_order call
    calls = []
    cm_order = cmcount.cm_order

    def counted(cat, p):
        calls.append(p)
        return cm_order(cat, p)

    monkeypatch.setattr(cmcount, "cm_order", counted)
    cat = ecm.catalog_curve(name)
    primes = census.OrderCache(tmp_path, workers=1).table(cat, 3 * 10**5)[0]
    assert len(calls) == len(primes) and calls == primes.tolist()
    calls.clear()
    assert len(census.OrderCache(tmp_path, workers=1).table(cat, 3 * 10**5)[0]) == len(primes)
    assert calls == []
