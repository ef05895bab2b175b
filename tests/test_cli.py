import hashlib
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from ecsmooth import arith, census, cli, cmcount, curve, dickman, ecm, lfunc

from conftest import series_rows

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def _val(n, ell):
    """val_ell(n) by repeated division."""
    v = 0
    while n % ell == 0:
        n //= ell
        v += 1
    return v


def run(argv, capsys):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestTopLevel:
    def test_no_command_usage(self, capsys):
        code, _, _ = run([], capsys)
        assert code == cli.EXIT_USAGE

    def test_unknown_command_usage(self, capsys):
        code, _, _ = run(["frobnicate"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha", "-d", "7", "--ell-bound", "1"],
            ["alpha", "-d", "7", "--p-bound", "1"],
            ["alpha", "-d", "7", "--per-ell", "-3"],
            ["split", "101", "2", "5", "-u", "1.5", "-v", "1.5", "--max-iters", "-1"],
        ],
        ids=["ell-bound", "p-bound", "per-ell", "max-iters"],
    )
    def test_bound_below_minimum(self, capsys, argv):
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: {argv[-2]} must be >= ")

    @pytest.mark.parametrize(
        "argv, named",
        [
            (["split", "2", "1", "1", "--auto"], "--auto needs q >= 3"),
            (["alpha", "--all", "--p-bound", "2"], "--p-bound 2 leaves e1 with no good prime"),
            (["alpha", "-d", "1", "--p-bound", "2"], "--p-bound 2 leaves e1 with no good prime"),
            (["alpha", "-d", "2", "--p-bound", "2"], "--p-bound 2 leaves e8000 with no good prime"),
        ],
        ids=["split-auto-q2", "alpha-all", "alpha-d1", "alpha-d2"],
    )
    def test_refused_before_any_work(self, capsys, monkeypatch, argv, named):
        # these once raised TypeError (a complex u) or DomainError after the
        # prime sums: a traceback or exit 1
        def refuse(*args, **kwargs):
            raise AssertionError(f"computed {args}")

        monkeypatch.setattr(lfunc, "alpha_report", refuse)
        monkeypatch.setattr(ecm, "split_step", refuse)
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: {named}")

    def test_readme_command_lines_parse(self):
        readme = (ROOT / "README.md").read_text()
        blocks = readme.split("```sh\n")[1:]
        lines = [
            line for block in blocks for line in block.split("```")[0].splitlines()
            if line.startswith("ecsmooth ")
        ]
        assert len(lines) >= 8
        parser = cli.build_parser()
        for line in lines:
            parser.parse_args(shlex.split(line)[1:])


# the freeze count at import and when main dispatches census --rho
FREEZE_SCRIPT = """
import gc, sys
from ecsmooth import cli

seen = [gc.get_freeze_count()]
census = cli.cmd_census


def spy(args):
    seen.append(gc.get_freeze_count())
    return census(args)


cli.cmd_census = spy
code = cli.main(["census", "--rho", "--max-u", "1", "--out", sys.argv[1], "--cache-dir", sys.argv[2]])
print(code, seen[0], len(seen) == 2 and seen[1] > 0)
"""


# the freeze count after each of two main calls in one process
TWO_MAINS_SCRIPT = """
import gc, sys
from ecsmooth import cli

counts = []
for out in ("a", "b"):
    cli.main(["census", "--rho", "--max-u", "1", "--out", sys.argv[1] + out, "--cache-dir", sys.argv[2]])
    counts.append(gc.get_freeze_count())
print(*counts)
"""

# which of LAZY are loaded once every layer module is imported, as
# perfbench's child.py does; then main(argv[1:])'s exit code, whether the
# pool's process module is loaded, and which of LAZY are loaded after it
LAZY_IMPORTS_SCRIPT = """
import importlib, sys

LAZY = ("concurrent.futures", "multiprocessing", "fractions", "decimal")


def loaded():
    return [name for name in LAZY if name in sys.modules]


for layer in ("arith", "curve", "cmcount", "census", "ecm", "lfunc", "dickman", "cli"):
    importlib.import_module("ecsmooth." + layer)
print(*loaded())
code = importlib.import_module("ecsmooth.cli").main(sys.argv[1:])
print(code, "concurrent.futures.process" in sys.modules, *loaded())
"""


def _lazy_imports(*argv):
    """(modules of LAZY loaded after the imports, the last line after
    main(argv)) in a fresh interpreter."""
    lines = _fresh_python(LAZY_IMPORTS_SCRIPT, *map(str, argv)).splitlines()
    return lines[0], lines[-1]


def _fresh_python(script, *args, **env):
    """Run script in a fresh interpreter that imports ecsmooth from SRC,
    with env added to (or, for a None value, removed from) the environment;
    returns its stdout."""
    full = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    for key, value in env.items():
        if value is None:
            full.pop(key, None)
        else:
            full[key] = value
    proc = subprocess.run([sys.executable, "-c", script, *args], env=full,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestProcessCost:
    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc/self/task")
    def test_import_starts_no_thread(self):
        # numpy's OpenBLAS started one worker thread at import
        script = "import os, ecsmooth.cli; print(len(os.listdir('/proc/self/task')))"
        assert _fresh_python(script, OPENBLAS_NUM_THREADS=None) == "1\n"

    def test_blas_threads_set_by_the_user_are_kept(self):
        script = "import os, ecsmooth.cli; print(os.environ['OPENBLAS_NUM_THREADS'])"
        assert _fresh_python(script, OPENBLAS_NUM_THREADS="2") == "2\n"

    def test_main_freezes_the_heap_before_dispatch(self, tmp_path):
        # a library caller that never enters main keeps its GC as it is
        out = _fresh_python(FREEZE_SCRIPT, str(tmp_path / "rho"), str(tmp_path / "cache"))
        assert out.splitlines()[-1] == f"{cli.EXIT_OK} 0 True"
        assert (tmp_path / "rho.csv").is_file()

    def test_second_main_freezes_nothing_more(self, tmp_path):
        # the second command's garbage stays collectable
        out = _fresh_python(TWO_MAINS_SCRIPT, str(tmp_path / "rho"), str(tmp_path / "cache"))
        first, second = map(int, out.splitlines()[-1].split())
        assert first > 0 and second == first

    def test_import_loads_no_array(self):
        # the rho table's node array is imported by the first table made
        assert _fresh_python("import sys, ecsmooth.cli; print('array' in sys.modules)") == "False\n"

    def test_rho_loads_no_pool_and_no_fraction(self, tmp_path):
        argv = ["census", "--rho", "--max-u", "1", "--out", tmp_path / "rho", "--cache-dir", tmp_path / "cache"]
        assert _lazy_imports(*argv) == ("", f"{cli.EXIT_OK} False")

    def test_pool_modules_load_only_when_a_pool_forks(self, tmp_path):
        race = ["census", "--race", "e7-e11", "--budget", "300000"]
        pooled, inline = tmp_path / "pooled", tmp_path / "inline"
        # three segments due per curve: one pool of two workers per curve
        _, last = _lazy_imports(*race, "--workers", "2", "--out", pooled / "race", "--cache-dir", pooled / "cache")
        code, forked, *names = last.split()
        assert (code, forked) == (str(cli.EXIT_OK), "True")
        assert "concurrent.futures" in names and "multiprocessing" in names and "fractions" not in names
        _, last = _lazy_imports(*race, "--workers", "1", "--out", inline / "race", "--cache-dir", inline / "cache")
        assert last == f"{cli.EXIT_OK} False"
        files = sorted(f.relative_to(pooled) for f in pooled.rglob("*") if f.is_file())
        assert len(files) == 8  # race.csv, race.json and three segments of each curve
        assert files == sorted(f.relative_to(inline) for f in inline.rglob("*") if f.is_file())
        for f in files:
            assert (pooled / f).read_bytes() == (inline / f).read_bytes(), f
        # warm: no segment due, so no pool
        argv = [*race, "--workers", "2", "--out", tmp_path / "warm", "--cache-dir", pooled / "cache"]
        assert _lazy_imports(*argv) == ("", f"{cli.EXIT_OK} False")
        assert (tmp_path / "warm.csv").read_bytes() == (pooled / "race.csv").read_bytes()

    def test_torsion_check_loads_fractions(self):
        _, last = _lazy_imports("ecm", "10403", "--curve", "e7")
        code, forked, *names = last.split()
        assert (code, forked) == (str(cli.EXIT_USAGE), "False") and "fractions" in names


class TestEcmCommand:
    def test_n35_factor(self, capsys):
        code, out, _ = run(["ecm", "35", "-u", "1.5", "-v", "1.2"], capsys)
        assert code == cli.EXIT_OK
        assert "Factor(" in out
        factor = int(out.split("Factor(")[1].split(")")[0])
        assert factor in (5, 7)

    def test_prime_fails(self, capsys):
        code, out, _ = run(["ecm", "1000000007", "-u", "3", "-v", "1.5"], capsys)
        assert code == cli.EXIT_NEGATIVE
        assert "FAIL" in out

    def test_malformed_n(self, capsys):
        code, _, _ = run(["ecm", "banana"], capsys)
        assert code == cli.EXIT_USAGE

    def test_bad_params(self, capsys):
        code, _, _ = run(["ecm", "35", "-u", "0.5", "-v", "2"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("name, order", [("e7", 2), ("e1", 2), ("e3", 3)])
    def test_torsion_point_refused(self, name, order, capsys):
        # the point's order mod good primes p >= 3 is its order over Q
        cat = ecm.catalog_curve(name)
        for p in (101, 1009):
            A, _ = curve.short_model(cat.curve, p)
            P = curve.short_point(cat.curve, p, cat.point)
            assert min(k for k in range(1, 13) if curve.ec_scalar_mul(p, A, k, P) is None) == order
        code, out, err = run(["ecm", "10403", "--curve", name], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert f"torsion point of order {order}" in err


    def test_scalar_steps_are_the_stage1_scalars(self, capsys):
        # the plan's 76 prime powers
        n = 1000009
        _, c = ecm.EcmParams(2.0, 2.0).bounds(n)
        assert c == 31 and sum(e for _, e in ecm.stage1_exponent_plan(c, n)) == 76
        code, out, _ = run(["ecm", str(n), "-u", "2", "-v", "2"], capsys)
        assert code == cli.EXIT_OK and out.startswith("Factor(293)  B=1000 C=31 scalar_steps=76 ")

    @pytest.mark.parametrize("n", ["1", "0", "-35"])
    def test_n_below_two(self, n, capsys):
        code, out, err = run(["ecm", n], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err == "usage error: N must be >= 2\n"

    @pytest.mark.parametrize(
        "argv", [["ecm", str(2**1024 + 1)], ["split", str(2**1279 - 1), "3", "7", "--auto"]], ids=["ecm", "split"]
    )
    def test_modulus_beyond_float_range(self, argv, capsys):
        # the float bounds B and C once raised OverflowError here, a traceback and exit 1
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith("usage error: a ") and "too large for the float bounds" in err
        assert "Traceback" not in err


class TestPrimeListGuard:
    """Inputs whose prime list would span more than PRIME_LIST_LIMIT
    integers exit 3 before any such window is sieved."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["alpha", "-d", "7", "--ell-bound", "2000000000"],
            ["alpha", "-d", "7", "--per-ell", "2000000000"],
            ["alpha", "-d", "7", "--p-bound", "2000000000"],
            ["ecm", "2147483659", "-u", "1.01", "-v", "1.01"],
        ],
        ids=["ell-bound", "per-ell", "p-bound", "ecm"],
    )
    def test_refused_before_sieving(self, argv, tmp_path, capsys, monkeypatch):
        sieve = arith._sieve

        def small_only(limit, start):
            if limit - max(start, 2) + 1 > arith.PRIME_LIST_LIMIT:
                raise AssertionError(f"_sieve({limit}, {start}) called past the guard")
            return sieve(limit, start)

        monkeypatch.setattr(arith, "_sieve", small_only)
        monkeypatch.chdir(tmp_path)
        if argv[0] == "census":
            argv = argv + ["--cache-dir", str(tmp_path / "cache")]
        code, out, err = run(argv, capsys)
        assert code == cli.EXIT_BUDGET
        assert err.startswith("budget exceeded: prime list over") and "Traceback" not in err
        assert "more than 100000000" in err

    def test_p_bound_edge_refused_before_any_order(self, capsys, monkeypatch):
        # the least --p-bound whose window [2, p_bound] passes PRIME_LIST_LIMIT:
        # refused although the orders would come one segment at a time
        def refuse(*args):
            raise AssertionError(f"order computed: {args}")

        monkeypatch.setattr(cmcount, "order", refuse)
        code, out, err = run(["alpha", "-d", "7", "--p-bound", str(arith.PRIME_LIST_LIMIT + 2)], capsys)
        assert code == cli.EXIT_BUDGET and out == ""
        assert err.startswith("budget exceeded: prime list over [2, 100000002] spans 100000001 integers")

    @pytest.mark.parametrize("per_ell, code", [(10**5 + 1, cli.EXIT_BUDGET), (10**5, cli.EXIT_OK)], ids=["over", "at"])
    def test_per_ell_budget(self, capsys, monkeypatch, per_ell, code):
        # one row per prime ell <= --per-ell: 10^8 once made 5.76 million
        # rows in 1.1 GB; past the budget, refused before any order
        order = cmcount.order
        calls = []
        monkeypatch.setattr(cmcount, "order", lambda *args: calls.append(args) or order(*args))
        got, out, err = run(["alpha", "-d", "7", "--per-ell", str(per_ell)], capsys)
        assert got == code
        if code == cli.EXIT_BUDGET:
            assert out == "" and not calls
            assert err == f"budget exceeded: per_ell_limit={per_ell} exceeds the budget 100000\n"
        else:
            assert out.splitlines()[-1].startswith("  99991  ")


def sieve_spy(monkeypatch, top):
    """Make arith._sieve fail on any limit above top."""
    sieve = arith._sieve

    def bounded(limit, start):
        if limit > top:
            raise AssertionError(f"_sieve({limit}, {start}) above {top}")
        return sieve(limit, start)

    monkeypatch.setattr(arith, "_sieve", bounded)


class TestFriabilityPrimesToSqrt:
    """A friability verdict on n <= N needs only the primes <= sqrt(N), so
    a --y far above the largest n sieves no prime list sized by y."""

    @pytest.mark.parametrize(
        "argv",
        [["--race", "e7-e11"], ["psi_e", "--curve", "e7"]],
        ids=["race", "psi_e"],
    )
    def test_curve_orders(self, argv, tmp_path, capsys, monkeypatch):
        # at --budget 16 every order is <= 16 + 1 + 8 = 25, so --y 26 already
        # accepts them all; the cache is built by that run
        base = ["census", *argv, "--budget", "16", "--cache-dir", str(tmp_path / "cache")]
        code, _, _ = run(base + ["--y", "26", "--out", str(tmp_path / "y26")], capsys)
        assert code == cli.EXIT_OK
        sieve_spy(monkeypatch, math.isqrt(25) + 1)
        code, _, err = run(base + ["--y", "2000000000", "--out", str(tmp_path / "big")], capsys)
        assert code == cli.EXIT_OK, err
        rows = lambda name: json.loads((tmp_path / f"{name}.json").read_text())["rows"]
        assert rows("big") == rows("y26")

    def test_psi(self, tmp_path, capsys, monkeypatch):
        x_max, y = 10**6, 900_000
        primes = arith.prime_sieve(x_max, y)
        sieve_spy(monkeypatch, math.isqrt(x_max) + 1)
        monkeypatch.chdir(tmp_path)
        code, _, err = run(["census", "psi", "--y", str(y), "--budget", str(x_max), "--out", "psi"], capsys)
        assert code == cli.EXIT_OK, err
        rows = json.loads((tmp_path / "psi.json").read_text())["rows"]
        # Buchstab: for y > sqrt(x) an n <= x has at most one prime factor p >= y,
        # to the first power, so Psi(x, y) = x - sum_{y <= p <= x} floor(x/p)
        assert rows == [[x, x - sum(x // p for p in primes if p <= x)] for x, _ in rows]
        assert len(rows) == 17 and rows[-1][0] == x_max


class TestSplitCommand:
    def test_q101(self, capsys):
        code, out, _ = run(["split", "101", "2", "1", "-u", "1.5", "-v", "1.5"], capsys)
        assert code == cli.EXIT_OK
        assert "factor=" in out

    def test_deterministic_transcript(self, capsys):
        args = ["split", "101", "2", "1", "-u", "1.5", "-v", "1.5", "--seed", "9"]
        _, out1, _ = run(args, capsys)
        _, out2, _ = run(args, capsys)
        # identical up to timing
        strip = lambda s: s.split("time=")[0]
        assert strip(out1) == strip(out2)

    def test_composite_q(self, capsys):
        code, _, err = run(["split", "100", "2", "1", "--auto"], capsys)
        assert code == cli.EXIT_USAGE

    def test_missing_uv(self, capsys):
        code, _, _ = run(["split", "101", "2", "1"], capsys)
        assert code == cli.EXIT_USAGE


class TestAlphaCommand:
    def test_single_column(self, capsys):
        code, out, _ = run(["alpha", "-d", "163", "--ell-bound", "100000"], capsys)
        assert code == cli.EXIT_OK
        assert "d=163" in out and "alpha_tilde" in out and "gamma_k" in out

    def test_truncation_warning_flag(self, capsys):
        code, out, _ = run(
            ["alpha", "-d", "7", "--ell-bound", "10", "--p-bound", "100"], capsys
        )
        assert code == cli.EXIT_OK
        assert "WARNING=truncation_guard" in out

    @pytest.mark.parametrize("p_bound, flagged", [(None, True), ("20000", False)], ids=["default", "p-bound"])
    def test_alpha_tilde_truncation_flag(self, capsys, p_bound, flagged):
        # at the default --p-bound 1000 every order is below EMPIRICAL_ELL_BOUND = 10^4;
        # the orders of p <= 20000 reach past it
        code, out, _ = run(["alpha", "-d", "7"] + (["--p-bound", p_bound] if p_bound else []), capsys)
        assert code == cli.EXIT_OK
        footer = out.splitlines()[-1]
        assert footer.startswith("# curves: e7  ell_bound=1000000")
        assert footer.endswith("WARNING=truncation_guard") == flagged

    def test_unknown_d(self, capsys):
        code, _, _ = run(["alpha", "-d", "5"], capsys)
        assert code == cli.EXIT_USAGE

    @pytest.mark.parametrize("d", ["7", "3"])
    def test_p_bound_two_with_a_good_prime(self, capsys, d):
        # e7 and e3 have good reduction at 2, so --p-bound 2 still has one order
        code, out, _ = run(["alpha", "-d", d, "--p-bound", "2", "--csv"], capsys)
        assert code == cli.EXIT_OK
        assert out.startswith(f"row,d={d}\nalpha_tilde,")

    def test_csv_shape(self, capsys):
        code, out, _ = run(
            ["alpha", "-d", "11", "--ell-bound", "100000", "--csv"], capsys
        )
        assert code == cli.EXIT_OK
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        assert lines[0] == "row,d=11"
        assert {l.split(",")[0] for l in lines[1:]} == {
            "alpha_tilde", "alpha", "sigma_k", "gamma_k", "difference"
        }

    def test_per_ell_rows(self, capsys):
        code, out, _ = run(["alpha", "-d", "7", "--ell-bound", "100000", "--per-ell", "20"], capsys)
        assert code == cli.EXIT_OK
        head, block = out.split("\n\n")
        assert "alpha_tilde" in head
        title, *rows = block.strip().splitlines()
        assert title == "d=7 (e7): ell, E[val] theory, avg val observed"
        e7 = ecm.catalog_curve("e7")
        orders = [
            cmcount.order(e7, p) for p in arith.prime_sieve(1000) if e7.curve.has_good_reduction(p)
        ]
        want = []
        for ell in arith.prime_sieve(20):
            mean = sum(_val(n, ell) for n in orders) / len(orders)
            theo = lfunc.expected_valuation_cm(e7.cm_field, ell)
            want.append(f"  {ell:>5}  {theo:.5f}  {mean:.5f}")
        assert rows == want


    @pytest.mark.parametrize(
        "argv, digest",
        [
            ([], "d9537dba5995baa8965eee318b5211a1f5bcf52e86f759bfcb6f4f74641c00f9"),
            (["--p-bound", "100000", "--per-ell", "50"],
             "f3e274f4df0b2b1a7efe67637656aca83fd832280d7b429daf1d9dae9aae8f65"),
        ],
        ids=["default", "p-bound-1e5-per-ell-50"],
    )
    def test_table_digest(self, capsys, argv, digest):
        # the whole table, to the last digit and the footer, pinned by SHA-256
        code, out, _ = run(["alpha", "--all", "--csv", *argv], capsys)
        assert code == cli.EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest, out


class TestCensusCommand:
    def test_rho_dump(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(["census", "--rho", "--max-u", "5", "--rho-step", "0.5"], capsys)
        assert code == cli.EXIT_OK
        csv = (tmp_path / "rho.csv").read_text()
        assert csv.startswith("# rho,")
        obj = json.loads((tmp_path / "rho.json").read_text())
        assert obj["convention"] == census.CONVENTION
        # x=2000 scaled row is rho(2) = 1 - log 2
        row = dict((r[0], r[1]) for r in obj["rows"])
        assert row[2000] == pytest.approx(0.30685281944, abs=1e-9)

    @pytest.mark.parametrize(
        "option",
        [["--rho-step", "-0.5"], ["--rho-step", "0.0005"], ["--max-u", "60"], ["--max-u", "-1"]],
        ids=["negative-step", "step-below-grid", "max-u-above-table", "negative-max-u"],
    )
    def test_rho_bad_input(self, tmp_path, capsys, option):
        args = ["census", "--rho", *option,
                "--cache-dir", str(tmp_path), "--out", str(tmp_path / "r")]
        code, _, err = run(args, capsys)
        assert code == cli.EXIT_USAGE and option[0] in err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("step", ["0", "1e-20"])
    def test_rho_step_below_grid_exits(self, tmp_path, step):
        # in a child process, so that a step that never advances fails here instead of hanging
        path = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "ecsmooth.cli", "census", "--rho", "--rho-step", step,
             "--cache-dir", str(tmp_path), "--out", str(tmp_path / "r")],
            env=env, capture_output=True, text=True, timeout=10,
        )
        assert proc.returncode == cli.EXIT_USAGE and "--rho-step" in proc.stderr

    def test_rho_dump_to_table_end(self, tmp_path, capsys):
        # 500 steps of 0.1 overshoot 50 by rounding; the last row is rho(50)
        args = ["census", "--rho", "--max-u", "50", "--rho-step", "0.1",
                "--cache-dir", str(tmp_path), "--out", str(tmp_path / "r")]
        assert run(args, capsys)[0] == cli.EXIT_OK
        rows = json.loads((tmp_path / "r.json").read_text())["rows"]
        assert rows[-1] == [50000, dickman.rho(50.0)]

    def test_rho_finest_step(self, tmp_path, capsys):
        args = ["census", "--rho", "--max-u", "2", "--rho-step", "0.001",
                "--cache-dir", str(tmp_path), "--out", str(tmp_path / "r")]
        assert run(args, capsys)[0] == cli.EXIT_OK
        rows = json.loads((tmp_path / "r.json").read_text())["rows"]
        assert [x for x, _ in rows] == list(range(2001))

    @pytest.mark.parametrize(
        "cache, out, named",
        [("file", "r", "cache directory"), ("file/cache", "r", "cache directory"), ("cache", "file/r", "--out")],
    )
    def test_unwritable_path_is_a_usage_error(self, tmp_path, capsys, cache, out, named):
        (tmp_path / "file").write_text("")
        args = ["census", "--rho", "--max-u", "1",
                "--cache-dir", str(tmp_path / cache), "--out", str(tmp_path / out)]
        code, _, err = run(args, capsys)
        assert code == cli.EXIT_USAGE
        assert len(err.splitlines()) == 1 and err.startswith(f"usage error: {named} {tmp_path}")

    def test_psi_series(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(
            ["census", "psi", "--y", "10", "--budget", "1000", "--out", "series"], capsys
        )
        assert code == cli.EXIT_OK
        rows = series_rows(tmp_path / "series.json")
        assert rows[-1] == (1000, census.psi_exact(1000, 10))
        # CSV mirrors the JSON rows
        csv_rows = (tmp_path / "series.csv").read_text().strip().splitlines()[2:]
        assert len(csv_rows) == len(rows)

    def test_psi_budget_guard(self, capsys):
        code, out, err = run(
            ["census", "psi", "--y", "10", "--budget", str(census.PSI_BUDGET * 2)], capsys
        )
        assert code == cli.EXIT_BUDGET
        assert out == "" and err.startswith("budget exceeded:")

    def test_race_preset_and_cache_resume(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        args = [
            "census", "--race", "e7-e11", "--y", "128",
            "--budget", "5000", "--cache-dir", str(cache), "--out", "race",
        ]
        code, _, _ = run(args, capsys)
        assert code == cli.EXIT_OK
        first = (tmp_path / "race.csv").read_bytes()
        code, _, _ = run(args, capsys)
        assert code == cli.EXIT_OK
        assert (tmp_path / "race.csv").read_bytes() == first

    def test_psi_e_series_matches_pointwise(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = tmp_path / "cache"
        args = ["census", "psi_e", "--curve", "e11", "--y", "64", "--budget", "3000",
                "--cache-dir", str(cache), "--out", "s"]
        code, _, _ = run(args, capsys)
        assert code == cli.EXIT_OK
        rows = series_rows(tmp_path / "s.json")
        e11 = ecm.catalog_curve("e11")
        ps, _, pplus = census.OrderCache(cache).table(e11, 3000)
        assert [x for x, _ in rows] == cli._checkpoints(3000)
        assert rows == [(x, int(np.count_nonzero((ps <= x) & (pplus < 64)))) for x, _ in rows]

    def test_warm_race_only_loads(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        race = ["census", "--race", "e7-e11", "--y", "128", "--budget", "5000", *cache]
        assert run([*race, "--out", "cold"], capsys)[0] == cli.EXIT_OK

        def refuse(name, lo, hi, *files):
            raise AssertionError(f"{name} segments [{lo}, {hi}) recomputed on a warm cache")

        monkeypatch.setattr(census, "_compute_segment", refuse)
        assert run([*race, "--out", "warm"], capsys)[0] == cli.EXIT_OK
        assert (tmp_path / "warm.csv").read_bytes() == (tmp_path / "cold.csv").read_bytes()
        for kind in (["psi_e", "--curve", "e7"], ["gamma_tilde", "--curve", "e11"]):
            assert run(["census", *kind, "--y", "64", "--budget", "5000", *cache], capsys)[0] == 0

    def test_warm_counts_read_pplus_from_the_cache(self, tmp_path, capsys, monkeypatch):
        # after a cold race, every order and every P+ the warm race, psi_e
        # and gamma_tilde --out need is in the cache: none of them makes an
        # order, runs the P+ kernel or tests friability, and each
        # reproduces its cold output byte for byte
        cache = ["--budget", "300000", "--cache-dir", str(tmp_path / "cache")]

        def census_runs(tag):
            out = {}
            for name, argv in (
                ("race", ["--race", "e7-e11"]),
                ("psi_e", ["psi_e", "--curve", "e7"]),
                ("gamma", ["gamma_tilde", "--curve", "e11", "--y", "10000"]),
            ):
                base = tmp_path / f"{name}_{tag}"
                code, stdout, _ = run(["census", *argv, *cache, "--out", str(base)], capsys)
                files = [base.with_suffix(ext).read_bytes() for ext in (".csv", ".json")]
                out[name] = (code, stdout.replace(str(base), name), files)
            return out

        cold = census_runs("cold")

        def refuse(*args):
            raise AssertionError(f"warm census computed {args}")

        monkeypatch.setattr(cmcount, "cm_order", refuse)
        monkeypatch.setattr(census, "largest_prime_factor", refuse)
        monkeypatch.setattr(census, "_largest_factor_left", refuse)
        monkeypatch.setattr(census.FriabilityTester, "__call__", refuse)
        assert census_runs("warm") == cold
        assert [code for code, _, _ in cold.values()] == [cli.EXIT_OK] * 3

    @pytest.mark.parametrize(
        "command",
        [["--race", "e7-e11"], ["psi_e", "--curve", "e7"], ["gamma_tilde", "--curve", "e11"]],
        ids=["race", "psi_e", "gamma_tilde"],
    )
    @pytest.mark.parametrize("budget", ["0", "1"])
    def test_budget_below_two(self, tmp_path, capsys, command, budget):
        code, _, err = run(
            ["census", *command, "--budget", budget, "--cache-dir", str(tmp_path)], capsys
        )
        assert code == cli.EXIT_USAGE and "--budget" in err

    @pytest.mark.parametrize(
        "command",
        [["--race", "e7-e11"], ["psi_e", "--curve", "e7"], ["gamma_tilde", "--curve", "e11"]],
        ids=["race", "psi_e", "gamma_tilde"],
    )
    def test_budget_above_sieve_limit(self, tmp_path, capsys, monkeypatch, command):
        def refuse(name, lo, hi, *files):
            raise AssertionError(f"{name} segments [{lo}, {hi}) computed past the sieve limit")

        monkeypatch.setattr(census, "_compute_segment", refuse)
        budget = str(arith.SIEVE_LIMIT + 1)
        args = ["census", *command, "--budget", budget, "--cache-dir", str(tmp_path)]
        code, out, err = run(args, capsys)
        assert code == cli.EXIT_BUDGET
        assert out == "" and err.startswith("budget exceeded:")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one(self, tmp_path, capsys, workers):
        args = ["census", "--race", "e7-e11", "--budget", "3000", "--workers", workers,
                "--cache-dir", str(tmp_path)]
        code, _, err = run(args, capsys)
        assert code == cli.EXIT_USAGE and "workers" in err

    def test_workers_below_one_makes_no_cache_dir(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        args = ["census", "--race", "e7-e11", "--budget", "3000", "--workers", "0",
                "--cache-dir", str(cache)]
        assert run(args, capsys)[0] == cli.EXIT_USAGE
        assert not cache.exists()

    @pytest.mark.parametrize(
        "argv", [["--race", "e7-e11"], ["psi_e", "--curve", "e7"]], ids=["race", "psi_e"]
    )
    def test_y_below_two_computes_no_order(self, tmp_path, capsys, argv):
        args = ["census", *argv, "--y", "1", "--budget", "3000",
                "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "s")]
        code, out, err = run(args, capsys)
        assert code == cli.EXIT_USAGE and out == "" and "y=1" in err
        assert list(tmp_path.rglob("*.npy")) == [] and not (tmp_path / "s.json").exists()

    def test_implausible_cache_is_usage_error(self, tmp_path, capsys):
        args = ["census", "psi_e", "--curve", "e7", "--budget", "3000",
                "--cache-dir", str(tmp_path), "--out", str(tmp_path / "s")]
        assert run(args, capsys)[0] == cli.EXIT_OK
        path = census._cache_path(tmp_path, "e7", 0)
        seg = np.load(path)
        seg[5, 1] = 10**6  # far outside the Hasse interval of a small p
        np.save(path, seg)
        code, _, err = run(args, capsys)
        assert code == cli.EXIT_USAGE and str(path) in err and "Hasse" in err

    def test_cache_env_var(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv(cli.CACHE_ENV, str(tmp_path / "envcache"))
        code, _, _ = run(
            ["census", "psi_e", "--curve", "e7", "--y", "64", "--budget", "2000"], capsys
        )
        assert code == cli.EXIT_OK

    def test_gamma_tilde_field(self, tmp_path, capsys, monkeypatch):
        # without --out: the one stdout line, and no file
        work = tmp_path / "work"
        work.mkdir()
        monkeypatch.chdir(work)
        code, out, _ = run(
            ["census", "gamma_tilde", "-d", "7", "--y", "100", "--budget", "10000",
             "--cache-dir", str(tmp_path / "cache")], capsys
        )
        assert code == cli.EXIT_OK
        assert out == "gamma_tilde(d=7, x=10000, y=100, u=2.000) = 0.828948\n"
        assert list(work.iterdir()) == []

    @pytest.mark.parametrize(
        "mode, printed",
        [
            # the x = 2^10, 2^12, ..., 2^18 values of the former convergence script,
            # scripts/run_gamma_tilde.py -d 7 --u 1.5 --budget 1000000 --curve e7
            (["-d", "7"], [0.4708, 0.7036, 0.6456, 0.6167, 0.5844]),
            (["--curve", "e7"], [2.3903, 2.7712, 2.8267, 2.9638, 3.0640]),
        ],
        ids=["field", "curve"],
    )
    def test_gamma_tilde_series(self, tmp_path, capsys, order_cache, mode, printed):
        budget, y = 10**6, 10**4
        args = ["census", "gamma_tilde", *mode, "--y", str(y), "--budget", str(budget),
                "--cache-dir", str(order_cache.cache_dir), "--out", str(tmp_path / "g")]
        code, out, _ = run(args, capsys)
        assert code == cli.EXIT_OK
        rows = series_rows(tmp_path / "g.json")
        u = math.log(budget) / math.log(y)
        if mode[0] == "-d":
            K = arith.field_for(7)
            gamma = lambda x, y_x: census.gamma_tilde_field(K, x, y_x)
            params = {"d": 7, "u": u, "y": y, "reference": 1.0 - lfunc.EULER_GAMMA - lfunc.gamma_k(K)}
        else:
            ps, _, pplus = order_cache.table(ecm.catalog_curve("e7"), budget)
            gamma = lambda x, y_x: census.gamma_tilde_counts(
                int(np.count_nonzero((ps <= x) & (pplus < y_x))), int(np.count_nonzero(ps <= x)), x, y_x)
            params = {"curve": "e7", "u": u, "y": y}
        xs = cli._checkpoints(budget)
        ys = [max(2, round(x ** (1 / u))) for x in xs[:-1]] + [y]
        assert rows == [(x, gamma(x, y_x)) for x, y_x in zip(xs, ys)]
        # the kind and the params too, byte for byte
        want = census.CensusSeries(census.SeriesKind.GAMMA_TILDE, params, rows)
        assert (tmp_path / "g.json").read_text() == want.to_json()
        assert out.splitlines()[0].endswith(f" = {rows[-1][1]:.6f}")
        assert [round(dict(rows)[2**k], 4) for k in (10, 12, 14, 16, 18)] == printed

    def test_gamma_tilde_y_below_two(self, tmp_path, capsys):
        args = ["census", "gamma_tilde", "-d", "7", "--y", "1",
                "--cache-dir", str(tmp_path), "--out", str(tmp_path / "g")]
        code, out, err = run(args, capsys)
        assert code == cli.EXIT_USAGE
        assert out == "" and err.startswith("usage error:") and "Traceback" not in err
        assert not (tmp_path / "g.json").exists()

    @pytest.mark.parametrize(
        "mode, y, budget",
        [(["-d", "7"], "20000000", "10000000"), (["--curve", "e11"], "2000000", "300000"),
         (["--curve", "e11"], "1", "300000"), (["-d", "7"], "1", "300000")],
        ids=["field-above", "curve-above", "curve-below", "field-below"],
    )
    def test_gamma_tilde_bad_y_counts_nothing(self, tmp_path, capsys, monkeypatch, mode, y, budget):
        def refuse(*args):
            raise AssertionError(f"counted {args} with a bad y")

        for name in ("psi_K_friable", "psi_K", "psi_E", "_compute_segment"):
            monkeypatch.setattr(census, name, refuse)
        args = ["census", "gamma_tilde", *mode, "--y", y, "--budget", budget,
                "--cache-dir", str(tmp_path / "cache"), "--out", str(tmp_path / "g")]
        code, out, err = run(args, capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err == "usage error: gamma_tilde needs 2 <= y <= x\n"
        assert list(tmp_path.rglob("*.npy")) == [] and not (tmp_path / "g.json").exists()

    def test_nothing_to_do(self, capsys):
        code, _, _ = run(["census"], capsys)
        assert code == cli.EXIT_USAGE

    def test_bad_race_spec(self, capsys):
        code, _, _ = run(["census", "--race", "e7e11"], capsys)
        assert code == cli.EXIT_USAGE


class TestConfigFile:
    def test_config_fills_defaults(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text("y = 10\nbudget = 500\n# comment\n")
        code, _, _ = run(
            ["--config", str(cfg), "census", "psi", "--out", "cfgd"], capsys
        )
        assert code == cli.EXIT_OK
        assert series_rows(tmp_path / "cfgd.json")[-1] == (500, census.psi_exact(500, 10))

    def test_flag_beats_config(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text("y=10\n")
        for y in (7, 128):  # 128 is the flag's default, typed out
            code, _, _ = run(
                ["--config", str(cfg), "census", "psi", "--y", str(y),
                 "--budget", "300", "--out", "flag"], capsys
            )
            assert code == cli.EXIT_OK
            assert series_rows(tmp_path / "flag.json")[-1] == (300, census.psi_exact(300, y))

    def test_config_bool(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        for value, csv in (("true", True), ("no", False)):
            cfg.write_text(f"csv = {value}\n")
            code, out, _ = run(["--config", str(cfg), "alpha", "-d", "7",
                                "--ell-bound", "1000", "--p-bound", "100"], capsys)
            assert code == cli.EXIT_OK
            assert out.startswith("row,d=7") == csv

    def test_config_bool_refuses_other_values(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("csv = maybe\n")
        code, out, err = run(["--config", str(cfg), "alpha", "-d", "7", "--p-bound", "100"], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: --config {cfg}: key 'csv'")

    def test_unknown_key(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg"
        cfg.write_text("budegt = 100\n")
        code, out, err = run(["--config", str(cfg), "census", "psi"], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: --config {cfg}: key 'budegt'")
        # a key of another subcommand is kept: one file serves them all
        cfg.write_text("csv = yes\nbudget = 100\n")
        code, _, _ = run(["--config", str(cfg), "census", "psi", "--out", "other"], capsys)
        assert code == cli.EXIT_OK
        assert series_rows(tmp_path / "other.json")[-1][0] == 100

    def test_malformed_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("no equals sign here\n")
        code, _, _ = run(["--config", str(cfg), "census", "psi"], capsys)
        assert code == cli.EXIT_USAGE

    def test_config_none_default_float(self, tmp_path, capsys):
        # -u defaults to None; the config value must still be parsed as a float
        cfg = tmp_path / "cfg"
        cfg.write_text("u = 1.5\n")
        code, out, _ = run(["--config", str(cfg), "split", "101", "2", "1", "-v", "1.5"], capsys)
        assert code == cli.EXIT_OK
        assert "u=1.5000" in out

    def test_config_none_default_int(self, tmp_path, capsys):
        # -d defaults to None; the config value must still be parsed as an int
        cfg = tmp_path / "cfg"
        cfg.write_text("d = 7\n")
        code, out, _ = run(
            ["--config", str(cfg), "census", "gamma_tilde", "--y", "100", "--budget", "10000"], capsys
        )
        assert code == cli.EXIT_OK
        assert "gamma_tilde(d=7" in out

    def test_missing_config(self, tmp_path, capsys):
        code, _, err = run(["--config", str(tmp_path / "absent"), "census", "psi"], capsys)
        assert code == cli.EXIT_USAGE
        assert "--config" in err and "absent" in err

    def test_config_not_utf8(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_bytes(b"\xffy = 10\n")
        code, out, err = run(["--config", str(cfg), "census", "psi"], capsys)
        assert code == cli.EXIT_USAGE and out == ""
        assert err.startswith(f"usage error: --config {cfg}: not UTF-8")

    def test_config_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("budget = lots\n")
        code, _, err = run(["--config", str(cfg), "census", "psi"], capsys)
        assert code == cli.EXIT_USAGE
        assert "budget" in err and f"bad value in --config {cfg}" in err
