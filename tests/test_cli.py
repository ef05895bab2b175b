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

    def test_psi_series(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run(
            ["census", "psi", "--y", "10", "--budget", "1000", "--out", "series"], capsys
        )
        assert code == cli.EXIT_OK
        s = census.CensusSeries.from_json((tmp_path / "series.json").read_text())
        assert s.rows[-1] == (1000, census.psi_exact(1000, 10))
        # CSV mirrors the JSON rows
        csv_rows = (tmp_path / "series.csv").read_text().strip().splitlines()[2:]
        assert len(csv_rows) == len(s.rows)

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
        s = census.CensusSeries.from_json((tmp_path / "s.json").read_text())
        e11 = ecm.catalog_curve("e11")
        table = census.OrderCache(cache).table(e11, 3000)
        assert [x for x, _ in s.rows] == cli._checkpoints(3000)
        assert s.rows == [(x, census.psi_E(table, x, 64)) for x, _ in s.rows]

    def test_warm_race_only_loads(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = ["--cache-dir", str(tmp_path / "cache")]
        race = ["census", "--race", "e7-e11", "--y", "128", "--budget", "5000", *cache]
        assert run([*race, "--out", "cold"], capsys)[0] == cli.EXIT_OK

        def refuse(*args):
            raise AssertionError(f"segment {args} recomputed on a warm cache")

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
        def refuse(*args):
            raise AssertionError(f"segment {args} computed past the sieve limit")

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
        text = (tmp_path / "g.json").read_text()
        s = census.CensusSeries.from_json(text)
        assert s.to_json() == text
        assert s.kind is census.SeriesKind.GAMMA_TILDE
        u = math.log(budget) / math.log(y)
        if mode[0] == "-d":
            K = arith.field_for(7)
            gamma = lambda x, y_x: census.gamma_tilde_field(K, x, y_x)
            reference = 1.0 - lfunc.EULER_GAMMA - lfunc.gamma_k(K)
            assert s.params == {"d": 7, "u": u, "y": y, "reference": reference}
        else:
            table = order_cache.table(ecm.catalog_curve("e7"), budget)
            gamma = lambda x, y_x: census.gamma_tilde_curve(table, x, y_x)
            assert s.params == {"curve": "e7", "u": u, "y": y}
        xs = cli._checkpoints(budget)
        ys = [max(2, round(x ** (1 / u))) for x in xs[:-1]] + [y]
        assert s.rows == [(x, gamma(x, y_x)) for x, y_x in zip(xs, ys)]
        assert out.splitlines()[0].endswith(f" = {s.rows[-1][1]:.6f}")
        assert [round(dict(s.rows)[2**k], 4) for k in (10, 12, 14, 16, 18)] == printed

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
        s = census.CensusSeries.from_json((tmp_path / "cfgd.json").read_text())
        assert s.params["y"] == 10
        assert s.rows[-1][0] == 500

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
            s = census.CensusSeries.from_json((tmp_path / "flag.json").read_text())
            assert s.params["y"] == y

    def test_config_bool(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        for value, csv in (("true", True), ("no", False)):
            cfg.write_text(f"csv = {value}\n")
            code, out, _ = run(["--config", str(cfg), "alpha", "-d", "7",
                                "--ell-bound", "1000", "--p-bound", "100"], capsys)
            assert code == cli.EXIT_OK
            assert out.startswith("row,d=7") == csv

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

    def test_config_bad_value(self, tmp_path, capsys):
        cfg = tmp_path / "cfg"
        cfg.write_text("budget = lots\n")
        code, _, err = run(["--config", str(cfg), "census", "psi"], capsys)
        assert code == cli.EXIT_USAGE
        assert "budget" in err and f"bad value in --config {cfg}" in err
