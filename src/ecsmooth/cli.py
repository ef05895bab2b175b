"""Command-line front end.

Subcommands: ecm (one-curve stage 1), split (NFS splitting step), alpha (the
constants table), census (counting experiments, CSV/JSON emission).

Exit codes: 0 success, 1 negative result (FAIL / exhaustion / race violation),
2 usage error, 3 budget exceeded.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import time
import warnings
from pathlib import Path

from . import arith, census, dickman, ecm, lfunc
from .errors import CapacityError, EcsmoothError, UsageError

CACHE_ENV = "ECSMOOTH_CACHE_DIR"
DEFAULT_CACHE = "~/.cache/ecsmooth"

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3

RHO_X_SCALE = 1000  # census --rho writes rho(u) at x = round(RHO_X_SCALE * u)

CM_CURVE_BY_D = {c.cm_d: c.name for c in ecm.curve_catalog() if c.cm_d is not None}


def _load_config(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise UsageError(f"--config {path}: {exc.strerror}") from exc
    cfg = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"config line without '=': {raw!r}")
        k, v = line.split("=", 1)
        cfg[k.strip().replace("-", "_")] = v.strip()
    return cfg


def _config_defaults(p: argparse.ArgumentParser, cfg: dict[str, str]) -> None:
    """Make the config values defaults of subcommand p, so that any flag
    typed on the command line beats them; argparse converts each through
    the option's own type."""
    p.set_defaults(**{
        a.dest: cfg[a.dest].lower() in ("1", "true", "yes") if isinstance(a.default, bool) else cfg[a.dest]
        for a in p._actions if a.dest in cfg
    })


def _cache_dir(args) -> str:
    if getattr(args, "cache_dir", None):
        return args.cache_dir
    return os.environ.get(CACHE_ENV, os.path.expanduser(DEFAULT_CACHE))


def cmd_ecm(args) -> int:
    cat = ecm.catalog_curve(args.curve)
    t0 = time.perf_counter()
    out = ecm.ecm_one_curve(args.n, cat, args.u, args.v, exact_m=args.exact_m)
    dt = time.perf_counter() - t0
    b, c = ecm.EcmParams(args.u, args.v).bounds(args.n)
    ops = sum(e for _, e in ecm.stage1_exponent_plan(c, args.n))
    if out.ok:
        print(f"Factor({out.factor})  B={b} C={c} scalar_steps={ops} time={dt:.3f}s")
        return EXIT_OK
    print(f"FAIL  B={b} C={c} scalar_steps={ops} time={dt:.3f}s")
    return EXIT_NEGATIVE


def cmd_split(args) -> int:
    if not arith.is_prime(args.q):
        raise UsageError(f"q={args.q} is not prime")
    if args.max_iters < 1:
        raise UsageError(f"--max-iters must be >= 1, got {args.max_iters}")
    u = v = ecm.auto_uv(args.q) if args.auto else None
    if not args.auto:
        if args.u is None or args.v is None:
            raise UsageError("provide -u and -v, or --auto")
        u, v = args.u, args.v
    t0 = time.perf_counter()
    res = ecm.split_step(args.q, args.g, args.h, u, v, seed=args.seed, max_iters=args.max_iters)
    dt = time.perf_counter() - t0
    if res is None:
        print(f"EXHAUSTED after {args.max_iters} iterations  u={u:.4f} v={v:.4f} time={dt:.3f}s")
        return EXIT_NEGATIVE
    e, factor = res
    n = pow(args.g, e, args.q) * args.h % args.q
    print(f"e={e} n={n} factor={factor}  u={u:.4f} v={v:.4f} time={dt:.3f}s")
    return EXIT_OK


def _alpha_columns(ds, ell_bound, p_bound, per_ell):
    return [
        lfunc.alpha_report(
            ecm.catalog_curve(CM_CURVE_BY_D[d]), ell_bound=ell_bound, p_bound=p_bound, per_ell_limit=per_ell
        )
        for d in ds
    ]


def cmd_alpha(args) -> int:
    ds = sorted(CM_CURVE_BY_D) if args.all else [args.d]
    if not args.all and args.d not in CM_CURVE_BY_D:
        raise UsageError(f"unknown discriminant d={args.d}")
    for flag, value, least in (("--ell-bound", args.ell_bound, 2), ("--p-bound", args.p_bound, 2),
                               ("--per-ell", args.per_ell, 0)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cols = _alpha_columns(ds, args.ell_bound, args.p_bound, args.per_ell)
        flagged = any(issubclass(w.category, lfunc.TruncationWarning) for w in caught)
    rows = [
        ("alpha_tilde", [c.alpha_tilde for c in cols]),
        ("alpha", [c.alpha for c in cols]),
        ("sigma_k", [c.sigma_k for c in cols]),
        ("gamma_k", [c.gamma_k for c in cols]),
        ("difference", [c.difference for c in cols]),
    ]
    if args.csv:
        print("row," + ",".join(f"d={d}" for d in ds))
        for name, vals in rows:
            print(name + "," + ",".join(f"{v:.6f}" for v in vals))
    else:
        head = "{:<12}".format("") + "".join(f"{('d='+str(d)):>10}" for d in ds)
        print(head)
        for name, vals in rows:
            print("{:<12}".format(name) + "".join(f"{v:>10.3f}" for v in vals))
    print(f"# curves: {','.join(CM_CURVE_BY_D[d] for d in ds)}"
          f"  ell_bound={args.ell_bound} p_bound={args.p_bound}"
          "  difference=alpha_tilde-alpha(alpha_tilde_estimates_-alpha)"
          + ("  WARNING=truncation_guard" if flagged else ""))
    if args.per_ell:
        for c in cols:
            print(f"\nd={c.field_d} ({c.curve_name}): ell, E[val] theory, avg val observed")
            for ell, theo, emp in c.per_ell:
                print(f"  {ell:>5}  {theo:.5f}  {emp:.5f}")
    return EXIT_OK


def _write_series(series: census.CensusSeries, out_base: str) -> None:
    Path(out_base + ".csv").write_text(series.to_csv())
    Path(out_base + ".json").write_text(series.to_json())
    print(f"wrote {out_base}.csv and {out_base}.json ({len(series.rows)} rows)")


def cmd_census(args) -> int:
    cache = census.OrderCache(_cache_dir(args), workers=args.workers)
    budget = args.budget
    if args.rho:
        # rows are keyed by x = round(RHO_X_SCALE * u), so a finer step would repeat an x
        if not args.rho_step >= 1 / RHO_X_SCALE:
            raise UsageError(f"--rho-step must be >= {1 / RHO_X_SCALE}, got {args.rho_step}")
        if not 0 <= args.max_u <= dickman.DEFAULT_MAX_U:
            raise UsageError(f"--max-u must be in [0, {dickman.DEFAULT_MAX_U}], got {args.max_u}")
        rows = []
        u = 0.0
        while u <= args.max_u + 1e-12:
            # the last u may pass max_u by rounding; the table ends at DEFAULT_MAX_U
            rows.append((round(u * RHO_X_SCALE), dickman.rho(min(u, dickman.DEFAULT_MAX_U))))
            u += args.rho_step
        series = census.CensusSeries(
            census.SeriesKind.RHO,
            {"max_u": args.max_u, "step": args.rho_step, "x_scale": RHO_X_SCALE},
            rows,
        )
        _write_series(series, args.out or "rho")
        return EXIT_OK
    if args.race:
        try:
            n1, n2 = args.race.split("-")
            e1, e2 = ecm.catalog_curve(n1), ecm.catalog_curve(n2)
        except ValueError as exc:
            raise UsageError(f"--race wants CURVE-CURVE, got {args.race!r}") from exc
        census.FriabilityTester(args.y)  # refuses a bad --y before any order is computed
        t1 = _cache_table(cache, e1, budget)
        t2 = _cache_table(cache, e2, budget)
        series = census.race(e1, e2, args.y, _checkpoints(budget), t1, t2)
        _write_series(series, args.out or f"race_{n1}_{n2}_y{args.y}")
        violations = sum(1 for _, v in series.rows if v < 0)
        if violations:
            print(f"race lead changes sign at {violations} checkpoint(s)")
            return EXIT_NEGATIVE
        return EXIT_OK
    if args.kind == "psi":
        cps = _checkpoints(budget)
        rows = list(zip(cps, census.psi_counts(cps, args.y)))
        series = census.CensusSeries(census.SeriesKind.PSI, {"y": args.y}, rows)
        _write_series(series, args.out or f"psi_y{args.y}")
        return EXIT_OK
    if args.kind == "psi_e":
        cat = ecm.catalog_curve(args.curve)
        census.FriabilityTester(args.y)  # refuses a bad --y before any order is computed
        primes, _, pplus = _cache_table(cache, cat, budget)
        cps = _checkpoints(budget)
        rows = list(zip(cps, census.sweep(primes, pplus < args.y, cps)))
        series = census.CensusSeries(
            census.SeriesKind.PSI_E, {"curve": cat.name, "y": args.y}, rows
        )
        _write_series(series, args.out or f"psie_{cat.name}_y{args.y}")
        return EXIT_OK
    if args.kind == "gamma_tilde":
        if args.d is None:
            _check_curve_budget(budget)
        # before any count or cache file: every y of the --out series lies in [2, y]
        census.check_gamma_tilde_bounds(budget, args.y)
        if args.d is not None:
            K = arith.field_for(args.d)
            gamma = lambda x, y: census.gamma_tilde_field(K, x, y)
            label, params = f"d={args.d}", {"d": args.d}
        else:
            cat = ecm.catalog_curve(args.curve)
            table = _cache_table(cache, cat, budget)
            gamma = lambda x, y: census.gamma_tilde_curve(table, x, y)
            label, params = f"curve={args.curve}", {"curve": cat.name}
        val = gamma(budget, args.y)
        u = math.log(budget) / math.log(args.y)
        print(f"gamma_tilde({label}, x={budget}, y={args.y}, u={u:.3f}) = {val:.6f}")
        if args.out:
            # convergence at fixed u: y_x = x^(1/u) at every checkpoint below the budget
            rows = [(x, gamma(x, max(2, round(x ** (1 / u))))) for x in _checkpoints(budget)[:-1]]
            if args.d is not None:
                # the conjectured limit in ideal-count mode, recorded and not checked
                params["reference"] = 1.0 - lfunc.EULER_GAMMA - lfunc.gamma_k(K)
            series = census.CensusSeries(
                census.SeriesKind.GAMMA_TILDE, {**params, "u": u, "y": args.y}, rows + [(budget, val)]
            )
            _write_series(series, args.out)
        return EXIT_OK
    raise UsageError("nothing to do: pick a census kind, --race, or --rho")


def _check_curve_budget(budget: int) -> None:
    if budget < 2:
        raise UsageError(f"--budget must be >= 2 for a curve-order census, got {budget}")


def _cache_table(cache: census.OrderCache, cat: ecm.CatalogCurve, budget: int):
    """The cache's (primes, orders, pplus) arrays for the good primes
    p <= budget."""
    _check_curve_budget(budget)
    return cache.table(cat, budget)


def _checkpoints(budget: int) -> list[int]:
    cps = [x for x in (2**k for k in range(4, 64)) if x <= budget]
    if budget not in cps:
        cps.append(budget)
    return cps


def build_parser(config: dict[str, str] | None = None) -> argparse.ArgumentParser:
    """The parser; `config` (from --config) supplies each subcommand's defaults."""
    config = config or {}
    ap = argparse.ArgumentParser(prog="ecsmooth", description=__doc__)
    ap.add_argument("--config", help="key=value config file merged under flags")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ecm", help="one-curve ECM stage 1")
    p.add_argument("n", type=int)
    p.add_argument("--curve", default="e8000")
    p.add_argument("-u", type=float, default=3.0)
    p.add_argument("-v", type=float, default=2.0)
    p.add_argument("--exact-m", action="store_true", dest="exact_m")
    p.set_defaults(fn=cmd_ecm)
    _config_defaults(p, config)

    p = sub.add_parser("split", help="NFS splitting step")
    p.add_argument("q", type=int)
    p.add_argument("g", type=int)
    p.add_argument("h", type=int)
    p.add_argument("-u", type=float, default=None)
    p.add_argument("-v", type=float, default=None)
    p.add_argument("--auto", action="store_true", help="u = v = 3^(1/3)(log q/log log q)^(1/3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=1000, dest="max_iters")
    p.set_defaults(fn=cmd_split)
    _config_defaults(p, config)

    p = sub.add_parser("alpha", help="constants table")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--all", action="store_true")
    g.add_argument("-d", type=int)
    p.add_argument("--ell-bound", type=int, default=10**6, dest="ell_bound")
    p.add_argument("--p-bound", type=int, default=10**3, dest="p_bound")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--per-ell", type=int, default=0, dest="per_ell",
                   help="also print theoretical vs observed mean valuations for ell <= this")
    p.set_defaults(fn=cmd_alpha)
    _config_defaults(p, config)

    p = sub.add_parser("census", help="counting experiments")
    p.add_argument("kind", nargs="?", choices=["psi", "psi_e", "gamma_tilde"])
    p.add_argument("--race", help="CURVE-CURVE preset, e.g. e7-e11")
    p.add_argument("--rho", action="store_true", help="dump the rho table")
    p.add_argument("--curve", default="e7")
    p.add_argument("-d", type=int, default=None)
    p.add_argument("--y", type=int, default=128)
    p.add_argument("--max-u", type=float, default=20.0, dest="max_u")
    p.add_argument("--rho-step", type=float, default=0.125, dest="rho_step")
    p.add_argument("--budget", type=int, default=10**6)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--cache-dir", dest="cache_dir", default=None)
    p.add_argument("--seed", type=int, default=0, help="accepted and ignored: no order depends on a seed")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_census)
    _config_defaults(p, config)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = _load_config(args.config)
        if cfg:
            try:
                args = build_parser(cfg).parse_args(argv)
            except SystemExit:
                # the argv parsed alone, so a value from the file failed
                print(f"usage error: bad value in --config {args.config}", file=sys.stderr)
                raise
        return args.fn(args)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except CapacityError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except EcsmoothError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NEGATIVE


if __name__ == "__main__":
    sys.exit(main())
