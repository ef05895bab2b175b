#!/usr/bin/env python3
"""Track the gamma-tilde second-order estimator along geometric checkpoints,
in ideal-count mode and (optionally) curve mode, at fixed u = log x/log y.

Example:
    python scripts/run_gamma_tilde.py -d 7 --u 1.5 --budget 1000000 --curve e7
"""

import argparse
import math
import sys

from ecsmooth import arith, census, cli, ecm, lfunc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("-d", type=int, default=7)
    ap.add_argument("--u", type=float, default=1.5)
    ap.add_argument("--budget", type=int, default=10**6)
    ap.add_argument("--curve", default=None, help="also run curve mode on this catalog curve")
    ap.add_argument("--cache-dir", default=None, help="default: $ECSMOOTH_CACHE_DIR, then "
                    "~/.cache/ecsmooth, as for `ecsmooth census`")
    ap.add_argument("--workers", type=int, default=1)
    args = ap.parse_args()
    if args.workers < 1:
        ap.error(f"--workers must be >= 1, got {args.workers}")

    K = arith.field_for(args.d)
    cat = cache = None
    if args.curve:
        cat = ecm.catalog_curve(args.curve)
        cache = census.OrderCache(cli._cache_dir(args), workers=args.workers)
    reference = -lfunc.EULER_GAMMA + 1.0 - lfunc.gamma_k(K)
    print(f"reference value -euler_gamma + 1 - gamma_K = {reference:.4f} (reported, not asserted)")
    x = 1 << 10
    while x <= args.budget:
        y = max(2, int(round(x ** (1.0 / args.u))))
        g = census.gamma_tilde_field(K, x, y)
        line = f"x=2^{int(math.log2(x)):<2d} y={y:<8d} gamma_tilde_K={g:+.4f}"
        if cat:
            ge = census.gamma_tilde_curve(cache.table(cat, x), x, y)
            line += f"  gamma_tilde_E={ge:+.4f}"
        print(line)
        x <<= 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
