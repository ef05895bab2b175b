"""Acceptance gate: the eight headline criteria, one test (and one printed
pass/fail line) each, plus two checks of the frozen reference table that
criterion 1 reads.  Tolerances are stated inline.  A criterion is never
loosened to get green: when one fails, the program or the test's own
reference is mended, and each reference is traced to an independent oracle:

- criterion 1's reference gamma_K column is checked against the exact
  L'/L(1, chi) from Stieltjes constants (mpmath) and against the table's own
  alpha = gamma_K - Sigma_K row;
- criterion 7 checks psi(x, y) and the E7 friable density against what
  rho(u) promises at x <= 10^6: convergence to rho(u) from above, psi pinned
  to de Bruijn's Lambda(x, y), and the friability bias of CM orders over
  integers in the Hasse intervals.
"""

import math
import random
import time

import numpy as np
import pytest

from ecsmooth import arith, census, cli, cmcount, curve, dickman, ecm, lfunc

from conftest import rho_debruijn

# Frozen reference column values (3-decimal prints), keyed by discriminant d.
REFERENCE_TABLE = {
    #    d: (alpha_tilde, alpha,  sigma_k, gamma_k)
    1: (-3.042, -2.268, 2.509, 0.245),
    2: (-2.990, -3.058, 3.032, -0.022),
    3: (-3.038, -1.878, 2.242, 0.367),
    7: (-3.073, -3.924, 3.936, 0.015),
    11: (-3.019, -2.908, 2.820, -0.085),
    19: (-3.045, -2.284, 2.194, -0.085),
    43: (-3.080, -1.541, 1.793, 0.246),
    67: (-3.091, -1.041, 1.692, 0.659),
    163: (-3.119, 0.585, 1.594, 2.171),
}

DS = sorted(REFERENCE_TABLE)

# Exact gamma_K = L'/L(1, chi) to 6 decimals, from _exact_l_one_gamma_k at
# 20 digits.  d = 7 is left out: the oracle test computes it live.
EXACT_GAMMA_K = {
    1: 0.245610,
    2: -0.020711,
    3: 0.368282,
    11: -0.084218,
    19: -0.084914,
    43: 0.249482,
    67: 0.658364,
    163: 2.168327,
}


def report(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    line = f"[{tag}] Criterion {num}: {name}" + (f"  ({detail})" if detail else "")
    print(line)
    assert ok, line


def test_criterion_1_constants_table(capsys):
    t0 = time.perf_counter()
    code = cli.main(["alpha", "--all", "--csv"])
    out = capsys.readouterr().out
    dt = time.perf_counter() - t0
    assert code == cli.EXIT_OK
    rows = {}
    for line in out.splitlines():
        if line.startswith(("alpha,", "sigma_k,", "gamma_k,")):
            name, *vals = line.split(",")
            rows[name] = [float(v) for v in vals]
    deviations = []
    for j, d in enumerate(DS):
        _, ref_alpha, ref_sigma, ref_gamma = REFERENCE_TABLE[d]
        for row, ref in (("gamma_k", ref_gamma), ("sigma_k", ref_sigma), ("alpha", ref_alpha)):
            dev = abs(rows[row][j] - ref)
            if dev > 0.01:
                deviations.append(f"d={d} {row}: got {rows[row][j]:.4f} want {ref}")
    ok = not deviations and dt < 60.0
    with capsys.disabled():
        report(1, "constants table, 27 values within 0.01",
               ok, f"time={dt:.1f}s; " + ("; ".join(deviations) or "all match"))


def _exact_l_one_gamma_k(d):
    """(L(1, chi), L'(1, chi)/L(1, chi)) for chi = (D/.) of modulus m = |D|,
    from the Hurwitz expansion zeta(s, q) = 1/(s-1) + gamma_0(q) - gamma_1(q)(s-1)
    + ... with gamma_0(q) = -digamma(q), and sum_a chi(a) = 0:
    L(1) = -(1/m) sum chi(a) digamma(a/m),
    L'(1) = -log m L(1) - (1/m) sum chi(a) gamma_1(a/m)."""
    mpmath = pytest.importorskip("mpmath")
    K = arith.field_for(d)
    m = -K.disc
    with mpmath.workdps(20):
        l1 = lp1 = mpmath.mpf(0)
        for a in range(1, m):
            c = K.chi(a)
            if c:
                q = mpmath.mpf(a) / m
                l1 -= c * mpmath.digamma(q)
                lp1 -= c * mpmath.stieltjes(1, q)
        l1 /= m
        lp1 = lp1 / m - mpmath.log(m) * l1
        return float(l1), float(lp1 / l1)


def test_reference_gamma_k_against_exact_oracle():
    l1, gamma7 = _exact_l_one_gamma_k(7)
    # the oracle reproduces the class number formula, L(1, chi_-7) = pi/sqrt(7)
    assert l1 == pytest.approx(lfunc.l_one(arith.field_for(7)), rel=1e-12)
    exact = {**EXACT_GAMMA_K, 7: gamma7}
    bad = {
        d: (ref[3], round(exact[d], 6))
        for d, ref in REFERENCE_TABLE.items()
        if abs(ref[3] - exact[d]) > 0.005
    }
    assert not bad, f"reference gamma_K off the exact value: {bad}"


def test_reference_table_self_consistent():
    # each row's alpha must equal its own gamma_K - Sigma_K up to 3-decimal rounding
    gaps = {
        d: abs(alpha - (gamma - sigma))
        for d, (_, alpha, sigma, gamma) in REFERENCE_TABLE.items()
    }
    bad = {d: round(g, 4) for d, g in gaps.items() if g > 0.01}
    assert not bad, f"alpha != gamma_K - Sigma_K: {bad}"


def test_criterion_2_alpha_tilde_consistency(capsys):
    results = []
    for name, ref_at in (("e7", -3.073), ("e11", -3.019)):
        with pytest.warns(lfunc.TruncationWarning):  # the orders of p <= 10^3 stay below ell <= 10^4
            rep = lfunc.alpha_report(ecm.catalog_curve(name), p_bound=1000)
        results.append((name, rep.alpha_tilde, ref_at, abs(rep.alpha_tilde - rep.alpha)))
    ok = all(abs(at - ref) <= 0.3 and diff <= 3.0 for _, at, ref, diff in results)
    detail = "; ".join(
        f"{n}: a~={at:.3f} (ref {ref}), |a~-a|={diff:.3f}" for n, at, ref, diff in results
    )
    with capsys.disabled():
        report(2, "alpha-tilde within 0.3 of reference, |a~-a| <= 3", ok, detail)


def _claim1_params(n, C):
    b_target = C * C
    u = math.log(n) / math.log(b_target)
    v = math.log(b_target) / math.log(C + 0.5)
    b, c = ecm.EcmParams(u, v).bounds(n)
    assert c == C, (c, C)
    return u, v, b


def test_criterion_3_claim1_sweep(capsys):
    P0 = 10**9 + 7
    cat = ecm.catalog_curve("e8000")
    cases = failures = 0
    for C in (20, 50):
        tester = census.FriabilityTester(C + 1)  # C-friable: all factors <= C
        for p in arith.prime_sieve(3000):
            if not cat.curve.has_good_reduction(p):
                continue
            if not tester(curve.naive_count(cat.curve, p)):
                continue
            n = p * P0
            u, v, b = _claim1_params(n, C)
            assert b < P0  # the cofactor must stay above B
            out = ecm.ecm_one_curve(n, cat, u, v)
            cases += 1
            if not (out.ok and out.factor % p == 0):
                failures += 1
    ok = cases > 0 and failures == 0
    with capsys.disabled():
        report(3, "Claim 1 sweep p <= 3000, C in {20, 50}, zero failures",
               ok, f"{cases} cases, {failures} failures")


def test_criterion_4_cm_order_oracle(capsys):
    mismatches = checked = 0
    for cat in ecm.curve_catalog():
        if cat.cm_field is None:
            continue
        for p in arith.prime_sieve(2000):
            if not cat.curve.has_good_reduction(p):
                continue
            checked += 1
            if cmcount.cm_order(cat, p) != curve.naive_count(cat.curve, p):
                mismatches += 1
    ok = checked > 0 and mismatches == 0
    with capsys.disabled():
        report(4, "cm_order == naive_count, good p <= 2000, exact",
               ok, f"{checked} primes checked, {mismatches} mismatches")


def test_criterion_5_chebyshev_race(order_cache, capsys):
    e7, e11 = ecm.catalog_curve("e7"), ecm.catalog_curve("e11")
    budget = 10**6
    checkpoints = [2**k for k in range(4, 20) if 2**k <= budget] + [budget]
    series = census.race(e7, e11, 1 << 7, checkpoints,
                         order_cache.segments(e7, budget), order_cache.segments(e11, budget))
    violations = [(x, v) for x, v in series.rows if v < 0]
    ok = not violations
    with capsys.disabled():
        report(5, "psi_E7 - psi_E11 >= 0 at every 2^k <= 10^6",
               ok, f"final lead {series.rows[-1][1]}; violations: {violations or 'none'}")


def test_criterion_6_dickman_accuracy(capsys):
    err2 = abs(dickman.rho(2.0) - (1.0 - math.log(2.0)))
    fine = dickman.RhoTable(step=1.0 / 2048)
    halving = max(
        abs(dickman.rho(k * 0.5) - fine.rho(k * 0.5)) for k in range(1, 41)
    )
    band_ok = all(
        0.8 <= math.log(dickman.rho(float(u))) / math.log(rho_debruijn(float(u))) <= 1.2
        for u in range(10, 41)
    )
    ok = err2 <= 1e-9 and halving <= 1e-9 and band_ok
    with capsys.disabled():
        report(6, "rho(2) and step-halving to 1e-9, de Bruijn band on [10, 40]",
               ok, f"|rho(2)-ref|={err2:.1e}, halving={halving:.1e}, band_ok={band_ok}")


def _lambda_ratio(x, y):
    """de Bruijn's Lambda(x, y)/x = int rho(u - log t/log y) d(floor(t)/t)
    = rho(u) + sum_{2<=n<=x} rho(u - log n/log y)/n
      - int_1^x floor(t) t^-2 rho(u - log t/log y) dt,  u = log x/log y.
    rho comes from dickman.rho sampled at step 1/4096 and interpolated
    linearly (error ~1e-8); each unit interval of the integral is a 6-point
    Gauss-Legendre rule in s = log t, where the weight is e^-s."""
    log_y = math.log(y)
    u = math.log(x) / log_y
    grid = np.linspace(0.0, u, math.ceil(u * 4096) + 1)
    table = np.array([dickman.rho(float(v)) for v in grid])

    def rho_at(log_t):
        return np.interp(u - log_t / log_y, grid, table, left=0.0)

    n = np.arange(1.0, x + 1.0)
    total = math.fsum(rho_at(np.log(n)) / n)
    nodes, weights = np.polynomial.legendre.leggauss(6)
    lo, hi = np.log(n[:-1]), np.log(n[:-1] + 1.0)
    mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    panel = np.zeros_like(mid)
    for z, w in zip(nodes, weights):
        s = mid + half * z
        panel += w * np.exp(-s) * rho_at(s)
    return total - math.fsum(n[:-1] * half * panel)


def _largest_prime_factors(top):
    """P+(n) for 0 <= n <= top (1 for n <= 1), by a sieve in which larger
    primes overwrite smaller ones."""
    lpf = np.ones(top + 1, dtype=np.int64)
    for p in arith.primes_below(top + 1):
        lpf[p::p] = p
    lpf[0] = 1
    return lpf


def test_criterion_7_density_sanity(order_cache, capsys):
    # psi = x rho(u) (1 + O(log(u+1)/log y)) is only asymptotic, and CM orders
    # are friabler than integers, so neither ratio is within a fixed band of
    # rho(u) at x <= 10^6.  What rho(u) does promise here is checked instead.
    xs = (10**4, 10**5, 10**6)
    e7 = ecm.catalog_curve("e7")
    table = order_cache.table(e7, xs[-1])
    # P+(n) up to the top of the last Hasse interval
    lpf = _largest_prime_factors(xs[-1] + 1 + math.isqrt(4 * xs[-1]))
    failures, notes, bias = [], [], []
    for u in (1.5, 2.0, 3.0):
        r = dickman.rho(u)
        devs = {"psi": [], "psi_E7": []}
        for x in xs:
            y = round(x ** (1.0 / u))
            psi = census.psi_exact(x, y)
            p = table[0][: np.searchsorted(table[0], x, side="right")]
            pe_ratio = census.psi_E([table], [(x, y)])[0] / len(p)
            devs["psi"].append(psi / x / r - 1.0)
            devs["psi_E7"].append(pe_ratio / r - 1.0)
            # (c) friability bias: each good p's order beats the integers of
            # its Hasse interval [p+1-2sqrt(p), p+1+2sqrt(p)], on average
            cum = np.concatenate(([0], np.cumsum(lpf < y)))
            w = np.array([math.isqrt(4 * q) for q in p.tolist()], dtype=np.int64)
            hasse = float(np.mean((cum[p + 2 + w] - cum[p + 1 - w]) / (2 * w + 1)))
            bias.append(pe_ratio / hasse)
            if not pe_ratio > hasse:
                failures.append(f"(c) u={u} x={x}: psi_E7 {pe_ratio:.4f} <= Hasse {hasse:.4f}")
            if x == xs[-1] and u < 3.0:
                # (b) psi pinned to Lambda; at y = 100 (u = 3) Lambda's own
                # error exp(-(log y)^(3/5-eps)) is not small, so it is left out
                gap = psi / (x * _lambda_ratio(x, y)) - 1.0
                notes.append(f"psi/Lambda-1@u={u}: {gap:+.2%}")
                if abs(gap) > 0.02:
                    failures.append(f"(b) u={u}: psi/Lambda - 1 = {gap:+.2%}")
        # (a) both ratios converge to rho(u) from above as x grows
        for label, d in devs.items():
            notes.append(f"{label}@u={u}: " + "->".join(f"{v:+.1%}" for v in d))
            if not (d[-1] > 0 and all(a > b for a, b in zip(d, d[1:]))):
                failures.append(f"(a) {label}@u={u} not positive and decreasing")
    notes.append(f"psi_E7/Hasse in [{min(bias):.2f}, {max(bias):.2f}]")
    with capsys.disabled():
        report(7, "psi, psi_E7 -> rho(u) from above; psi within 2% of Lambda; "
               "psi_E7 above Hasse-interval integers",
               not failures, "; ".join(failures + notes))


def _generator_mod(q):
    factors = set()
    m = q - 1
    p = 2
    while p * p <= m:
        if m % p == 0:
            factors.add(p)
            while m % p == 0:
                m //= p
        p += 1
    if m > 1:
        factors.add(m)
    for g in range(2, 100):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise AssertionError(f"no small generator mod {q}")


def test_criterion_8_split_step_contract(capsys):
    rng = random.Random(2026)
    qs = []
    while len(qs) < 20:
        q = rng.randrange((1 << 30) - (1 << 20), (1 << 30) + (1 << 20))
        if arith.is_prime(q) and q not in qs:
            qs.append(q)
    successes = 0
    bad_verification = []
    for q in qs:
        u = v = ecm.auto_uv(q)
        max_iters = 10 * math.ceil(1.0 / (dickman.rho(u) * dickman.rho(v)))
        g = _generator_mod(q)
        h = rng.randrange(1, q)
        res = ecm.split_step(q, g, h, u, v, seed=q, max_iters=max_iters)
        if res is None:
            continue
        e, factor = res
        n = pow(g, e, q) * h % q
        if n % factor == 0 and 1 < factor < q ** (1.0 / u):
            successes += 1
        else:
            bad_verification.append((q, e, factor))
    ok = successes >= 16 and not bad_verification
    with capsys.disabled():
        report(8, "split_step --auto succeeds >= 16/20 within budget, factors verified",
               ok, f"{successes}/20 verified successes; bad: {bad_verification or 'none'}")
