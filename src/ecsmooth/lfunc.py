"""Analytic constants ranking ECM-friendliness of CM curves: L(1, chi), the
logarithmic derivative gamma_K = L'(1,chi)/L(1,chi) as a prime sum, the
companion sum Sigma_K, the constant alpha = gamma_K - Sigma_K, theoretical
per-prime expected valuations, alpha_report's alpha-tilde from the averaged
valuations of a CM curve's |E(F_p)|, and the generic-curve divisibility weight.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import arith, census
from .arith import ImagQuadField
from .ecm import CatalogCurve
from .errors import CapacityError, DomainError, UsageError

# Euler-Mascheroni constant to 20 digits
EULER_GAMMA = 0.57721566490153286061

DEFAULT_ELL_BOUND = 10**6
EMPIRICAL_ELL_BOUND = 10**4
PER_ELL_BUDGET = 10**5  # rows of AlphaReport.per_ell: a budget guard, not an option
_ELL_GUARD = 10**5
_TABLE_CELLS = 1 << 13  # terms of every block of a prime sum


class TruncationWarning(UserWarning):
    pass


def l_one(K: ImagQuadField) -> float:
    """L(1, chi) by the class number formula, exact for class number 1:
    2 pi h / (w sqrt(|D|)) with h = 1 and w the number of units."""
    return 2.0 * math.pi / (K.unit_count * math.sqrt(-K.disc))


def _prime_fsum(term, ell_bound: int, *columns: np.ndarray) -> float:
    """The sum of term(ell, log ell, *columns) over the primes ell <=
    ell_bound and the first pi(ell_bound) entries of each column, rounded
    once by _exact_sum: the float math.fsum gives, bit for bit.  The terms
    come in blocks of _TABLE_CELLS primes so that no temporary grows with
    their number; the blocking changes nothing."""
    ells, logs = _primes_and_logs(ell_bound)
    return _exact_sum(
        term(*(a[lo : min(lo + _TABLE_CELLS, ells.size)] for a in (ells, logs, *columns)))
        for lo in range(0, ells.size, _TABLE_CELLS)
    )


def _exact_sum(blocks) -> float:
    """The correctly rounded (half to even) sum of the finite float64 terms
    of a stream of arrays, equal to math.fsum of them whenever that returns,
    with no per-term Python work (Neal, "Fast exact summation using
    small and large superaccumulators", 2015).  np.frexp writes each term as
    m 2^(e - 53) with an integer |m| < 2^53; the high and low 27-bit halves
    of m are added per exponent e by np.bincount.  Each half is below 2^27
    in size, so a float64 bucket stays an exact integer for blocks of up to
    2^26 terms (_prime_fsum's have _TABLE_CELLS).  Every block's buckets are
    folded into one Python int, and CPython's int / int rounds the quotient
    correctly.  A zero sum gives +0.0, as math.fsum does.  Each block is
    scratch space: its terms are overwritten."""
    total = 0
    for terms in blocks:
        m, e = np.frexp(terms, out=(terms, None))  # 0.5 <= |m| < 1, or m = 0
        e += 1073
        m *= 2.0**26
        h = np.floor(m)
        m -= h  # exact: the fraction of m, in [0, 1)
        m *= 2.0**27
        high, low = np.bincount(e, h), np.bincount(e, m)
        total += sum(
            ((int(high[k]) << 27) + int(low[k])) << k
            for k in np.flatnonzero((high != 0) | (low != 0)).tolist()
        )
    return total / (1 << 1126)


@lru_cache(maxsize=4)
def _primes_and_logs(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= limit as int64, from arith.prime_array, and their
    logarithms.  The logs are taken with math.log, so that every term is the
    same float as in a scalar loop, one block of _TABLE_CELLS primes at a
    time: no list of all the primes is made.  The pair is read-only."""
    primes = arith.prime_array(limit)
    logs = np.empty(primes.size)
    for lo in range(0, primes.size, _TABLE_CELLS):
        logs[lo : lo + _TABLE_CELLS] = list(map(math.log, primes[lo : lo + _TABLE_CELLS].tolist()))
    for a in (primes, logs):
        a.setflags(write=False)  # shared by every caller of this cache
    return primes, logs


def _check_ell_bound(ell_bound: int) -> None:
    if ell_bound < _ELL_GUARD:
        warnings.warn(
            f"ell_bound={ell_bound} below the accuracy guard {_ELL_GUARD}; "
            "the truncated series may be off in the second decimal",
            TruncationWarning,
            stacklevel=3,
        )


def gamma_k(K: ImagQuadField, ell_bound: int = DEFAULT_ELL_BOUND) -> float:
    """Truncated prime sum for L'(1,chi)/L(1,chi):
    -sum_l log l (chi(l)/(l-1) + |chi(l)|(1-chi(l))/(l^2-1))."""
    _check_ell_bound(ell_bound)

    def term(ell, lg):
        c = K.chi_period[ell % -K.disc]
        t = c / (ell - 1) + np.where(c == -1, 2.0 / (ell * ell - 1), 0.0)
        return lg * t

    return -_prime_fsum(term, ell_bound)


def sigma_k(
    K: ImagQuadField,
    ell_bound: int = DEFAULT_ELL_BOUND,
    all_primes: bool = False,
) -> float:
    """Truncated field sum Sigma_K: inert and ramified parts plus the
    (3+chi)/(l-1)^2 series.

    The default convention takes the (3+chi)/(l-1)^2 series over split primes
    only, which is what the frozen reference column values were produced with.
    all_primes=True extends that series to every prime; this is the variant
    for which the exact rearrangement identity
    sum_l (3/(l-1) - 4 E[val_l]) log l = gamma_K - Sigma_K holds term by term.
    """
    _check_ell_bound(ell_bound)

    def term(ell, lg):
        c = K.chi_period[ell % -K.disc]
        sq = (ell - 1) * (ell - 1)
        t = np.where(all_primes | (c == 1), (3 + c) / sq, 0.0)
        l2 = ell * ell - 1
        inert = (2.0 / l2) * (-1.0 + 2.0 * ell * ell / l2)
        t += np.select([c == -1, c == 0], [inert, ell / sq], 0.0)
        return lg * t

    return _prime_fsum(term, ell_bound)


def expected_valuation_cm(K: ImagQuadField, ell: int) -> float:
    """Theoretical average of val_l(|E(F_p)|) over primes p, for a curve with
    CM by O_K."""
    if not arith.is_prime(ell):
        raise UsageError(f"{ell} is not prime")
    c = K.chi(ell)
    val4 = (3 + c) / (ell - 1) * (1.0 + 1.0 / (ell - 1))
    if c == 0:
        val4 += ell / ((ell - 1) * (ell - 1))
    if c == -1:
        l2 = ell * ell - 1
        val4 += 4.0 * ell * ell / (l2 * l2)
    return val4 / 4.0


def _mean_valuations(orders, ells: np.ndarray) -> tuple[np.ndarray, int]:
    """sum_n val_ell(n) / #orders for each ell of ells, the primes from 2 up,
    over a stream of arrays of orders n >= 1, read once, and the largest
    order: the exact totals of one census.valuation_totals pass per array,
    divided once, so every mean is the same float however the orders are
    cut."""
    totals = np.zeros(ells.size, dtype=np.int64)
    count = largest = 0
    for part in orders:
        if part.min(initial=1) < 1:
            raise DomainError(f"alpha-tilde needs orders >= 1, got {part.min()}")
        count += part.size
        largest = max(largest, int(part.max(initial=0)))
        totals += census.valuation_totals(part, ells)
    if not count:
        raise DomainError("alpha-tilde needs at least one order")
    return totals / count, largest


def w_noncm(d: int, m_guard: int = 1) -> float:
    """Divisibility weight prod_{l | d} l(l^2-2)/((l-1)(l^2-1)) for squarefree
    d coprime to the caller-supplied Serre guard."""
    if d < 1:
        raise DomainError("d must be positive")
    if m_guard > 1 and math.gcd(d, m_guard) != 1:
        raise UsageError(f"d={d} shares a factor with the guard {m_guard}")
    ells = arith.prime_factors(d)
    if math.prod(ells) != d:
        raise DomainError(f"d={d} is not squarefree")
    terms = (ell * (ell * ell - 2) / ((ell - 1) * (ell * ell - 1)) for ell in ells)
    return math.prod(terms, start=1.0)


@dataclass(frozen=True)
class AlphaReport:
    """One column of the constants table for a CM field, with metadata."""

    field_d: int
    gamma_k: float
    sigma_k: float
    alpha: float
    alpha_tilde: float
    curve_name: str
    per_ell: list[tuple[int, float, float]] = field(default_factory=list)

    @property
    def difference(self) -> float:
        """alpha_tilde - alpha, the row of the paper's table.  sigma_k's
        rearrangement identity sum_l (3/(l-1) - 4 E[val_l]) log l =
        gamma_K - Sigma_K holds for the Sigma_K of all_primes=True, not for
        the default Sigma_K of alpha.  alpha_tilde sums the opposite terms
        (4 avg - 3/(l-1)) log l, whose expectation under
        expected_valuation_cm is -(gamma_K - Sigma_K(all_primes=True)): the
        row compares it with a constant of the other convention, and of the
        opposite sign."""
        return self.alpha_tilde - self.alpha


def alpha_report(
    E: CatalogCurve,
    p_bound: int,
    ell_bound: int = DEFAULT_ELL_BOUND,
    per_ell_limit: int = 0,
) -> AlphaReport:
    """The table column of a CM curve, with alpha-tilde over the good primes
    p <= p_bound and ell <= EMPIRICAL_ELL_BOUND: the terms
    (4 avg - 3/(ell - 1)) log ell, avg the mean valuation val_ell of the
    orders |E(F_p)|, whose sign matches the frozen reference column (less
    negative = larger observed valuations = more ECM-friendly).  per_ell
    lists, for every prime ell <= per_ell_limit, the theoretical and the
    observed mean valuation.  p_bound and per_ell_limit must pass
    prime_array's guards, and per_ell_limit PER_ELL_BUDGET, before any sum.
    The orders are made one census.CACHE_SEGMENT at a time and go through
    one valuation pass for both, by the primes of the _primes_and_logs
    cache.  Warns with TruncationWarning when EMPIRICAL_ELL_BOUND exceeds
    the largest order: every ell above it divides no order and adds only
    its -3 log ell/(ell - 1), so alpha-tilde measures the truncation."""
    K = E.cm_field
    if K is None:
        raise UsageError(f"{E.name} is not a CM curve")
    arith.check_prime_window(p_bound)
    arith.check_prime_window(per_ell_limit)
    if per_ell_limit > PER_ELL_BUDGET:
        raise CapacityError(f"per_ell_limit={per_ell_limit} exceeds the budget {PER_ELL_BUDGET}")
    g = gamma_k(K, ell_bound)
    s = sigma_k(K, ell_bound)
    ells = _primes_and_logs(max(EMPIRICAL_ELL_BOUND, per_ell_limit))[0]
    step = census.CACHE_SEGMENT
    orders = (census.segment_orders(E, lo, min(lo + step, p_bound + 1))[1] for lo in range(0, p_bound + 1, step))
    means, largest = _mean_valuations(orders, ells)
    if EMPIRICAL_ELL_BOUND > largest:
        warnings.warn(
            f"alpha-tilde sums ell <= {EMPIRICAL_ELL_BOUND} over orders <= {largest} (p_bound={p_bound})",
            TruncationWarning,
            stacklevel=2,
        )
    n = np.searchsorted(ells, per_ell_limit, side="right")
    per_ell = [(ell, expected_valuation_cm(K, ell), m) for ell, m in zip(ells[:n].tolist(), means[:n].tolist())]
    return AlphaReport(
        field_d=K.d,
        gamma_k=g,
        sigma_k=s,
        alpha=g - s,
        alpha_tilde=_prime_fsum(lambda ell, lg, avg: (4 * avg - 3 / (ell - 1)) * lg, EMPIRICAL_ELL_BOUND, means),
        curve_name=E.name,
        per_ell=per_ell,
    )
