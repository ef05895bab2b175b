"""Analytic constants ranking ECM-friendliness of CM curves: L(1, chi), the
logarithmic derivative gamma_K = L'(1,chi)/L(1,chi) as a prime sum, the
companion sum Sigma_K, the constant alpha = gamma_K - Sigma_K, theoretical
per-prime expected valuations, the empirical estimate alpha-tilde from
averaged valuations of |E(F_p)|, and the generic-curve divisibility weight.
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
from .errors import DomainError, UsageError

# Euler-Mascheroni constant to 20 digits
EULER_GAMMA = 0.57721566490153286061

DEFAULT_ELL_BOUND = 10**6
EMPIRICAL_ELL_BOUND = 10**4
_ELL_GUARD = 10**5
_TABLE_CELLS = 1 << 22  # entries of the ell-by-n table in _mean_vals


class TruncationWarning(UserWarning):
    pass


def l_one(K: ImagQuadField) -> float:
    """L(1, chi) by the class number formula, exact for class number 1:
    2 pi h / (w sqrt(|D|)) with h = 1 and w the number of units."""
    return 2.0 * math.pi / (K.unit_count * math.sqrt(-K.disc))


def _chi(K: ImagQuadField, n: np.ndarray) -> np.ndarray:
    """chi(n) elementwise, from the field's table over one period."""
    return np.array(K._chi_table, dtype=np.int64)[n % -K.disc]


def l_one_series(K: ImagQuadField, terms: int = 10**6) -> float:
    """Cross-check: truncated character sum sum_{n<=terms} chi(n)/n."""
    n = np.arange(1, terms + 1, dtype=np.int64)
    return math.fsum(_chi(K, n) / n)


@lru_cache(maxsize=4)
def _primes_and_logs(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """The primes <= limit as int64 and their logarithms; math.log, so that
    every term is the same float as in a scalar loop."""
    primes = arith.prime_sieve(limit)
    arrays = np.array(primes, dtype=np.int64), np.fromiter(map(math.log, primes), float, len(primes))
    for a in arrays:
        a.setflags(write=False)  # shared by every caller of this cache
    return arrays


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
    ell, lg = _primes_and_logs(ell_bound)
    c = _chi(K, ell)
    t = c / (ell - 1) + np.where(c == -1, 2.0 / (ell * ell - 1), 0.0)
    return -math.fsum(lg * t)


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
    ell, lg = _primes_and_logs(ell_bound)
    c = _chi(K, ell)
    sq = (ell - 1) * (ell - 1)
    t = np.where(all_primes | (c == 1), (3 + c) / sq, 0.0)
    l2 = ell * ell - 1
    inert = (2.0 / l2) * (-1.0 + 2.0 * ell * ell / l2)
    t += np.select([c == -1, c == 0], [inert, ell / sq], 0.0)
    return math.fsum(lg * t)


def alpha_cm(K: ImagQuadField, ell_bound: int = DEFAULT_ELL_BOUND) -> float:
    """alpha(E) = gamma_K - Sigma_K at a common truncation."""
    return gamma_k(K, ell_bound) - sigma_k(K, ell_bound)


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


def _mean_vals(orders: np.ndarray, ells: np.ndarray) -> np.ndarray:
    """The mean of val_ell(n) over the orders n, for each ell: the (ell, n)
    pairs with ell | n, divided again while still divisible.  The ell-by-n
    divisibility table is taken in blocks of at most _TABLE_CELLS entries."""
    total = np.zeros(ells.size, dtype=np.int64)
    step = max(1, _TABLE_CELLS // max(orders.size, 1))
    for lo in range(0, ells.size, step):
        block = ells[lo : lo + step]
        li, ni = np.nonzero(orders % block[:, None] == 0)
        n = orders[ni]
        while li.size:
            total[lo : lo + block.size] += np.bincount(li, minlength=block.size)
            n //= block[li]
            keep = n % block[li] == 0
            li, n = li[keep], n[keep]
    return total / orders.size


def alpha_empirical(E: CatalogCurve, orders, ell_bound: int = EMPIRICAL_ELL_BOUND) -> float:
    """alpha-tilde: replace the expectation in the per-prime terms by the
    average valuation of the given orders |E(F_p)|, one per good prime p.
    CM curves use (4 avg - 3/(l-1)) log l terms, non-CM (avg - 1/(l-1))
    log l; the sign convention matches the frozen reference column (less
    negative = larger observed valuations = more ECM-friendly)."""
    if ell_bound < 2:
        raise DomainError("ell_bound must be at least 2")
    orders = np.asarray(orders, dtype=np.int64)
    if not orders.size:
        raise DomainError("alpha-tilde needs at least one order")
    ell, lg = _primes_and_logs(ell_bound)
    avg = _mean_vals(orders, ell)
    if E.cm_field is not None:
        t = 4.0 * avg - 3.0 / (ell - 1)
    else:
        t = avg - 1.0 / (ell - 1)
    return math.fsum(t * lg)


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
        """alpha_tilde - alpha, the row of the paper's table.  By sigma_k's
        rearrangement identity sum_l (3/(l-1) - 4 E[val_l]) log l = alpha, and
        alpha_tilde sums the opposite terms (4 avg - 3/(l-1)) log l, so
        alpha_tilde estimates -alpha: the row compares quantities of opposite
        sign."""
        return self.alpha_tilde - self.alpha


def alpha_report(
    E: CatalogCurve,
    p_bound: int,
    ell_bound: int = DEFAULT_ELL_BOUND,
    per_ell_limit: int = 0,
) -> AlphaReport:
    """The table column of a CM curve, with alpha-tilde over the good primes
    p <= p_bound and ell <= EMPIRICAL_ELL_BOUND; per_ell lists, for every
    prime ell <= per_ell_limit, the theoretical and the observed mean
    valuation.  The orders are computed once, for alpha-tilde and per_ell
    alike.  Warns with TruncationWarning when EMPIRICAL_ELL_BOUND exceeds the
    largest order: every ell above it divides no order and adds only its
    -3 log ell/(ell - 1), so alpha-tilde measures the truncation."""
    K = E.cm_field
    if K is None:
        raise UsageError(f"{E.name} is not a CM curve")
    g = gamma_k(K, ell_bound)
    s = sigma_k(K, ell_bound)
    orders = census.order_table(E, 0, p_bound + 1)[1]
    at = alpha_empirical(E, orders)
    if EMPIRICAL_ELL_BOUND > orders.max():
        warnings.warn(
            f"alpha-tilde sums ell <= {EMPIRICAL_ELL_BOUND} over orders <= {orders.max()} (p_bound={p_bound})",
            TruncationWarning,
            stacklevel=2,
        )
    ells = arith.primes_below(per_ell_limit + 1)
    means = _mean_vals(orders, np.array(ells, dtype=np.int64)).tolist()
    per_ell = [(ell, expected_valuation_cm(K, ell), m) for ell, m in zip(ells, means)]
    return AlphaReport(
        field_d=K.d,
        gamma_k=g,
        sigma_k=s,
        alpha=g - s,
        alpha_tilde=at,
        curve_name=E.name,
        per_ell=per_ell,
    )
