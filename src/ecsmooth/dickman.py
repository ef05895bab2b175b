"""Dickman rho numerics, the saddle quantity xi(u), the de Bruijn asymptotic
main term, and the subexponential scale L_N(alpha, c).

rho is tabulated on a uniform grid via the equivalent integral form
u rho(u) = int_{u-1}^{u} rho(t) dt, which sums positive panels and therefore
keeps full relative accuracy down to rho ~ 1e-60 (the naive subtraction form
rho(u) = rho(u-h) - int rho(t-1)/t loses roughly two digits per unit interval
to cancellation).  Each panel uses the derivative-corrected trapezoid rule,
with rho'(t) = -rho(t-1)/t read off the grid one unit down; the sliding
window sum is recomputed exactly at every integer so rounding noise from the
incremental updates cannot pile up.  Step-halving is the self-convergence
oracle.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

DEFAULT_STEP = 1.0 / 1024
DEFAULT_MAX_U = 50.0


@dataclass
class RhoTable:
    """Precomputed grid of rho values with a cubic interpolation contract."""

    step: float = DEFAULT_STEP
    max_u: float = DEFAULT_MAX_U
    values: np.ndarray = field(init=False, repr=False)
    _per_unit: int = field(init=False, repr=False)

    def __post_init__(self):
        n = round(1.0 / self.step)
        if abs(n * self.step - 1.0) > 1e-12 or n < 8:
            raise DomainError("step must be 1/k for an integer k >= 8")
        self._per_unit = n
        self.values = self._build()

    def _build(self) -> np.ndarray:
        n = self._per_unit
        h = 1.0 / n
        total = int(round(self.max_u * n))
        v = np.ones(total + 1)
        # panel[k] = int_{(k-1)h}^{kh} rho; rho = 1 below u = 1
        panel = np.empty(total + 1)
        panel[: n + 1] = h
        # derivative rho'(kh) = -rho(kh - 1)/(kh), zero below u = 1;
        # at the kink u = 1 the panels to the right need the right-limit -1
        dv = np.zeros(total + 1)
        dv[n] = -1.0
        window = 1.0  # sum of the n panels ending at the current node
        for k in range(n + 1, total + 1):
            u = k * h
            dv[k] = -v[k - n] / u
            # corrected trapezoid, solved for the (linear) unknown v[k]:
            # u v[k] = window - panel[k-n] + h/2 (v[k-1]+v[k]) + h^2/12 (dv[k-1]-dv[k])
            rest = (window - panel[k - n]) + 0.5 * h * v[k - 1] + h * h / 12.0 * (dv[k - 1] - dv[k])
            v[k] = rest / (u - 0.5 * h)
            panel[k] = 0.5 * h * (v[k - 1] + v[k]) + h * h / 12.0 * (dv[k - 1] - dv[k])
            window = window - panel[k - n] + panel[k]
            if k % n == 0:
                # exact refresh kills accumulated rounding in the sliding sum
                window = math.fsum(panel[k - n + 1 : k + 1])
        return v

    def _interp_at(self, u: float) -> float:
        """Cubic Lagrange interpolation with the 4-node stencil clamped inside
        the unit interval containing u (rho has kinks at the integers)."""
        n = self._per_unit
        pos = u * n
        k = int(pos)
        unit_lo = (k // n) * n
        unit_hi = unit_lo + n
        # at u = max_u the stencil ends at the last node instead
        i0 = min(max(k - 1, unit_lo), unit_hi - 3, self.values.size - 4)
        i0 = max(i0, 0)
        xs = np.arange(i0, i0 + 4)
        ys = self.values[i0 : i0 + 4]
        res = 0.0
        for j in range(4):
            w = 1.0
            for m in range(4):
                if m != j:
                    w *= (pos - xs[m]) / (xs[j] - xs[m])
            res += w * ys[j]
        return res

    def rho(self, u: float) -> float:
        if not u >= 0:  # written so that NaN fails it
            raise DomainError(f"rho domain is u >= 0, got {u}")
        if u > self.max_u:
            raise DomainError(f"u={u} beyond table max_u={self.max_u}")
        if u <= 1.0:
            return 1.0
        return float(self._interp_at(u))


@functools.cache
def default_table() -> RhoTable:
    return RhoTable()


def rho(u: float) -> float:
    """Dickman rho on [0, 50] to absolute accuracy ~1e-10 for u <= 20."""
    return default_table().rho(u)


def rho_clipped(u: float) -> tuple[float, bool]:
    """(rho(u), underflowed): beyond the table the value underflows to 0.0
    with the flag set, never a negative value."""
    t = default_table()
    if u > t.max_u:
        return 0.0, True
    return t.rho(u), False


def rho_debruijn(u: float) -> float:
    """Asymptotic main term exp(-u (log u + log log(u+2) - 1))."""
    if not u >= 1:
        raise DomainError(f"de Bruijn main term needs u >= 1, got {u}")
    return math.exp(-u * (math.log(u) + math.log(math.log(u + 2)) - 1.0))


def xi(u: float) -> float:
    """Positive solution of exp(xi) = 1 + u*xi (Newton iteration)."""
    if not u > 1:
        raise DomainError(f"xi domain is u > 1, got {u}")
    x = math.log(u * math.log(u)) if u >= math.e else 2.0 * (u - 1.0)
    for _ in range(200):
        ex = math.exp(x)
        fx = ex - 1.0 - u * x
        dfx = ex - u
        if dfx == 0:
            break
        step = fx / dfx
        x -= step
        if abs(step) < 1e-15 * max(1.0, abs(x)):
            break
    if abs(math.exp(x) - 1.0 - u * x) > 1e-12 * (1.0 + u * abs(x)):
        raise ArithmeticError(f"xi({u}) did not converge")
    return x


def l_subexp(n: int, alpha: float, c: float) -> float:
    """L_N(alpha, c) = exp(c (log N)^alpha (log log N)^(1-alpha))."""
    if n < 16:
        raise DomainError("l_subexp needs N >= 16")
    if not (0 <= alpha <= 1) or c <= 0:
        raise DomainError("l_subexp needs 0 <= alpha <= 1 and c > 0")
    ln = math.log(n)
    return math.exp(c * ln**alpha * math.log(ln) ** (1.0 - alpha))
