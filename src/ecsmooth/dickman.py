"""Dickman rho numerics and the saddle quantity xi(u).

rho is tabulated on a uniform grid via the equivalent integral form
u rho(u) = int_{u-1}^{u} rho(t) dt, which sums positive panels and therefore
keeps full relative accuracy down to rho ~ 1e-60 (the naive subtraction form
rho(u) = rho(u-h) - int rho(t-1)/t loses roughly two digits per unit interval
to cancellation).  Each panel uses the derivative-corrected trapezoid rule,
with rho'(t) = -rho(t-1)/t read off the grid one unit down; the sliding
window sum is recomputed exactly at every integer so rounding noise from the
incremental updates cannot pile up.  Step-halving is the self-convergence
oracle.  The table is built unit by unit up to the largest u asked, so a
caller that needs rho only on [0, 2] never pays for the grid to u = 50.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_STEP = 1.0 / 1024
DEFAULT_MAX_U = 50.0
MAX_PER_UNIT = 1 << 16  # the finest step is 1/MAX_PER_UNIT: at most 50 * 2^16 nodes


@dataclass
class RhoTable:
    """Grid of rho values with a cubic interpolation contract, built unit by
    unit up to the largest u asked; `values` is the complete grid."""

    step: float = DEFAULT_STEP
    max_u: float = DEFAULT_MAX_U
    _per_unit: int = field(init=False, repr=False)

    def __post_init__(self):
        # each check is written so that NaN fails it
        bad_step = DomainError(f"step must be 1/k for an integer k >= 8, got {self.step}")
        if not 0 < self.step <= 1.0 / 8:
            raise bad_step
        if self.step < 1.0 / MAX_PER_UNIT:
            raise CapacityError(f"step {self.step} is finer than 1/{MAX_PER_UNIT}")
        n = round(1.0 / self.step)
        if not abs(n * self.step - 1.0) <= 1e-12:
            raise bad_step
        if not 1 <= self.max_u <= DEFAULT_MAX_U:
            raise DomainError(f"max_u must be in [1, {DEFAULT_MAX_U}], got {self.max_u}")
        self._per_unit = n
        h = 1.0 / n
        total = int(round(self.max_u * n))
        self._v = np.ones(total + 1)
        # panel[k] = int_{(k-1)h}^{kh} rho; rho = 1 below u = 1
        self._panel = np.empty(total + 1)
        self._panel[: n + 1] = h
        # derivative rho'(kh) = -rho(kh - 1)/(kh), zero below u = 1;
        # at the kink u = 1 the panels to the right need the right-limit -1
        self._dv = np.zeros(total + 1)
        self._dv[n] = -1.0
        self._window = 1.0  # sum of the n panels ending at the last built node
        self._built = n  # nodes 0..n are rho = 1 and need no recurrence

    @property
    def values(self) -> np.ndarray:
        if self._built < self._v.size - 1:
            self._build(self._v.size - 1)
        return self._v

    def _build(self, last: int) -> None:
        """Run the recurrence from the last built node up to node `last`.
        Node k reads only nodes k - n .. k - 1, so the grid does not depend
        on how the build is split.  The loop runs on Python floats, one unit
        at a time: the unit's nodes and the n behind them are copied into
        lists and written back, because indexing numpy scalars costs more
        than the arithmetic."""
        n = self._per_unit
        h = 1.0 / n
        half, c = 0.5 * h, h * h / 12.0
        window = self._window
        k = self._built + 1
        while k <= last:
            end = min(last, -(-k // n) * n)  # the unit's end: the next multiple of n
            base = k - n
            v, panel, dv = (a[base : end + 1].tolist() for a in (self._v, self._panel, self._dv))
            v_prev, dv_prev = v[n - 1], dv[n - 1]
            for i in range(n, end - base + 1):
                u = (base + i) * h
                dv_i = dv[i] = -v[i - n] / u
                # corrected trapezoid, solved for the (linear) unknown v[k]:
                # u v[k] = window - panel[k-n] + h/2 (v[k-1]+v[k]) + h^2/12 (dv[k-1]-dv[k])
                slide = window - panel[i - n]
                corr = c * (dv_prev - dv_i)
                v_i = v[i] = (slide + half * v_prev + corr) / (u - half)
                panel_i = panel[i] = half * (v_prev + v_i) + corr
                window = slide + panel_i
                v_prev, dv_prev = v_i, dv_i
            if end % n == 0:
                # exact refresh kills accumulated rounding in the sliding sum
                window = math.fsum(panel[-n:])
            self._v[k : end + 1], self._panel[k : end + 1], self._dv[k : end + 1] = v[n:], panel[n:], dv[n:]
            k = end + 1
        self._window = window
        self._built = max(self._built, last)

    def _interp_at(self, u: float) -> float:
        """Cubic Lagrange interpolation with the 4-node stencil clamped inside
        the unit interval containing u (rho has kinks at the integers)."""
        n = self._per_unit
        pos = u * n
        k = int(pos)
        unit_lo = (k // n) * n
        unit_hi = unit_lo + n
        last = self._v.size - 1
        # at u = max_u the stencil ends at the last node instead
        i0 = min(max(k - 1, unit_lo), unit_hi - 3, last - 3)
        i0 = max(i0, 0)
        end = min(unit_hi, last)  # the stencil's unit interval ends here
        if self._built < end:
            self._build(end)
        xs = np.arange(i0, i0 + 4)
        ys = self._v[i0 : i0 + 4]
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


def xi(u: float) -> float:
    """Positive solution of exp(xi) = 1 + u*xi (Newton iteration)."""
    if not 1 < u < math.inf:  # written so that NaN fails it
        raise DomainError(f"xi domain is 1 < u < inf, got {u}")
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

