"""Dickman rho numerics and the saddle quantity xi(u).

rho is tabulated on a uniform grid via the equivalent integral form
u rho(u) = int_{u-1}^{u} rho(t) dt, which sums positive panels and therefore
keeps full relative accuracy down to rho ~ 1e-60 (the naive subtraction form
rho(u) = rho(u-h) - int rho(t-1)/t loses roughly two digits per unit interval
to cancellation).  Each panel uses the derivative-corrected trapezoid rule,
with rho'(t) = -rho(t-1)/t read off the grid one unit down; the sliding
window sum is recomputed exactly at every integer so rounding noise from the
incremental updates cannot pile up.  Step-halving is the self-convergence
oracle.  The table is built unit by unit up to the largest u asked and holds
only what the recurrence reads: the nodes built, the last n panels and two
floats, so a caller that needs rho only on [0, 2] never pays for u = 50.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DomainError

DEFAULT_STEP = 1.0 / 1024
DEFAULT_MAX_U = 50.0
MAX_PER_UNIT = 1 << 16  # the finest step is 1/MAX_PER_UNIT; 8 bytes per node built, none preallocated


@dataclass
class RhoTable:
    """Grid of rho values with a cubic interpolation contract, built unit by
    unit up to the largest u asked into an array('d') that grows at its end;
    `values` is a copy of the complete grid."""

    step: float = DEFAULT_STEP
    max_u: float = DEFAULT_MAX_U

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
        from array import array  # here, not at import: a process that asks no rho never loads it
        self._per_unit = n
        self._last = round(self.max_u * n)
        self._v = array("d", [1.0]) * (n + 1)  # nodes 0..n: rho = 1 below u = 1
        # panel k = int_{(k-1)h}^{kh} rho, for the n nodes up to the last built
        self._panels = deque([1.0 / n] * n, maxlen=n)
        # rho'(kh) = -rho(kh - 1)/(kh) at the last built node; at the kink
        # u = 1 the panels to the right need the right-limit -1
        self._dv = -1.0
        self._window = 1.0  # sum of the n panels ending at the last built node

    @property
    def values(self) -> np.ndarray:
        if len(self._v) <= self._last:
            self._build(self._last)
        return np.array(self._v)

    def _build(self, last: int) -> None:
        """Run the recurrence from the last built node up to node `last`,
        appending each node and its panel.  Every call ends at the end of a
        unit or at the table's last node, and node k reads only nodes k - n
        .. k - 1, so the grid does not depend on how the build is split."""
        n = self._per_unit
        h = 1.0 / n
        half, c = 0.5 * h, h * h / 12.0
        v, panels = self._v, self._panels
        window, v_prev, dv_prev = self._window, v[-1], self._dv
        for k in range(len(v), last + 1):
            u = k * h
            dv_k = -v[k - n] / u
            # corrected trapezoid, solved for the (linear) unknown v[k]:
            # u v[k] = window - panel[k-n] + h/2 (v[k-1]+v[k]) + h^2/12 (dv[k-1]-dv[k])
            slide = window - panels[0]
            corr = c * (dv_prev - dv_k)
            v_k = (slide + half * v_prev + corr) / (u - half)
            panel_k = half * (v_prev + v_k) + corr
            v.append(v_k)
            panels.append(panel_k)  # drops panel k - n
            window = slide + panel_k
            if k % n == 0:
                # exact refresh kills accumulated rounding in the sliding sum
                window = math.fsum(panels)
            v_prev, dv_prev = v_k, dv_k
        self._window, self._dv = window, dv_prev

    def _interp_at(self, u: float) -> float:
        """Cubic Lagrange interpolation with the 4-node stencil clamped inside
        the unit interval containing u (rho has kinks at the integers)."""
        n = self._per_unit
        pos = u * n
        k = int(pos)
        unit_lo = (k // n) * n
        unit_hi = unit_lo + n
        # at u = max_u the stencil ends at the last node instead
        i0 = min(max(k - 1, unit_lo), unit_hi - 3, self._last - 3)
        i0 = max(i0, 0)
        end = min(unit_hi, self._last)  # the stencil's unit interval ends here
        if len(self._v) <= end:
            self._build(end)
        res = 0.0
        for j in range(4):
            w = 1.0
            for m in range(4):
                if m != j:
                    w *= (pos - (i0 + m)) / (j - m)
            res += w * self._v[i0 + j]
        return res

    def rho(self, u: float) -> float:
        if not u >= 0:  # written so that NaN fails it
            raise DomainError(f"rho domain is u >= 0, got {u}")
        if u > self.max_u:
            raise DomainError(f"u={u} beyond table max_u={self.max_u}")
        if u <= 1.0:
            return 1.0
        return self._interp_at(u)


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

