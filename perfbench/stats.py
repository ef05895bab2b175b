"""Order statistics used by the benchmark."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10  # samples a reported tail percentile must leave above it


def percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile of an ascending list, q in (0, 1]."""
    if not sorted_values:
        raise ValueError("percentile of an empty sample")
    if not 0 < q <= 1:
        raise ValueError(f"percentile rank q={q} is outside (0, 1]")
    return sorted_values[max(1, math.ceil(len(sorted_values) * q)) - 1]


def tail_percentile(values: list[float], q: float) -> float:
    """The q-th percentile, refused unless at least MIN_BEYOND samples lie
    beyond its rank."""
    n = len(values)
    beyond = n - max(1, math.ceil(n * q))
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{100 * q:g} of {n} samples leaves {beyond} beyond it, fewer than {MIN_BEYOND}"
        )
    return percentile(sorted(values), q)


def samples_for(q: float) -> int:
    """Fewest samples for which tail_percentile(q) is defined."""
    n = MIN_BEYOND
    while n - math.ceil(n * q) < MIN_BEYOND:
        n += 1
    return n


def quartile_spread(values: list[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median, as statistics.quantiles(values, n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0
