"""Summary statistics for timings: median, quartile spread, tail percentile."""

from __future__ import annotations

import math
import statistics
from typing import Optional, Sequence

# Candidate tail percentiles, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
MIN_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def _rank(pct: float, n: int) -> int:
    # rounding first keeps 99.9% of 10000 at rank 9990, not 9991
    return max(1, math.ceil(round(pct / 100.0 * n, 9)))


def nearest_rank(values: Sequence[float], pct: float) -> float:
    """The pct-th percentile by the nearest-rank rule."""
    ordered = sorted(values)
    return float(ordered[_rank(pct, len(ordered)) - 1])


def tail_percentile(values: Sequence[float]) -> Optional[tuple[float, float]]:
    """(pct, value) of the highest candidate percentile with at least ten
    samples beyond it, or None when there are too few samples for any."""
    n = len(values)
    for pct in TAIL_PERCENTILES:
        if n - _rank(pct, n) >= MIN_BEYOND:
            return pct, nearest_rank(values, pct)
    return None


def timing_summary(values: Sequence[float]) -> dict:
    """Median, sample count and tail percentile of a list of durations."""
    out = {"n": len(values), "median": median(values) if values else None}
    tail = tail_percentile(values)
    if tail is not None:
        out[f"p{tail[0]:g}"] = tail[1]
    return out


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2
