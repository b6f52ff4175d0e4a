"""Summary statistics shared by the runner and the comparison tool."""

from __future__ import annotations

import statistics


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile ``q`` in [0, 100] of ``values``."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


def quartiles(values: list[float]) -> tuple[float, float]:
    """``(q1, q3)`` as ``statistics.quantiles(values, n=4)`` gives them
    (both equal the single value when there is only one sample)."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summary(samples: list[float]) -> dict:
    """Median, quartiles and sample count of ``samples``."""
    q1, q3 = quartiles(samples)
    return {
        "value": statistics.median(samples),
        "q1": q1,
        "q3": q3,
        "n": len(samples),
    }
