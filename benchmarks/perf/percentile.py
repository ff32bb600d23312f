"""Linear-interpolated percentiles for the serving benchmark harnesses."""

from __future__ import annotations

import math


def percentile(values, fraction: float) -> float:
    """Percentile of a sample (any order); ``fraction`` is in ``[0, 1]``.

    Interpolates linearly between the two nearest ranks; an empty sample
    reads 0.0.
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = fraction * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    weight = rank - low
    return float(ordered[low] * (1.0 - weight) + ordered[high] * weight)
