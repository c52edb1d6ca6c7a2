"""Rolling-window statistics over a pod's measured CPI.

The window is a collection of the most recent samples, oldest first, at most
the configured length, so a short history degrades gracefully instead of
erroring.  The deviation is the population form (divide by the window
length, not length-1): thresholds derived from it must be stable for windows
as small as a single sample.
"""

from __future__ import annotations

import math
from collections.abc import Collection


def rolling_mean(values: Collection[float]) -> float:
    if not values:
        raise ValueError("no samples in the window")
    return sum(values) / len(values)


def rolling_std(values: Collection[float], mean: float | None = None) -> float:
    """Population standard deviation over the window.

    ``mean`` is the window's rolling_mean when the caller already has it.
    """
    if mean is None or not values:
        mean = rolling_mean(values)  # which refuses an empty window
    var = sum([(v - mean) ** 2 for v in values]) / len(values)
    # var can round to a tiny negative for near-constant windows
    return math.sqrt(max(0.0, var))
