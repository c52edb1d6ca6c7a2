"""Fixed-interval metric series and rolling-window statistics.

Every signal the control plane consumes (per-pod CPI, utilizations, miss
rates) is sampled on the same fixed cadence and summarized over a trailing
window.  The window always covers the min(n, len) most recent samples, so a
short series degrades gracefully instead of erroring, and the deviation is
the population form (divide by the window length, not length-1): thresholds
derived from it must be stable for windows as small as a single sample.
"""

from __future__ import annotations

import math


class OrderingError(ValueError):
    """Appended sample does not advance the series timestamp."""


class EmptyWindowError(ValueError):
    """A rolling statistic was requested over an empty series."""


class TimeSeries:
    """Append-only ring of samples with strictly increasing timestamps.

    The timestamps and values are two plain lists, oldest first; sample i is
    ``(timestamps[i], values[i])``.
    """

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.name = name
        self.capacity = capacity
        self.timestamps: list[float] = []  # seconds, interval-aligned, non-negative
        self.values: list[float] = []

    def __len__(self) -> int:
        return len(self.values)

    def record(self, timestamp: float, value: float) -> None:
        if timestamp < 0:
            raise ValueError(f"negative timestamp {timestamp}")
        if not math.isfinite(value):
            raise ValueError(f"non-finite sample value {value!r}")
        timestamps = self.timestamps
        if timestamps and timestamp <= timestamps[-1]:
            raise OrderingError(
                f"{self.name}: timestamp {timestamp} does not advance past {timestamps[-1]}"
            )
        timestamps.append(timestamp)
        self.values.append(value)
        if len(timestamps) > self.capacity:
            # Ring behavior: evict oldest.  One record admits one sample, so
            # a single delete keeps the invariant.
            del timestamps[0]
            del self.values[0]

    def window_values(self, n: int) -> list[float]:
        """The min(n, len) most recent values, oldest first."""
        if n < 1:
            raise ValueError("window must be at least 1 sample")
        if not self.values:
            raise EmptyWindowError(f"{self.name}: no samples")
        return self.values[-n:]


def rolling_mean(series: TimeSeries, n: int) -> float:
    values = series.window_values(n)
    return sum(values) / len(values)


def rolling_std(series: TimeSeries, n: int, mean: float | None = None) -> float:
    """Population standard deviation over the trailing window.

    ``mean`` is the window's rolling_mean when the caller already has it.
    """
    values = series.window_values(n)
    if mean is None:
        mean = sum(values) / len(values)
    var = sum([(v - mean) ** 2 for v in values]) / len(values)
    # var can round to a tiny negative for near-constant windows
    return math.sqrt(max(0.0, var))
