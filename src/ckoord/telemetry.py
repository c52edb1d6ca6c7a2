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
from dataclasses import dataclass, field

DEFAULT_WINDOW = 60          # samples; 5 min at the 5 s cadence
DEFAULT_RETENTION_FACTOR = 4  # ring keeps retention_factor * window samples


class OrderingError(ValueError):
    """Appended sample does not advance the series timestamp."""


class EmptyWindowError(ValueError):
    """A rolling statistic was requested over an empty series."""


@dataclass(frozen=True)
class MetricSample:
    timestamp: int  # seconds, interval-aligned, non-negative
    value: float

    def __post_init__(self) -> None:
        if self.timestamp < 0:
            raise ValueError(f"negative timestamp {self.timestamp}")
        if not math.isfinite(self.value):
            raise ValueError(f"non-finite sample value {self.value!r}")


@dataclass
class TimeSeries:
    """Append-only ring of samples with strictly increasing timestamps."""

    name: str
    capacity: int = DEFAULT_RETENTION_FACTOR * DEFAULT_WINDOW
    samples: list[MetricSample] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.capacity < 1:
            raise ValueError("capacity must be at least 1")

    def __len__(self) -> int:
        return len(self.samples)

    def append(self, sample: MetricSample) -> None:
        if self.samples and sample.timestamp <= self.samples[-1].timestamp:
            raise OrderingError(
                f"{self.name}: timestamp {sample.timestamp} does not advance "
                f"past {self.samples[-1].timestamp}"
            )
        self.samples.append(sample)
        if len(self.samples) > self.capacity:
            # Ring behavior: evict oldest.  One append admits one sample, so a
            # single pop keeps the invariant.
            self.samples.pop(0)

    def record(self, timestamp: int, value: float) -> None:
        self.append(MetricSample(timestamp, value))

    def window_values(self, n: int) -> list[float]:
        """The min(n, len) most recent values, oldest first."""
        if n < 1:
            raise ValueError("window must be at least 1 sample")
        if not self.samples:
            raise EmptyWindowError(f"{self.name}: no samples")
        return [s.value for s in self.samples[-n:]]


def rolling_mean(series: TimeSeries, n: int) -> float:
    values = series.window_values(n)
    return sum(values) / len(values)


def rolling_std(series: TimeSeries, n: int) -> float:
    """Population standard deviation over the trailing window."""
    values = series.window_values(n)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    # var can round to a tiny negative for near-constant windows
    return math.sqrt(max(0.0, var))
