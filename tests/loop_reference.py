"""Reference builders for the control loop's per-pod state.

This is the loop's state as it was kept before each pod record owned its
detector entry and before the CPI ring stored plain floats: a fresh
``ClusterState`` built from the interval's observations, one new spec,
metrics and entry per pod, and a ring of one validated, frozen sample per
measurement.  Kept only as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ckoord.cluster import ClusterState, NodeState, PodEntry, PodMetrics, PodSpec
from ckoord.telemetry import DEFAULT_RETENTION_FACTOR, DEFAULT_WINDOW, EmptyWindowError, OrderingError


def detector_state(interval: int, pods, nodes) -> ClusterState:
    state = ClusterState(interval=interval)
    for node in nodes:
        state.nodes[node.node_id] = NodeState(
            node_id=node.node_id,
            cpu_capacity=node.cpu_capacity,
            mem_capacity=1.0,
            metrics=node.metrics,
        )
    for ob in pods:
        spec = PodSpec(
            pod_id=ob.pod_id,
            app_id=ob.app_id,
            node_id=ob.node_id,
            qos=ob.qos,
            cpu_request=ob.cpu_request,
            mem_request=ob.mem_request,
        )
        metrics = PodMetrics(
            cpu_util=ob.cpu_cores,
            mem_util=0.0,
            l3_miss_rate=float(ob.features[6]),
            cpi_actual=ob.cpi,
        )
        state.pods[ob.pod_id] = PodEntry(spec, metrics)
        state.nodes[ob.node_id].pod_ids.append(ob.pod_id)
    return state


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
            self.samples.pop(0)

    def record(self, timestamp: int, value: float) -> None:
        self.append(MetricSample(timestamp, value))

    def window_values(self, n: int) -> list[float]:
        if n < 1:
            raise ValueError("window must be at least 1 sample")
        if not self.samples:
            raise EmptyWindowError(f"{self.name}: no samples")
        return [s.value for s in self.samples[-n:]]


def rolling_mean(series: TimeSeries, n: int) -> float:
    values = series.window_values(n)
    return sum(values) / len(values)


def rolling_std(series: TimeSeries, n: int) -> float:
    values = series.window_values(n)
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return math.sqrt(max(0.0, var))
