"""Reference builders for the control loop's decision inputs and CPI rings.

``detector_state`` is the cluster view the detector and the mitigator read
before they read trace rows: a fresh ``ClusterView`` built from the
interval's rows and the scenario's requests and capacities, one new spec,
metrics and entry per pod; ``decide_reference`` decides on it.  The view
types and the pod spec are the ones ``ckoord.cluster`` defined then, kept
here with the fields that path reads.  The ring is
the CPI ring as it was kept before it stored plain floats: one validated,
frozen sample per measurement.  Kept only as oracles.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ckoord.cluster import QosClass


class OrderingError(ValueError):
    """Appended sample does not advance the series timestamp."""


class EmptyWindowError(ValueError):
    """A rolling statistic was requested over an empty series."""


@dataclass
class PodSpec:
    pod_id: str
    app_id: str
    node_id: str
    qos: QosClass
    cpu_request: float   # cores, > 0
    mem_request: float   # bytes, > 0


@dataclass
class PodMetrics:
    cpu_util: float = 0.0      # cores in use, >= 0
    mem_util: float = 0.0      # bytes in use, >= 0
    l3_miss_rate: float = 0.0  # misses/s, >= 0
    cpi_actual: float = 1.0    # > 0


@dataclass
class NodeMetrics:
    cpu_total: float = 0.0
    cpu_offline: float = 0.0
    cpu_online: float = 0.0
    cpu_shared: float = 0.0
    mem_util: float = 0.0


@dataclass
class NodeView:
    node_id: str
    cpu_capacity: float
    mem_capacity: float
    metrics: NodeMetrics = field(default_factory=NodeMetrics)
    pod_ids: list[str] = field(default_factory=list)


@dataclass
class PodEntry:
    spec: PodSpec
    metrics: PodMetrics = field(default_factory=PodMetrics)


@dataclass
class ClusterView:
    interval: int = 0
    nodes: dict[str, NodeView] = field(default_factory=dict)
    pods: dict[str, PodEntry] = field(default_factory=dict)


def detector_state(interval: int, pod_rows, node_rows, scenario) -> ClusterView:
    state = ClusterView(interval=interval)
    for row in node_rows:
        state.nodes[row.node_id] = NodeView(
            node_id=row.node_id,
            cpu_capacity=scenario.cpu_capacity,
            mem_capacity=scenario.mem_capacity,
            metrics=NodeMetrics(
                cpu_total=row.node_cpu_total,
                cpu_offline=row.node_cpu_offline,
                cpu_online=row.node_cpu_online,
                cpu_shared=row.node_cpu_shared,
                mem_util=row.node_mem_util,
            ),
        )
    for row in pod_rows:
        profile = scenario.apps[row.app_id]
        spec = PodSpec(
            pod_id=row.pod_id,
            app_id=row.app_id,
            node_id=row.node_id,
            qos=QosClass(row.qos),
            cpu_request=profile.cpu_request,
            mem_request=profile.mem_request,
        )
        metrics = PodMetrics(
            cpu_util=row.pod_cpu_cores,
            mem_util=0.0,
            l3_miss_rate=row.l3_miss_rate,
            cpi_actual=row.cpi,
        )
        state.pods[row.pod_id] = PodEntry(spec, metrics)
        state.nodes[row.node_id].pod_ids.append(row.pod_id)
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
    capacity: int
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
