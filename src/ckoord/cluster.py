"""Cluster data model: QoS classes, pods, nodes, system-wide metrics.

Conventions that the rest of the pipeline relies on:
  * node-level CPU metrics are fractions of that node's capacity in [0, 1]
  * pod-level CPU is absolute cores; conversions are always explicit
  * validate() reports violations as data instead of raising, callers decide
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

FRACTION_SLACK = 1e-9  # tolerance for fraction-sum invariants


class QosClass(Enum):
    BE = "BE"          # best-effort: suppressible, evictable
    LS = "LS"          # latency-sensitive
    LSR = "LSR"        # latency-sensitive, reserved cores
    SYSTEM = "SYSTEM"  # cluster agents

    @property
    def latency_critical(self) -> bool:
        return self in (QosClass.LS, QosClass.LSR)

    @property
    def best_effort(self) -> bool:
        return self is QosClass.BE


@dataclass
class PodSpec:
    pod_id: str
    app_id: str
    node_id: str
    qos: QosClass
    cpu_request: float   # cores, > 0
    mem_request: float   # bytes, > 0

    def __post_init__(self) -> None:
        if self.cpu_request <= 0:
            raise ValueError(f"{self.pod_id}: cpu_request must be positive")
        if self.mem_request <= 0:
            raise ValueError(f"{self.pod_id}: mem_request must be positive")


@dataclass
class PodMetrics:
    cpu_util: float = 0.0      # cores in use, >= 0
    mem_util: float = 0.0      # bytes in use, >= 0
    l3_miss_rate: float = 0.0  # misses/s, >= 0
    cpi_actual: float = 1.0    # > 0


@dataclass
class NodeMetrics:
    """Per-node utilization fractions.

    cpu_offline tracks best-effort usage, cpu_online latency-critical usage,
    cpu_shared the shared-pool pressure; offline + online never exceeds
    cpu_total beyond rounding.
    """

    cpu_total: float = 0.0
    cpu_offline: float = 0.0
    cpu_online: float = 0.0
    cpu_shared: float = 0.0
    mem_util: float = 0.0


@dataclass
class SystemMetrics:
    cpu_total_sys: float = 0.0   # cluster-wide CPU fraction
    mem_total_sys: float = 0.0   # cluster-wide memory fraction


@dataclass
class NodeState:
    node_id: str
    cpu_capacity: float           # cores
    mem_capacity: float           # bytes
    metrics: NodeMetrics = field(default_factory=NodeMetrics)
    pod_ids: list[str] = field(default_factory=list)
    be_cpu_cap: float | None = None  # aggregate BE cores cap from suppression


@dataclass
class PodEntry:
    spec: PodSpec
    metrics: PodMetrics = field(default_factory=PodMetrics)


@dataclass
class ClusterState:
    interval: int = 0
    nodes: dict[str, NodeState] = field(default_factory=dict)
    pods: dict[str, PodEntry] = field(default_factory=dict)
    system: SystemMetrics = field(default_factory=SystemMetrics)


def _check_fraction(violations: list[str], where: str, name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        violations.append(f"{where}: {name}={value} outside [0, 1]")


def validate(state: ClusterState) -> list[str]:
    """Structural and range checks; returns violation strings, empty = OK."""
    violations: list[str] = []

    for node_id, node in state.nodes.items():
        if node.cpu_capacity <= 0:
            violations.append(f"node {node_id}: non-positive cpu_capacity")
        if node.mem_capacity <= 0:
            violations.append(f"node {node_id}: non-positive mem_capacity")
        m = node.metrics
        for name in ("cpu_total", "cpu_offline", "cpu_online", "cpu_shared", "mem_util"):
            _check_fraction(violations, f"node {node_id}", name, getattr(m, name))
        if m.cpu_offline + m.cpu_online > m.cpu_total + FRACTION_SLACK:
            violations.append(
                f"node {node_id}: cpu_offline+cpu_online "
                f"{m.cpu_offline + m.cpu_online} exceeds cpu_total {m.cpu_total}"
            )
        for pid in node.pod_ids:
            if pid not in state.pods:
                violations.append(f"node {node_id}: lists unknown pod {pid}")
            elif state.pods[pid].spec.node_id != node_id:
                violations.append(f"pod {pid}: node link mismatch with {node_id}")
        usage = sum(
            state.pods[pid].metrics.cpu_util for pid in node.pod_ids if pid in state.pods
        )
        if usage > node.cpu_capacity * (1 + 1e-6):
            violations.append(
                f"node {node_id}: pod cpu usage {usage} exceeds capacity {node.cpu_capacity}"
            )

    for pod_id, entry in state.pods.items():
        if entry.spec.node_id not in state.nodes:
            violations.append(f"pod {pod_id}: references unknown node {entry.spec.node_id}")
        elif pod_id not in state.nodes[entry.spec.node_id].pod_ids:
            violations.append(f"pod {pod_id}: missing from node {entry.spec.node_id} pod list")
        pm = entry.metrics
        if pm.cpu_util < 0:
            violations.append(f"pod {pod_id}: negative cpu_util")
        if pm.mem_util < 0:
            violations.append(f"pod {pod_id}: negative mem_util")
        if pm.l3_miss_rate < 0:
            violations.append(f"pod {pod_id}: negative l3_miss_rate")
        if pm.cpi_actual <= 0:
            violations.append(f"pod {pod_id}: cpi_actual must be positive")

    sysm = state.system
    _check_fraction(violations, "system", "cpu_total_sys", sysm.cpu_total_sys)
    _check_fraction(violations, "system", "mem_total_sys", sysm.mem_total_sys)

    return violations
