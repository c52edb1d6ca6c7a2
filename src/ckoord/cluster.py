"""Cluster data model: QoS classes, pod specs, node placement and caps.

``ClusterState`` holds what only the simulator knows: each pod's spec, each
node's capacities, the pods placed on it and its best-effort cap.  Every
measured value lives in the interval's trace rows; the state keeps a
reference to the rows of the last interval, not a copy of them.

Conventions that the rest of the pipeline relies on:
  * node-level CPU metrics are fractions of that node's capacity in [0, 1]
  * pod-level CPU is absolute cores; conversions are always explicit
  * validate() reports violations as data instead of raising, callers decide
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .trace import NodeRow, TraceRow

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
class NodeState:
    node_id: str
    cpu_capacity: float           # cores
    mem_capacity: float           # bytes
    pod_ids: list[str] = field(default_factory=list)
    be_cpu_cap: float | None = None  # aggregate BE cores cap from suppression


@dataclass
class ClusterState:
    nodes: dict[str, NodeState] = field(default_factory=dict)
    pods: dict[str, PodSpec] = field(default_factory=dict)
    # the last interval's rows, the very lists its step returned
    pod_rows: list[TraceRow] = field(default_factory=list)
    node_rows: list[NodeRow] = field(default_factory=list)


def _check_fraction(violations: list[str], where: str, name: str, value: float) -> None:
    if not 0.0 <= value <= 1.0:
        violations.append(f"{where}: {name}={value} outside [0, 1]")


def validate(state: ClusterState) -> list[str]:
    """Placement checks on the state, range checks on its last interval's
    rows; returns violation strings, empty = OK."""
    violations: list[str] = []

    for node_id, node in state.nodes.items():
        if node.cpu_capacity <= 0:
            violations.append(f"node {node_id}: non-positive cpu_capacity")
        if node.mem_capacity <= 0:
            violations.append(f"node {node_id}: non-positive mem_capacity")
        for pid in node.pod_ids:
            if pid not in state.pods:
                violations.append(f"node {node_id}: lists unknown pod {pid}")
            elif state.pods[pid].node_id != node_id:
                violations.append(f"pod {pid}: node link mismatch with {node_id}")

    for pod_id, spec in state.pods.items():
        if spec.node_id not in state.nodes:
            violations.append(f"pod {pod_id}: references unknown node {spec.node_id}")
        elif pod_id not in state.nodes[spec.node_id].pod_ids:
            violations.append(f"pod {pod_id}: missing from node {spec.node_id} pod list")

    for row in state.node_rows:
        where = f"node {row.node_id}"
        for name, value in zip(row._fields[2:], row[2:]):
            _check_fraction(violations, where, name, value)
        busy = row.node_cpu_offline + row.node_cpu_online
        if busy > row.node_cpu_total + FRACTION_SLACK:
            violations.append(
                f"{where}: node_cpu_offline+node_cpu_online {busy} "
                f"exceeds node_cpu_total {row.node_cpu_total}"
            )

    cores: dict[str, list[float]] = {}
    for row in state.pod_rows:
        where = f"pod {row.pod_id}"
        if row.node_id in state.nodes:
            cores.setdefault(row.node_id, []).append(row.pod_cpu_cores)
        else:
            violations.append(f"{where}: row names unknown node {row.node_id}")
        for name in ("pod_cpu_util", "pod_mem_util", "l3_miss_rate", "pod_cpu_cores"):
            if not getattr(row, name) >= 0.0:
                violations.append(f"{where}: negative {name}={getattr(row, name)}")
        if not row.cpi > 0.0:
            violations.append(f"{where}: cpi={row.cpi} must be positive")
        _check_fraction(violations, where, "sys_cpu_total", row.sys_cpu_total)
        _check_fraction(violations, where, "sys_mem_total", row.sys_mem_total)

    for node_id, used in cores.items():
        usage = math.fsum(used)
        capacity = state.nodes[node_id].cpu_capacity
        if usage > capacity * (1 + 1e-6):
            violations.append(
                f"node {node_id}: pod_cpu_cores sum {usage} exceeds capacity {capacity}"
            )

    return violations
