"""Cluster data model: QoS classes, node placement and caps.

``ClusterState`` holds what enforcement changes: the pods placed on each
node, in placement order, and each node's best-effort cap.  A pod's qos,
requests and app are its app's ``AppProfile``, the scenario's own object;
the one node capacity is the scenario's too, held here once so that
``validate`` can check against it.  Every measured value lives in the
interval's trace rows; the state keeps a reference to the rows of the last
interval, not a copy of them.

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
    from .scenario import AppProfile
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
class NodeState:
    node_id: str
    pod_ids: list[str] = field(default_factory=list)  # placement order
    be_cpu_cap: float | None = None  # aggregate BE cores cap from suppression


@dataclass
class ClusterState:
    cpu_capacity: float  # cores, of every node
    mem_capacity: float  # bytes, of every node
    nodes: dict[str, NodeState] = field(default_factory=dict)
    pods: dict[str, AppProfile] = field(default_factory=dict)  # pod id -> its app
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
    if state.cpu_capacity <= 0:
        violations.append(f"non-positive cpu_capacity {state.cpu_capacity}")
    if state.mem_capacity <= 0:
        violations.append(f"non-positive mem_capacity {state.mem_capacity}")

    placed: dict[str, str] = {}  # pod id -> the first node that lists it
    for node_id, node in state.nodes.items():
        for pid in node.pod_ids:
            if pid not in state.pods:
                violations.append(f"node {node_id}: lists unknown pod {pid}")
            elif pid in placed:
                violations.append(f"pod {pid}: listed on {placed[pid]} and on {node_id}")
            else:
                placed[pid] = node_id
    for pod_id in state.pods:
        if pod_id not in placed:
            violations.append(f"pod {pod_id}: missing from every node's pod list")

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

    capacity = state.cpu_capacity
    for node_id, used in cores.items():
        usage = math.fsum(used)
        if usage > capacity * (1 + 1e-6):
            violations.append(
                f"node {node_id}: pod_cpu_cores sum {usage} exceeds capacity {capacity}"
            )

    return violations
