"""Two-tier mitigation: suppress best-effort CPU, or evict best-effort pods.

Severity routing is driven by the contention severity index (CSI) from the
predictor: no action when undetected, CPU suppression for mild contention
(1 < CSI < severity_boundary), eviction at or above the boundary.  Only
best-effort pods are ever suppressed or evicted; latency-critical and system
pods are untouchable by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

from .cluster import ClusterState, QosClass
from .predictor import DetectionVerdict
from .trace import TraceRow

_BEST_EFFORT = QosClass.BE.value
_LATENCY_CRITICAL = frozenset(q.value for q in QosClass if q.latency_critical)


class Severity(Enum):
    NONE = "none"
    MILD = "mild"
    SEVERE = "severe"


@dataclass(frozen=True)
class MitigationConfig:
    severity_boundary: float = 5.0 / 3.0
    cpu_reserve_fraction: float = 0.10  # of node capacity, kept free of BE load
    eviction_ratio: float = 0.25        # mu: evict BE pods above mu * node capacity
    cooldown_intervals: int = 2


@dataclass(frozen=True)
class Suppress:
    node_id: str
    cpu_restriction: float  # aggregate BE cores cap, >= 0


@dataclass(frozen=True)
class Evict:
    node_id: str
    pod_ids: tuple[str, ...]  # sorted, all best-effort


@dataclass(frozen=True)
class NoOp:
    node_id: str = ""


MitigationAction = Suppress | Evict | NoOp


def route(verdict: DetectionVerdict, cfg: MitigationConfig) -> Severity:
    """Map a verdict to a mitigation tier; the boundary itself is severe."""
    if not verdict.detected or verdict.csi is None:
        return Severity.NONE
    if verdict.csi >= cfg.severity_boundary or math.isinf(verdict.csi):
        return Severity.SEVERE
    if verdict.csi > 1.0:
        return Severity.MILD
    # Detected implies csi > 1 under strict comparison; anything else routes to none.
    return Severity.NONE


def cpu_suppress(
    pods: list[TraceRow], capacity: float, node_id: str, cfg: MitigationConfig
) -> MitigationAction:
    """Cap aggregate best-effort CPU to what latency-critical load leaves over.

    restriction = max(0, capacity - (LS/LSR usage + reserve)); the simulator
    apportions the cap to individual BE pods proportionally to current usage
    when it enforces the action on the next interval.
    """
    ls_used = 0.0
    has_be = False
    for pod in pods:
        if pod.qos in _LATENCY_CRITICAL:
            ls_used += pod.pod_cpu_cores
        elif pod.qos == _BEST_EFFORT:
            has_be = True
    if not has_be:
        return NoOp(node_id)
    reserve = cfg.cpu_reserve_fraction * capacity
    restriction = max(0.0, capacity - (ls_used + reserve))
    return Suppress(node_id, restriction)


def evict_candidates(
    pods: list[TraceRow], capacity: float, node_id: str, cfg: MitigationConfig
) -> MitigationAction:
    """Pick best-effort pods to evict from one node.

    Primary rule: every BE pod using more than eviction_ratio * capacity.
    Fallback when none cross the bar: the single heaviest BE pod, so a
    severe verdict always sheds something.  Nodes without BE pods no-op.
    """
    be_pods = [pod for pod in pods if pod.qos == _BEST_EFFORT]
    if not be_pods:
        return NoOp(node_id)
    bar = cfg.eviction_ratio * capacity
    over = [pod.pod_id for pod in be_pods if pod.pod_cpu_cores > bar]
    if over:
        return Evict(node_id, tuple(sorted(over)))
    heaviest = max(be_pods, key=lambda pod: (pod.pod_cpu_cores, pod.pod_id))
    return Evict(node_id, (heaviest.pod_id,))


def plan(
    pods: list[TraceRow],
    capacity: float,
    node_id: str,
    severity: Severity,
    cfg: MitigationConfig,
) -> MitigationAction:
    """The action for one node of ``capacity`` cores at ``severity``.

    ``pods`` are the node's trace rows of the interval, in row order; only
    their ``qos``, ``pod_cpu_cores`` and ``pod_id`` are read.
    """
    if severity is Severity.SEVERE:
        action = evict_candidates(pods, capacity, node_id, cfg)
        if isinstance(action, NoOp):
            # degenerate severe case: nothing evictable, cap whatever slack is left
            action = cpu_suppress(pods, capacity, node_id, cfg)
        return action
    if severity is Severity.MILD:
        return cpu_suppress(pods, capacity, node_id, cfg)
    return NoOp(node_id)


def apply(action: MitigationAction, state: ClusterState) -> ClusterState:
    """Apply an action to the live state and return it.

    Suppression records the BE cap on the node (enforced by the resource
    allocator from the next interval on); eviction detaches the pods from
    the state entirely, and the caller decides about rescheduling.
    """
    if isinstance(action, NoOp):
        return state
    if action.node_id not in state.nodes:
        raise KeyError(f"unknown node {action.node_id}")
    node = state.nodes[action.node_id]
    if isinstance(action, Suppress):
        if action.cpu_restriction < 0:
            raise ValueError("cpu_restriction must be >= 0")
        node.be_cpu_cap = action.cpu_restriction
        return state
    for pod_id in action.pod_ids:
        if pod_id not in state.pods:
            raise KeyError(f"unknown pod {pod_id}")
        if not state.pods[pod_id].qos.best_effort:
            raise ValueError(f"refusing to evict non-BE pod {pod_id}")
        if pod_id not in node.pod_ids:
            raise KeyError(f"pod {pod_id} is not on node {action.node_id}")
        node.pod_ids.remove(pod_id)
        del state.pods[pod_id]
    return state
