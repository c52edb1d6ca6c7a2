"""Reference decisions on a ``ClusterView`` of one interval.

This is the detector's scan and the mitigator's plan as they were when the
control loop kept a view of the cluster for them: node metrics and pod
entries built from the interval's rows (``loop_reference.detector_state``),
read through the state's per-node and per-app lookups, inlined here.  The
flagged-app entry is the one ``ckoord.detector`` defined then, kept here with
its fields.  Kept only as an oracle for the row-based ``scan`` and ``plan``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from ckoord.detector import (
    DetectorConfig,
    FlaggedApps,
    UtilizationWeights,
    selection_threshold,
)
from ckoord.mitigator import Evict, MitigationAction, MitigationConfig, NoOp, Severity, Suppress
from loop_reference import ClusterView, NodeMetrics


@dataclass
class FlaggedEntry:
    flagged_at_interval: int
    node_ids: set[str] = field(default_factory=set)
    stable_intervals: int = 0


def comprehensive_utilization(m: NodeMetrics, w: UtilizationWeights) -> float:
    mem, cpu, shared = m.mem_util, m.cpu_total, m.cpu_shared
    if not (0.0 <= mem <= 1.0 and 0.0 <= cpu <= 1.0 and 0.0 <= shared <= 1.0):
        for name in ("mem_util", "cpu_total", "cpu_shared"):
            value = getattr(m, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
    mem_term = mem / (1.0 + mem)
    cpu_term = math.sqrt(cpu)
    shared_term = 2.0 * shared - shared**2
    return w.alpha * mem_term + w.beta * cpu_term + w.gamma * shared_term


def scan(state: ClusterView, cfg: DetectorConfig, flagged: FlaggedApps) -> FlaggedApps:
    node_ids = sorted(state.nodes)
    if not node_ids:
        raise ValueError("cluster has no nodes")
    scores = {
        node_id: comprehensive_utilization(state.nodes[node_id].metrics, cfg.weights_for(node_id))
        for node_id in node_ids
    }
    threshold = selection_threshold([scores[n] for n in node_ids], cfg.k, cfg.deviation)

    hot_nodes = {n for n in node_ids if scores[n] > threshold}
    for node_id in sorted(hot_nodes):
        apps_on = {state.pods[pid].spec.app_id for pid in state.nodes[node_id].pod_ids}
        for app_id in sorted(apps_on):
            entry = flagged.entries.get(app_id)
            if entry is None:
                flagged.entries[app_id] = FlaggedEntry(
                    flagged_at_interval=state.interval, node_ids={node_id}
                )
            else:
                entry.node_ids.add(node_id)

    for app_id in flagged.app_ids():
        entry = flagged.entries[app_id]
        hosting = sorted(
            {e.spec.node_id for e in state.pods.values() if e.spec.app_id == app_id}
        )
        if not hosting or all(scores.get(n, 0.0) <= threshold for n in hosting):
            entry.stable_intervals += 1
            if entry.stable_intervals >= cfg.hysteresis_intervals:
                del flagged.entries[app_id]
        else:
            entry.stable_intervals = 0

    return flagged


def cpu_suppress(state: ClusterView, node_id: str, cfg: MitigationConfig) -> MitigationAction:
    node = state.nodes[node_id]
    ls_used = 0.0
    has_be = False
    for entry in [state.pods[pid] for pid in node.pod_ids]:
        if entry.spec.qos.latency_critical:
            ls_used += entry.metrics.cpu_util
        elif entry.spec.qos.best_effort:
            has_be = True
    if not has_be:
        return NoOp(node_id)
    reserve = cfg.cpu_reserve_fraction * node.cpu_capacity
    restriction = max(0.0, node.cpu_capacity - (ls_used + reserve))
    return Suppress(node_id, restriction)


def evict_candidates(state: ClusterView, node_id: str, cfg: MitigationConfig) -> MitigationAction:
    node = state.nodes[node_id]
    be_pods = [e for e in (state.pods[pid] for pid in node.pod_ids) if e.spec.qos.best_effort]
    if not be_pods:
        return NoOp(node_id)
    bar = cfg.eviction_ratio * node.cpu_capacity
    over = [e.spec.pod_id for e in be_pods if e.metrics.cpu_util > bar]
    if over:
        return Evict(node_id, tuple(sorted(over)))
    heaviest = max(be_pods, key=lambda e: (e.metrics.cpu_util, e.spec.pod_id))
    return Evict(node_id, (heaviest.spec.pod_id,))


def plan(
    state: ClusterView, node_id: str, severity: Severity, cfg: MitigationConfig
) -> MitigationAction:
    if severity is Severity.SEVERE:
        action = evict_candidates(state, node_id, cfg)
        if isinstance(action, NoOp):
            action = cpu_suppress(state, node_id, cfg)
        return action
    if severity is Severity.MILD:
        return cpu_suppress(state, node_id, cfg)
    return NoOp(node_id)
