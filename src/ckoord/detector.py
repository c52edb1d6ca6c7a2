"""Node-level interference screening.

Each scan condenses a node's memory, CPU, and shared-pool utilization into a
single comprehensive score, thresholds the scores across the cluster, and
flags every application hosted on an over-threshold node as a candidate for
the per-pod prediction stage.  Flags persist with hysteresis so episodic dips
do not bounce applications in and out of the candidate list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .cluster import ClusterState, NodeMetrics

WEIGHT_SLACK = 1e-9


@dataclass(frozen=True)
class UtilizationWeights:
    """Mix weights for the memory / CPU / shared-pool terms; must sum to 1."""

    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    gamma: float = 1.0 / 3.0

    def __post_init__(self) -> None:
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        total = self.alpha + self.beta + self.gamma
        if abs(total - 1.0) > WEIGHT_SLACK:
            raise ValueError(f"weights sum to {total}, expected 1")


@dataclass(frozen=True)
class DetectorConfig:
    k: float = 3.0
    deviation: str = "variance"      # "variance" (literal form) or "std"
    hysteresis_intervals: int = 12
    default_weights: UtilizationWeights = field(default_factory=UtilizationWeights)
    node_weights: dict[str, UtilizationWeights] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.k < 0:
            raise ValueError("k must be non-negative")
        if self.deviation not in ("variance", "std"):
            raise ValueError(f"deviation must be 'variance' or 'std', got {self.deviation!r}")
        if self.hysteresis_intervals < 1:
            raise ValueError("hysteresis_intervals must be >= 1")

    def weights_for(self, node_id: str) -> UtilizationWeights:
        return self.node_weights.get(node_id, self.default_weights)


def comprehensive_utilization(m: NodeMetrics, w: UtilizationWeights) -> float:
    """Blend memory, CPU, and shared-pool pressure into one [0, 1] score.

    The memory term saturates (M / (1 + M)), the CPU term is concave
    (sqrt), and the shared-pool term 2*C_sh - C_sh^2 rises steeply early:
    shared-pool contention is the leading interference signal.
    """
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


def selection_threshold(utilizations: list[float], k: float, deviation: str = "variance") -> float:
    """mean + k * spread over the per-node scores.

    The spread is the population variance by default (the literal form this
    pipeline is specified with); 'std' switches to the standard deviation.
    """
    if not utilizations:
        raise ValueError("no utilization scores")
    n = len(utilizations)
    mean = sum(utilizations) / n
    var = sum([(u - mean) ** 2 for u in utilizations]) / n
    if deviation == "variance":
        return mean + k * var
    if deviation == "std":
        return mean + k * math.sqrt(max(0.0, var))
    raise ValueError(f"deviation must be 'variance' or 'std', got {deviation!r}")


@dataclass
class FlaggedEntry:
    flagged_at_interval: int
    node_ids: set[str] = field(default_factory=set)
    stable_intervals: int = 0  # consecutive scans with every hosting node under threshold


@dataclass
class FlaggedApps:
    """Registry of applications currently under suspicion."""

    entries: dict[str, FlaggedEntry] = field(default_factory=dict)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self.entries

    def app_ids(self) -> list[str]:
        return sorted(self.entries)


def scan(state: ClusterState, cfg: DetectorConfig, flagged: FlaggedApps) -> FlaggedApps:
    """One detection pass over the cluster; mutates and returns ``flagged``.

    Nodes strictly above the selection threshold contribute their hosted
    applications; already-flagged applications are only dropped after
    hysteresis_intervals consecutive scans with all hosting nodes at or
    under threshold.
    """
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
        for app_id in sorted(state.apps_on(node_id)):
            entry = flagged.entries.get(app_id)
            if entry is None:
                flagged.entries[app_id] = FlaggedEntry(
                    flagged_at_interval=state.interval, node_ids={node_id}
                )
            else:
                entry.node_ids.add(node_id)

    for app_id in flagged.app_ids():
        entry = flagged.entries[app_id]
        hosting = state.nodes_hosting(app_id)
        if not hosting or all(scores.get(n, 0.0) <= threshold for n in hosting):
            entry.stable_intervals += 1
            if entry.stable_intervals >= cfg.hysteresis_intervals:
                del flagged.entries[app_id]
        else:
            entry.stable_intervals = 0

    return flagged
