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

from .trace import NodeRow, TraceRow


@dataclass(frozen=True)
class UtilizationWeights:
    """Mix weights for the memory / CPU / shared-pool terms; must sum to 1."""

    alpha: float = 1.0 / 3.0
    beta: float = 1.0 / 3.0
    gamma: float = 1.0 / 3.0


@dataclass(frozen=True)
class DetectorConfig:
    k: float = 3.0
    deviation: str = "variance"      # "variance" (literal form) or "std"
    hysteresis_intervals: int = 12
    default_weights: UtilizationWeights = field(default_factory=UtilizationWeights)
    node_weights: dict[str, UtilizationWeights] = field(default_factory=dict)

    def weights_for(self, node_id: str) -> UtilizationWeights:
        return self.node_weights.get(node_id, self.default_weights)


def comprehensive_utilization(
    mem: float, cpu: float, shared: float, w: UtilizationWeights
) -> float:
    """Blend a node's memory, CPU, and shared-pool fractions into one [0, 1] score.

    The memory term saturates (M / (1 + M)), the CPU term is concave
    (sqrt), and the shared-pool term 2*C_sh - C_sh^2 rises steeply early:
    shared-pool contention is the leading interference signal.
    """
    if not (0.0 <= mem <= 1.0 and 0.0 <= cpu <= 1.0 and 0.0 <= shared <= 1.0):
        for name, value in (("mem_util", mem), ("cpu_total", cpu), ("cpu_shared", shared)):
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name}={value} outside [0, 1]")
    mem_term = mem / (1.0 + mem)
    cpu_term = math.sqrt(cpu)
    shared_term = 2.0 * shared - shared**2
    return w.alpha * mem_term + w.beta * cpu_term + w.gamma * shared_term


def selection_threshold(utilizations: list[float], k: float, deviation: str) -> float:
    """mean + k * spread over the per-node scores.

    The spread is the population variance under 'variance' (the literal form
    this pipeline is specified with), the standard deviation under 'std'.
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
class FlaggedApps:
    """Registry of applications currently under suspicion.

    ``entries`` maps each flagged app to its count of consecutive scans with
    every hosting node under threshold.
    """

    entries: dict[str, int] = field(default_factory=dict)

    def __contains__(self, app_id: str) -> bool:
        return app_id in self.entries

    def app_ids(self) -> list[str]:
        return sorted(self.entries)


def scan(
    node_rows: list[NodeRow],
    pod_rows: list[TraceRow],
    cfg: DetectorConfig,
    flagged: FlaggedApps,
) -> FlaggedApps:
    """One detection pass over an interval's rows; mutates and returns ``flagged``.

    ``node_rows`` holds each node once, in any order: nodes are scored in
    node-id order.  ``pod_rows`` say which apps each node hosts.  Nodes
    strictly above the selection threshold contribute their hosted
    applications; already-flagged applications are only dropped after
    hysteresis_intervals consecutive scans with all hosting nodes at or
    under threshold.
    """
    if not node_rows:
        raise ValueError("cluster has no nodes")
    scores = {
        row.node_id: comprehensive_utilization(
            row.node_mem_util, row.node_cpu_total, row.node_cpu_shared,
            cfg.weights_for(row.node_id),
        )
        for row in sorted(node_rows, key=lambda row: row.node_id)
    }
    threshold = selection_threshold(list(scores.values()), cfg.k, cfg.deviation)
    hot = {node_id for node_id, score in scores.items() if score > threshold}

    hosting: dict[str, set[str]] = {}
    for row in pod_rows:
        hosting.setdefault(row.app_id, set()).add(row.node_id)
    for app_id, nodes in hosting.items():
        if nodes & hot and app_id not in flagged.entries:
            flagged.entries[app_id] = 0

    for app_id in flagged.app_ids():
        if hosting.get(app_id, set()) & hot:
            flagged.entries[app_id] = 0
        else:
            flagged.entries[app_id] += 1
            if flagged.entries[app_id] >= cfg.hysteresis_intervals:
                del flagged.entries[app_id]

    return flagged
