"""The scalar CPU allocator, one node at a time: the oracle for the array
allocator in ``ckoord.simulator``, which must match it bit for bit.

Pods are (pod_id, qos, want_cores, request_cores) in pod-id order; every
sum runs over them in that order, left to right.
"""

from __future__ import annotations

import math

from ckoord.cluster import QosClass


def allocate_cpu(
    pods: list[tuple[str, QosClass, float, float]],
    avail: float,
    be_cap: float | None,
    qos_weights: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """Weighted fair shares with water-filling.

    pods: (pod_id, qos, want_cores, request_cores).  Returns (usage, potential)
    in cores; sum(usage) <= avail, BE usage in aggregate <= be_cap when set.
    potential >= usage is the headroom used for queueing delay.
    """
    best_effort = QosClass.BE  # one lookup, not a property call per test
    usage: dict[str, float] = {}
    potential: dict[str, float] = {}
    if not pods:
        return usage, potential
    avail = max(0.0, avail)
    weights = {pid: qos_weights[qos.value] * req for pid, qos, _, req in pods}
    total_w = sum(weights.values())
    share = {pid: avail * weights[pid] / total_w for pid in weights}

    be_ids = [pid for pid, qos, _, _ in pods if qos is best_effort]
    if be_cap is not None and be_ids:
        be_share = sum(share[pid] for pid in be_ids)
        if be_share > be_cap:
            scale = be_cap / be_share if be_share > 0 else 0.0
            freed = 0.0
            for pid in be_ids:
                freed += share[pid] * (1.0 - scale)
                share[pid] *= scale
            other = [pid for pid, qos, _, _ in pods if qos is not best_effort]
            other_w = sum(weights[pid] for pid in other)
            if other_w > 0:
                for pid in other:
                    share[pid] += freed * weights[pid] / other_w

    wants = {pid: want for pid, _, want, _ in pods}
    for pid in wants:
        usage[pid] = min(wants[pid], share[pid])

    def be_headroom() -> float:
        if be_cap is None:
            return math.inf
        return be_cap - sum(usage[pid] for pid in be_ids)

    extra = {pid: 0.0 for pid in wants}
    for _ in range(3):
        leftover = avail - sum(usage.values())
        if leftover <= 1e-12:
            break
        hungry = [
            (pid, qos)
            for pid, qos, _, _ in pods
            if wants[pid] - usage[pid] > 1e-12
            and (qos is not best_effort or be_headroom() > 1e-12)
        ]
        if not hungry:
            break
        hungry_w = sum(weights[pid] for pid, _ in hungry)
        headroom = be_headroom()
        for pid, qos in hungry:
            grant = leftover * weights[pid] / hungry_w
            if qos is best_effort:
                grant = min(grant, max(0.0, headroom))
            before = usage[pid]
            usage[pid] = min(wants[pid], usage[pid] + grant)
            granted = usage[pid] - before
            extra[pid] += granted
            if qos is best_effort:
                headroom -= granted

    idle = max(0.0, avail - sum(usage.values()))
    for pid, qos, _, _ in pods:
        base = max(usage[pid], share[pid] + extra[pid])
        bonus = idle * weights[pid] / total_w
        if qos is best_effort and be_cap is not None:
            base = min(max(usage[pid], base), max(usage[pid], be_cap))
            bonus = 0.0
        potential[pid] = base + bonus
    return usage, potential
