import copy
import math
import random
from dataclasses import replace

import pytest

from ckoord.cluster import ClusterState, NodeState, QosClass
from ckoord.mitigator import (
    Evict,
    MitigationConfig,
    NoOp,
    Severity,
    Suppress,
    apply,
    cpu_suppress,
    evict_candidates,
    plan,
    route,
)
from ckoord.predictor import DetectionVerdict
from ckoord.scenario import default_config, validate_config
from helpers import trace_row

CFG = MitigationConfig()


def verdict(csi, detected=True):
    return DetectionVerdict("web", 0.5, 0.1, detected, csi)


def test_route_mild_band():
    assert route(verdict(1.2), CFG) is Severity.MILD
    assert route(verdict(1.6), CFG) is Severity.MILD


def test_route_severe():
    assert route(verdict(2.0), CFG) is Severity.SEVERE


def test_route_boundary_is_severe():
    assert route(verdict(5.0 / 3.0), CFG) is Severity.SEVERE


def test_route_infinite_severity():
    assert route(verdict(math.inf), CFG) is Severity.SEVERE


def test_route_undetected_is_none():
    assert route(DetectionVerdict("web", 0.1, 0.5, False, None), CFG) is Severity.NONE


def test_route_monotone_in_csi():
    order = {Severity.NONE: 0, Severity.MILD: 1, Severity.SEVERE: 2}
    prev = 0
    for csi in [1.01, 1.3, 5 / 3 - 1e-9, 5 / 3, 2.5, 100.0]:
        rank = order[route(verdict(csi), CFG)]
        assert rank >= prev
        prev = rank


def rows_of(pods):
    """pods: (pod_id, app_id, qos, cpu_util), as one node's trace rows."""
    return [trace_row(pod_id, app, "node-00", qos.value, cpu) for pod_id, app, qos, cpu in pods]


def build_state(node_capacity=32.0, pods=()):
    """pods: (pod_id, app_id, qos, cpu_util) all placed on one node, each
    pod's app a default app given that id and QoS."""
    app = validate_config(default_config()).apps["batch"]
    state = ClusterState(node_capacity, 64 * 2**30)
    state.nodes["node-00"] = NodeState("node-00")
    for pod_id, app_id, qos, cpu in pods:
        state.pods[pod_id] = replace(app, app_id=app_id, qos=qos)
        state.nodes["node-00"].pod_ids.append(pod_id)
    state.pod_rows = rows_of(pods)
    return state


def test_suppress_leaves_ls_plus_reserve():
    pods = rows_of(
        [
            ("web-0", "web", QosClass.LS, 12.0),
            ("web-1", "web", QosClass.LSR, 8.0),
            ("batch-0", "batch", QosClass.BE, 6.0),
        ]
    )
    cfg = MitigationConfig(cpu_reserve_fraction=0.125)
    action = cpu_suppress(pods, 32.0, "node-00", cfg)
    # 32 - (20 LS + 4 reserve) = 8 cores left for BE
    assert isinstance(action, Suppress)
    assert action.cpu_restriction == pytest.approx(8.0)


def test_suppress_floors_at_zero():
    pods = rows_of(
        [
            ("web-0", "web", QosClass.LS, 9.5),
            ("batch-0", "batch", QosClass.BE, 2.0),
        ]
    )
    action = cpu_suppress(pods, 10.0, "node-00", CFG)
    assert isinstance(action, Suppress)
    assert action.cpu_restriction == 0.0


def test_suppress_without_be_pods_is_noop():
    pods = rows_of([("web-0", "web", QosClass.LS, 5.0)])
    assert isinstance(cpu_suppress(pods, 32.0, "node-00", CFG), NoOp)


def test_suppress_partition_identity():
    # when the cap is positive, restriction + LS usage + reserve == capacity
    rng = random.Random(7)
    for _ in range(50):
        cap = rng.uniform(8, 64)
        ls = rng.uniform(0, cap * 0.7)
        pods = rows_of(
            [
                ("web-0", "web", QosClass.LS, ls),
                ("batch-0", "batch", QosClass.BE, 1.0),
            ]
        )
        cfg = MitigationConfig(cpu_reserve_fraction=0.1)
        action = cpu_suppress(pods, cap, "node-00", cfg)
        if action.cpu_restriction > 0:
            total = action.cpu_restriction + ls + 0.1 * cap
            assert total == pytest.approx(cap, abs=1e-9)


def test_evict_every_pod_over_the_bar():
    pods = rows_of(
        [
            ("batch-0", "batch", QosClass.BE, 10.0),
            ("batch-1", "batch", QosClass.BE, 6.0),
            ("batch-2", "batch", QosClass.BE, 9.0),
            ("web-0", "web", QosClass.LS, 12.0),
        ]
    )
    action = evict_candidates(pods, 32.0, "node-00", MitigationConfig(eviction_ratio=0.25))
    # bar is 8 cores: the 10-core and 9-core pods cross it, the 6-core stays
    assert isinstance(action, Evict)
    assert action.pod_ids == ("batch-0", "batch-2")


def test_evict_fallback_heaviest_when_none_cross():
    pods = rows_of(
        [
            ("batch-0", "batch", QosClass.BE, 2.0),
            ("batch-1", "batch", QosClass.BE, 3.0),
        ]
    )
    action = evict_candidates(pods, 32.0, "node-00", CFG)
    assert action.pod_ids == ("batch-1",)


def test_evict_without_be_pods_is_noop():
    pods = rows_of([("web-0", "web", QosClass.LS, 5.0)])
    assert isinstance(evict_candidates(pods, 32.0, "node-00", CFG), NoOp)


def test_evict_selection_matches_set_rule():
    # membership rule, brute-forced: pod in Evict iff BE and usage > mu * capacity
    rng = random.Random(21)
    for trial in range(40):
        cap = rng.uniform(8, 64)
        mu = rng.choice([0.1, 0.25, 0.5])
        pods = []
        for i in range(rng.randint(1, 8)):
            qos = rng.choice([QosClass.BE, QosClass.LS])
            pods.append((f"p-{i}", "app", qos, rng.uniform(0, cap * 0.8)))
        # guarantee at least one pod over the bar so the fallback never kicks in
        pods.append(("p-hot", "app", QosClass.BE, mu * cap + 1.0))
        action = evict_candidates(rows_of(pods), cap, "node-00", MitigationConfig(eviction_ratio=mu))
        expected = sorted(
            pid
            for pid, _, qos, cpu in pods
            if qos is QosClass.BE and cpu > mu * cap
        )
        assert list(action.pod_ids) == expected, f"trial {trial}"


def test_plan_tiers():
    pods = rows_of(
        [
            ("batch-0", "batch", QosClass.BE, 20.0),
            ("web-0", "web", QosClass.LS, 5.0),
        ]
    )
    assert isinstance(plan(pods, 32.0, "node-00", Severity.SEVERE, CFG), Evict)
    assert isinstance(plan(pods, 32.0, "node-00", Severity.MILD, CFG), Suppress)
    assert isinstance(plan(pods, 32.0, "node-00", Severity.NONE, CFG), NoOp)


def test_plan_severe_without_be_pods_degrades_to_noop():
    pods = rows_of([("web-0", "web", QosClass.LS, 5.0)])
    assert isinstance(plan(pods, 32.0, "node-00", Severity.SEVERE, CFG), NoOp)


def test_apply_evict_removes_pods():
    state = build_state(
        pods=[
            ("batch-0", "batch", QosClass.BE, 10.0),
            ("batch-1", "batch", QosClass.BE, 9.0),
            ("web-0", "web", QosClass.LS, 2.0),
        ]
    )
    apply(Evict("node-00", ("batch-0", "batch-1")), state)
    assert set(state.pods) == {"web-0"}
    assert state.nodes["node-00"].pod_ids == ["web-0"]


def test_apply_suppress_sets_node_cap():
    state = build_state(pods=[("batch-0", "batch", QosClass.BE, 4.0)])
    apply(Suppress("node-00", 3.5), state)
    assert state.nodes["node-00"].be_cpu_cap == 3.5


def test_apply_noop_changes_nothing():
    state = build_state(pods=[("batch-0", "batch", QosClass.BE, 4.0)])
    before = copy.deepcopy(state)
    apply(NoOp("node-00"), state)
    assert state.pods.keys() == before.pods.keys()
    assert state.nodes["node-00"].be_cpu_cap == before.nodes["node-00"].be_cpu_cap


def test_apply_rejects_dangling_pod():
    state = build_state(pods=[("batch-0", "batch", QosClass.BE, 4.0)])
    with pytest.raises(KeyError):
        apply(Evict("node-00", ("ghost-0",)), state)


def test_apply_refuses_non_be_eviction():
    state = build_state(pods=[("web-0", "web", QosClass.LS, 4.0)])
    with pytest.raises(ValueError):
        apply(Evict("node-00", ("web-0",)), state)
