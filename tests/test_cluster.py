import pytest

from ckoord.cluster import (
    ClusterState,
    NodeMetrics,
    NodeState,
    PodEntry,
    PodMetrics,
    PodSpec,
    QosClass,
    SystemMetrics,
    validate,
)


def two_node_state():
    state = ClusterState(interval=0)
    for i in range(2):
        state.nodes[f"node-0{i}"] = NodeState(
            node_id=f"node-0{i}",
            cpu_capacity=4.0,
            mem_capacity=16.0,
            metrics=NodeMetrics(
                cpu_total=0.5, cpu_offline=0.2, cpu_online=0.3, cpu_shared=0.2, mem_util=0.4
            ),
        )
    specs = [
        PodSpec("web-0", "web", "node-00", QosClass.LS, 1.0, 4.0),
        PodSpec("batch-0", "batch", "node-00", QosClass.BE, 1.0, 2.0),
        PodSpec("web-1", "web", "node-01", QosClass.LS, 1.0, 4.0),
    ]
    for spec in specs:
        state.pods[spec.pod_id] = PodEntry(spec, PodMetrics(0.5, 1.0, 1e6, 1.2))
        state.nodes[spec.node_id].pod_ids.append(spec.pod_id)
    state.system = SystemMetrics(0.5, 0.4)
    return state


def test_qos_classification():
    assert QosClass.LS.latency_critical and QosClass.LSR.latency_critical
    assert not QosClass.BE.latency_critical and not QosClass.SYSTEM.latency_critical
    assert QosClass.BE.best_effort
    assert not QosClass.LS.best_effort


def test_pod_spec_requires_positive_requests():
    with pytest.raises(ValueError):
        PodSpec("p", "a", "n", QosClass.BE, 0.0, 1.0)
    with pytest.raises(ValueError):
        PodSpec("p", "a", "n", QosClass.BE, 1.0, 0.0)


def test_well_formed_state_validates_clean():
    assert validate(two_node_state()) == []


def test_validate_fraction_out_of_range():
    state = two_node_state()
    state.nodes["node-00"].metrics.cpu_total = 1.3
    violations = validate(state)
    assert any("cpu_total=1.3" in v for v in violations)


def test_validate_offline_online_exceed_total():
    state = two_node_state()
    state.nodes["node-00"].metrics.cpu_offline = 0.4
    state.nodes["node-00"].metrics.cpu_online = 0.4
    assert any("exceeds cpu_total" in v for v in validate(state))


def test_validate_pod_referencing_missing_node():
    state = two_node_state()
    state.pods["ghost"] = PodEntry(PodSpec("ghost", "a", "node-99", QosClass.BE, 1.0, 1.0))
    violations = validate(state)
    assert any("ghost" in v and "node-99" in v for v in violations)


def test_validate_node_listing_unknown_pod():
    state = two_node_state()
    state.nodes["node-00"].pod_ids.append("phantom")
    assert any("unknown pod phantom" in v for v in validate(state))


def test_validate_pod_missing_from_node_list():
    state = two_node_state()
    state.nodes["node-00"].pod_ids.remove("batch-0")
    assert any("batch-0" in v and "missing" in v for v in validate(state))


def test_validate_usage_exceeds_capacity():
    state = two_node_state()
    state.pods["web-0"].metrics.cpu_util = 5.0
    assert any("exceeds capacity" in v for v in validate(state))


def test_validate_negative_pod_metrics_and_cpi():
    state = two_node_state()
    state.pods["web-0"].metrics.l3_miss_rate = -1.0
    state.pods["batch-0"].metrics.cpi_actual = 0.0
    violations = validate(state)
    assert any("negative l3_miss_rate" in v for v in violations)
    assert any("cpi_actual" in v for v in violations)


def test_validate_system_metrics():
    state = two_node_state()
    state.system.cpu_total_sys = 1.5
    violations = validate(state)
    assert any("cpu_total_sys" in v for v in violations)
