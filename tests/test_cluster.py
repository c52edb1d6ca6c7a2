from ckoord.cluster import ClusterState, NodeState, QosClass, validate
from ckoord.scenario import default_config, validate_config
from ckoord.trace import NodeRow, TraceRow


def two_node_state():
    """Two 4-core nodes, three pods of the default apps, and one interval's
    rows for them."""
    apps = validate_config(default_config()).apps
    state = ClusterState(cpu_capacity=4.0, mem_capacity=16.0)
    node_values = dict(
        node_cpu_total=0.5, node_cpu_offline=0.2, node_cpu_online=0.3,
        node_cpu_shared=0.2, node_mem_util=0.4,
    )
    for i in range(2):
        node_id = f"node-0{i}"
        state.nodes[node_id] = NodeState(node_id)
        state.node_rows.append(NodeRow(0, node_id, **node_values))
    for pod_id, node_id in (("web-0", "node-00"), ("batch-0", "node-00"), ("web-1", "node-01")):
        profile = apps[pod_id.split("-")[0]]
        state.pods[pod_id] = profile
        state.nodes[node_id].pod_ids.append(pod_id)
        state.pod_rows.append(TraceRow(
            0, node_id, pod_id, profile.app_id, profile.qos.value,
            pod_cpu_util=0.5, pod_mem_util=0.25, **node_values,
            sys_cpu_total=0.5, sys_mem_total=0.4, l3_miss_rate=1e6, cpi=1.2,
            pod_cpu_cores=0.5,
        ))
    return state


def replace_row(rows, key, **values):
    """Replace the row of pod (or node) ``key`` with a copy holding ``values``."""
    ids = [row.pod_id if isinstance(row, TraceRow) else row.node_id for row in rows]
    k = ids.index(key)
    rows[k] = rows[k]._replace(**values)


def test_qos_classification():
    assert QosClass.LS.latency_critical and QosClass.LSR.latency_critical
    assert not QosClass.BE.latency_critical and not QosClass.SYSTEM.latency_critical
    assert QosClass.BE.best_effort
    assert not QosClass.LS.best_effort


def test_well_formed_state_validates_clean():
    assert validate(two_node_state()) == []


def test_validate_fraction_out_of_range():
    state = two_node_state()
    replace_row(state.node_rows, "node-00", node_cpu_total=1.3)
    violations = validate(state)
    assert any("node_cpu_total=1.3" in v for v in violations)


def test_validate_offline_online_exceed_total():
    state = two_node_state()
    replace_row(state.node_rows, "node-00", node_cpu_offline=0.4, node_cpu_online=0.4)
    assert any("exceeds node_cpu_total" in v for v in validate(state))


def test_validate_pod_listed_on_two_nodes():
    state = two_node_state()
    state.nodes["node-01"].pod_ids.append("batch-0")
    assert validate(state) == ["pod batch-0: listed on node-00 and on node-01"]


def test_validate_non_positive_capacity():
    state = two_node_state()
    state.cpu_capacity, state.mem_capacity = 0.0, -1.0
    violations = validate(state)
    assert "non-positive cpu_capacity 0.0" in violations
    assert "non-positive mem_capacity -1.0" in violations


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
    replace_row(state.pod_rows, "web-0", pod_cpu_cores=5.0)
    assert any("node-00" in v and "exceeds capacity" in v for v in validate(state))


def test_validate_negative_pod_metrics_and_cpi():
    state = two_node_state()
    replace_row(state.pod_rows, "web-0", l3_miss_rate=-1.0)
    replace_row(state.pod_rows, "batch-0", cpi=0.0)
    violations = validate(state)
    assert any("web-0" in v and "negative l3_miss_rate" in v for v in violations)
    assert any("batch-0" in v and "cpi=0.0" in v for v in violations)


def test_validate_system_metrics():
    state = two_node_state()
    replace_row(state.pod_rows, "web-1", sys_cpu_total=1.5)
    violations = validate(state)
    assert any("sys_cpu_total=1.5" in v for v in violations)


def test_validate_pod_row_on_a_node_the_state_lacks():
    state = two_node_state()
    replace_row(state.pod_rows, "web-1", node_id="node-99")
    violations = validate(state)
    assert any("web-1" in v and "unknown node node-99" in v for v in violations)
