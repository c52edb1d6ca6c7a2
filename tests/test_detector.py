import math

import pytest

from ckoord.detector import (
    DetectorConfig,
    FlaggedApps,
    UtilizationWeights,
    comprehensive_utilization,
    scan,
    selection_threshold,
)
from ckoord.trace import NodeRow
from helpers import trace_row

EQUAL = UtilizationWeights()


def test_utilization_zero_everything():
    assert comprehensive_utilization(0, 0, 0, EQUAL) == 0.0


def test_utilization_saturated_equal_weights():
    # (1/3)(0.5) + (1/3)(1) + (1/3)(1)
    got = comprehensive_utilization(1.0, 1.0, 1.0, EQUAL)
    assert got == pytest.approx(0.5 / 3 + 1 / 3 + 1 / 3, abs=1e-12)
    assert got == pytest.approx(0.8333333333, abs=1e-9)


def test_utilization_mixed_weights_hand_value():
    w = UtilizationWeights(alpha=0.2, beta=0.5, gamma=0.3)
    got = comprehensive_utilization(0.5, 0.25, 0.5, w)
    # 0.2*(0.5/1.5) + 0.5*sqrt(0.25) + 0.3*(2*0.5 - 0.25)
    assert got == pytest.approx(0.2 * (1 / 3) + 0.25 + 0.3 * 0.75, abs=1e-12)
    assert got == pytest.approx(0.5416666666, abs=1e-9)


def test_utilization_rejects_out_of_range():
    with pytest.raises(ValueError):
        comprehensive_utilization(1.2, 0.5, 0.5, EQUAL)
    with pytest.raises(ValueError):
        comprehensive_utilization(0.5, -0.1, 0.5, EQUAL)


def test_utilization_monotone_in_each_input():
    import random

    rng = random.Random(11)
    for _ in range(300):
        m = [rng.random(), rng.random(), rng.random()]
        w = UtilizationWeights()
        base = comprehensive_utilization(*m, w)
        for slot in range(3):
            bumped = list(m)
            bumped[slot] = min(1.0, bumped[slot] + rng.random() * (1 - bumped[slot]))
            assert comprehensive_utilization(*bumped, w) >= base - 1e-12


def test_utilization_upper_bound():
    w = UtilizationWeights(alpha=0.2, beta=0.5, gamma=0.3)
    bound = 0.2 * 0.5 + 0.5 + 0.3
    import random

    rng = random.Random(12)
    for _ in range(200):
        u = comprehensive_utilization(rng.random(), rng.random(), rng.random(), w)
        assert 0.0 <= u <= bound + 1e-12


def test_threshold_uniform_is_mean():
    assert selection_threshold([0.4, 0.4, 0.4], 3.0, "variance") == pytest.approx(0.4, abs=1e-15)


def test_threshold_variance_hand_value():
    # mean 0.4, variance 0.04, 0.4 + 3*0.04
    assert selection_threshold([0.2, 0.6], 3.0, "variance") == pytest.approx(0.52, abs=1e-12)


def test_threshold_singleton():
    assert selection_threshold([0.5], 3.0, "variance") == pytest.approx(0.5, abs=1e-15)


def test_threshold_std_switch():
    got = selection_threshold([0.2, 0.6], 3.0, deviation="std")
    assert got == pytest.approx(0.4 + 3 * 0.2, abs=1e-12)


def test_threshold_rejects_empty_and_bad_mode():
    with pytest.raises(ValueError):
        selection_threshold([], 3.0, "variance")
    with pytest.raises(ValueError):
        selection_threshold([0.5], 3.0, deviation="mad")


def four_node_rows(hot="node-01", hot_m=(0.9, 0.9, 0.9), cold_m=(0.1, 0.1, 0.1)):
    """Node rows, (mem, cpu, shared) each, and pod rows: apps A and B on the
    hot node, C on node-00."""
    node_rows = []
    for i in range(4):
        node_id = f"node-0{i}"
        mem, cpu, shared = hot_m if node_id == hot else cold_m
        node_rows.append(NodeRow(0, node_id, cpu, 0.0, 0.0, shared, mem))
    pod_rows = [
        trace_row(f"{app.lower()}-0", app, node_id, "LS", 1.0)
        for app, node_id in (("A", hot), ("B", hot), ("C", "node-00"))
    ]
    return node_rows, pod_rows


def hand_u(mem, cpu, shared):
    return (mem / (1 + mem) + math.sqrt(cpu) + (2 * shared - shared**2)) / 3.0


def test_scan_flags_all_apps_on_hot_node():
    rows = four_node_rows()
    cfg = DetectorConfig(k=3.0, deviation="variance")
    # hand check: the hot node must clear mean + 3 * variance
    u_hot = hand_u(0.9, 0.9, 0.9)
    u_cold = hand_u(0.1, 0.1, 0.1)
    mean = (u_hot + 3 * u_cold) / 4
    var = ((u_hot - mean) ** 2 + 3 * (u_cold - mean) ** 2) / 4
    assert u_hot > mean + 3 * var

    flagged = scan(*rows, cfg, FlaggedApps())
    assert flagged.app_ids() == ["A", "B"]


def test_scan_uniform_cluster_flags_nothing():
    rows = four_node_rows(hot_m=(0.4, 0.4, 0.4), cold_m=(0.4, 0.4, 0.4))
    flagged = scan(*rows, DetectorConfig(), FlaggedApps())
    assert flagged.app_ids() == []


def test_scan_hysteresis_removes_at_configured_scan():
    cfg = DetectorConfig(k=3.0, hysteresis_intervals=12)
    flagged = FlaggedApps()
    scan(*four_node_rows(), cfg, flagged)
    assert "A" in flagged

    cool = four_node_rows(hot_m=(0.1, 0.1, 0.1))
    for stable_scan in range(1, 13):
        scan(*cool, cfg, flagged)
        if stable_scan <= 11:
            assert "A" in flagged, f"dropped too early at stable scan {stable_scan}"
        else:
            assert "A" not in flagged


def test_scan_hot_again_resets_stability_counter():
    cfg = DetectorConfig(k=3.0, hysteresis_intervals=3)
    flagged = FlaggedApps()
    scan(*four_node_rows(), cfg, flagged)
    cool = four_node_rows(hot_m=(0.1, 0.1, 0.1))
    scan(*cool, cfg, flagged)
    scan(*cool, cfg, flagged)
    assert flagged.entries["A"] == 2
    scan(*four_node_rows(), cfg, flagged)  # hot again
    assert flagged.entries["A"] == 0
    scan(*cool, cfg, flagged)
    assert "A" in flagged


def test_scan_deterministic_for_same_snapshots():
    cfg = DetectorConfig(k=2.0)
    a = scan(*four_node_rows(), cfg, FlaggedApps())
    b = scan(*four_node_rows(), cfg, FlaggedApps())
    assert a.app_ids() == b.app_ids()


def test_scan_rejects_empty_cluster():
    with pytest.raises(ValueError):
        scan([], [], DetectorConfig(), FlaggedApps())


def test_per_node_weight_override():
    cfg = DetectorConfig(
        node_weights={"node-01": UtilizationWeights(1.0, 0.0, 0.0)}
    )
    assert cfg.weights_for("node-01").alpha == 1.0
    assert cfg.weights_for("node-00").alpha == pytest.approx(1 / 3)
