import hashlib
import json
import math
import random
from dataclasses import replace
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import alloc_reference
from ckoord import simulator
from ckoord.cluster import QosClass, validate
from ckoord.loop import PlannedAction
from ckoord.mitigator import Evict, Severity, Suppress
from ckoord.scenario import AppProfile, TruthParams
from ckoord.simulator import (
    BLOCK_INTERVALS,
    Simulator,
    _percentile_block,
    _Stream,
    allocate_cpu,
    diurnal_demand,
    ground_truth_cpi,
    latency_model,
    nearest_rank,
    report_to_json,
    run_scenario,
    utilization_rho,
)
from helpers import cfg_with

TRUTH = TruthParams(
    contention_gain=0.8,
    cache_gain=0.6,
    cpi_noise_std=0.0,
    cpi_floor_fraction=0.05,
    miss_load_gain=1.5,
    miss_noise_std=0.0,
    miss_scale=2e7,
    kinds={},
)


def profile(**over):
    base = dict(
        app_id="web",
        qos=QosClass.LS,
        replicas=1,
        cpu_request=1.0,
        mem_request=2**30,
        base_rps=100.0,
        diurnal_amplitude=0.5,
        demand_noise_std=0.0,
        cpu_per_request=0.01,
        mem_footprint=2**30,
        latency_base_ms=8.0,
        cpi_base=1.0,
        base_miss_rate=2.5e6,
        phase_offset=0.0,
    )
    base.update(over)
    return AppProfile(**base)


def test_demand_peak_to_trough_ratio():
    p = profile(diurnal_amplitude=0.5)
    peak = diurnal_demand([p], 1, 4)[0]    # sin at quarter period is 1
    trough = diurnal_demand([p], 3, 4)[0]  # sin at three quarters is -1
    assert peak == pytest.approx(150.0)
    assert trough == pytest.approx(50.0)
    assert peak / trough == pytest.approx(3.0)


def test_demand_never_negative():
    p = profile(diurnal_amplitude=1.0, base_rps=10.0)
    for t in range(16):
        assert diurnal_demand([p], t, 7)[0] >= 0.0


def test_demand_phase_offset_shifts_the_curve():
    p0 = profile(phase_offset=0.0)
    p_shift = profile(phase_offset=0.25)
    assert diurnal_demand([p_shift, p0], 0, 4)[0] == pytest.approx(
        diurnal_demand([p_shift, p0], 1, 4)[1]
    )


def cpi(cpi_base, node_cpu_total, miss_rate, boost):
    one = np.ones(1)
    return ground_truth_cpi(
        cpi_base * one, node_cpu_total**2 * one, miss_rate * one, boost * one, TRUTH
    )[0]


def test_cpi_idle_is_base():
    assert cpi(1.0, 0.0, 0.0, 0.0) == pytest.approx(1.0)


def test_cpi_contention_is_quadratic():
    assert cpi(1.0, 0.5, 0.0, 0.0) == pytest.approx(1.0 + 0.8 * 0.25)
    assert cpi(1.0, 1.0, 0.0, 0.0) == pytest.approx(1.8)


def test_cpi_cache_term_normalized_by_scale():
    assert cpi(1.0, 0.0, 1e7, 0.0) == pytest.approx(1.0 + 0.6 * 0.5)


def test_cpi_floor_clamps_negative_boost():
    assert cpi(2.0, 0.0, 0.0, -5.0) == pytest.approx(0.05 * 2.0)


def test_cpi_noise_scales_each_pod():
    zero = np.zeros(2)
    got = ground_truth_cpi(np.ones(2), zero, zero, zero, replace(TRUTH, cpi_noise_std=0.5),
                           np.array([1.0, -1.0]))
    assert got.tolist() == [1.5, 0.5]


def test_rho_basic_and_capped():
    # wants of 100 and 1000 requests/s at 0.01 cores each, then none, then no allocation
    want = np.array([1.0, 10.0, 0.0, 1.0])
    rho = utilization_rho(want, np.array([2.0, 2.0, 2.0, 0.0]), 0.99)
    assert rho.tolist() == pytest.approx([0.5, 0.99, 0.0, 0.99])


def latency(cpi_act, rho, jitter=None, batches=1):
    one = np.ones(1)
    return latency_model(8.0 * one, cpi_act * one, one, rho * one, 2.0, jitter, batches)


def test_latency_scales_with_queueing_and_cpi():
    assert latency(1.0, 0.0)[0] == pytest.approx([8.0])
    assert latency(1.0, 0.5)[0] == pytest.approx([16.0])
    assert latency(2.0, 0.0)[0] == pytest.approx([32.0])  # quadratic CPI exponent


def test_latency_rejects_saturated_rho():
    with pytest.raises(ValueError):
        latency(1.0, 1.0)
    with pytest.raises(ValueError):
        latency(1.0, -0.1)


def test_latency_batches_and_jitter():
    jitter = np.exp(0.5 * np.random.default_rng(3).standard_normal((1, 6)))
    out = latency(1.0, 0.0, jitter, 6)
    assert out.shape == (1, 6)
    assert np.all(out > 0)
    assert len(set(np.round(out[0], 9))) > 1
    assert latency(1.0, 0.0, None, 6).tolist() == [[8.0] * 6]


def test_percentiles_nearest_rank():
    ordered = [float(v) for v in range(1, 101)]
    assert nearest_rank(ordered, 50) == 50.0
    assert nearest_rank(ordered, 90) == 90.0
    assert nearest_rank(ordered, 99) == 99.0
    assert nearest_rank(ordered, 100) == 100.0
    assert nearest_rank([7.0], 50) == 7.0


def test_percentiles_reject_bad_inputs():
    with pytest.raises(ValueError):
        nearest_rank([], 50)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 0)
    with pytest.raises(ValueError):
        nearest_rank([1.0], 101)


def _ranked_read(samples, k):
    # the definition, read off a fresh sort of the unsorted samples
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(k / 100.0 * len(ordered)) - 1)]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=300))
def test_percentile_block_reads_three_ranks_of_unsorted_samples(samples):
    random.Random(len(samples)).shuffle(samples)
    before = list(samples)
    assert _percentile_block(samples) == {
        "count": len(samples),
        "p50": _ranked_read(samples, 50),
        "p90": _ranked_read(samples, 90),
        "p99": _ranked_read(samples, 99),
    }
    assert samples == before  # the caller's list is not reordered
    assert _percentile_block([]) is None


QOS_W = {"BE": 1.0, "LS": 3.0, "LSR": 4.0, "SYSTEM": 5.0}


def allocation_matrices(nodes):
    """The array allocator's inputs for nodes given as (pods, avail, be_cap),
    pods as the oracle takes them: (pod_id, qos, want, request) in slot order."""
    width = max([1] + [len(pods) for pods, _, _ in nodes])
    want, weight = np.zeros((2, len(nodes), width))
    best_effort = np.zeros((len(nodes), width), dtype=bool)
    for k, (pods, _, _) in enumerate(nodes):
        for slot, (_, qos, cores, request) in enumerate(pods):
            want[k, slot] = cores
            weight[k, slot] = QOS_W[qos.value] * request
            best_effort[k, slot] = qos is QosClass.BE
    avail = np.array([avail for _, avail, _ in nodes])
    caps = np.array([np.nan if cap is None else cap for _, _, cap in nodes])
    return want, weight, best_effort, avail, caps


def allocate_one(pods, avail, be_cap):
    """One node through the array allocator, as {pod_id: cores} for usage and potential."""
    usage, potential = allocate_cpu(*allocation_matrices([(pods, avail, be_cap)]))
    ids = [pid for pid, _, _, _ in pods]
    return dict(zip(ids, usage[0].tolist())), dict(zip(ids, potential[0].tolist()))


def test_allocation_conserves_capacity():
    rng = random.Random(17)
    for _ in range(60):
        pods = []
        for i in range(rng.randint(1, 6)):
            qos = rng.choice([QosClass.BE, QosClass.LS, QosClass.LSR])
            pods.append((f"p-{i}", qos, rng.uniform(0, 3), rng.uniform(0.5, 2)))
        avail = rng.uniform(0.5, 8)
        be_cap = rng.choice([None, rng.uniform(0, 2)])
        usage, potential = allocate_one(pods, avail, be_cap)
        assert sum(usage.values()) <= avail + 1e-9
        for pid, _, want, _ in pods:
            assert 0.0 <= usage[pid] <= want + 1e-12
            assert potential[pid] >= usage[pid] - 1e-12
        if be_cap is not None:
            be_total = sum(
                usage[pid] for pid, qos, _, _ in pods if qos.best_effort
            )
            assert be_total <= be_cap + 1e-9


def test_allocation_satisfies_everyone_when_uncontended():
    pods = [
        ("a", QosClass.LS, 1.0, 1.0),
        ("b", QosClass.BE, 0.5, 1.0),
    ]
    usage, _ = allocate_one(pods, 8.0, None)
    assert usage["a"] == pytest.approx(1.0)
    assert usage["b"] == pytest.approx(0.5)


def test_allocation_favors_latency_critical_under_pressure():
    pods = [
        ("ls-0", QosClass.LS, 4.0, 1.0),
        ("be-0", QosClass.BE, 4.0, 1.0),
    ]
    usage, _ = allocate_one(pods, 4.0, None)
    assert usage["ls-0"] > usage["be-0"]
    assert usage["ls-0"] == pytest.approx(3.0)
    assert usage["be-0"] == pytest.approx(1.0)


_cores = st.one_of(st.just(0.0), st.floats(0.0, 4.0))
_node = st.tuples(
    st.lists(
        st.tuples(st.sampled_from(list(QosClass)), _cores, st.floats(1e-3, 3.0)),
        max_size=20,
    ),
    st.one_of(st.just(0.0), st.floats(-2.0, 0.0), st.floats(0.0, 12.0)),  # avail
    st.one_of(st.none(), st.just(0.0), st.floats(0.0, 0.5), st.floats(0.5, 20.0)),  # BE cap
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_node, min_size=1, max_size=6))
def test_array_allocation_matches_the_scalar_oracle_bit_for_bit(nodes):
    nodes = [
        ([(f"p-{i:02d}", *pod) for i, pod in enumerate(pods)], avail, cap)
        for pods, avail, cap in nodes
    ]
    usage, potential = allocate_cpu(*allocation_matrices(nodes))
    for k, (pods, avail, cap) in enumerate(nodes):
        want_usage, want_potential = alloc_reference.allocate_cpu(pods, avail, cap, QOS_W)
        n = len(pods)
        # float.hex tells -0.0 from 0.0, which == does not
        assert [v.hex() for v in usage[k, :n].tolist()] == [
            v.hex() for v in want_usage.values()
        ]
        assert [v.hex() for v in potential[k, :n].tolist()] == [
            v.hex() for v in want_potential.values()
        ]


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.lists(st.tuples(st.integers(1, 40), st.integers(0, 40)),
                                          max_size=30))
def test_stream_reads_the_scalar_sequence_in_any_blocks(seed, reads):
    stream = _Stream(np.random.default_rng(seed))
    scalar = np.random.default_rng(seed)
    for size, used in reads:
        used = min(size, used)
        seen = stream.peek(size)
        assert seen.size == size
        assert seen[:used].tolist() == [scalar.standard_normal() for _ in range(used)]
        stream.advance(used)
        assert stream.held.size < 2 * max(size for size, _ in reads)


def _reference_stream(seed, kind, pod_id):
    """The generator a (kind, pod) stream derives, drawn one scalar at a time."""
    digest = hashlib.sha256(f"{kind}:{pod_id}".encode()).digest()
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(digest[:8], "big")])
    )


def test_an_evicted_pod_resumes_its_draws_where_it_stopped():
    # 100-core nodes, so that every pod gets exactly the cores its demand wants
    seed, delay, evicted_at = 5, 3, 5
    cfg = small_cfg(
        "topology.cpu_capacity=100",
        "apps.2.demand_noise_std=0.1",
        f"controllers.reschedule_delay_intervals={delay}",
    )
    sim = Simulator(cfg, seed=seed)
    batch = sim.scenario.apps["batch"]
    horizon = 3 * BLOCK_INTERVALS + 7
    present: dict[str, list[tuple[int, float]]] = {}
    for interval in range(horizon):
        rows, _, _ = sim.step(interval)
        for row in rows:
            if row.app_id == "batch":
                present.setdefault(row.pod_id, []).append((interval, row.pod_cpu_cores))
        if interval == evicted_at:
            node_id = node_of(sim.state, "batch-1")
            action = Evict(node_id, ("batch-1",))
            sim._enforce(interval, [PlannedAction(interval, "batch", node_id,
                                                  Severity.SEVERE, action)])
    absent = set(range(evicted_at + 1, evicted_at + delay))
    assert [t for t, _ in present["batch-1"]] == [t for t in range(horizon) if t not in absent]
    period = sim.scenario.workload.period_intervals
    for pod_id, seen in present.items():
        draws = _reference_stream(seed, "demand", pod_id)
        for interval, cores in seen:
            demand = diurnal_demand([batch], interval, period)[0]
            demand = max(0.0, demand * (1.0 + 0.1 * draws.standard_normal()))
            assert cores == demand * batch.cpu_per_request, (pod_id, interval)
    # read ahead by a block at most: the buffers do not grow with the horizon
    batches = sim.scenario.workload.batches_per_interval
    for (kind, _), stream in sim._streams.items():
        width = batches if kind == "latency" else 1
        assert stream.held.size < 2 * BLOCK_INTERVALS * width


def node_of(state, pod_id):
    """The one node whose placement lists ``pod_id``."""
    (node_id,) = [node_id for node_id, node in state.nodes.items() if pod_id in node.pod_ids]
    return node_id


def small_cfg(*overrides):
    base = (
        "horizon=12",
        "topology.node_count=4",
        "apps.0.replicas=4",
        "apps.1.replicas=4",
        "apps.2.replicas=4",
        "interference=[]",
    )
    return cfg_with(*base, *overrides)


@pytest.mark.parametrize("overrides", [(), ("topology.node_count=12",)])
def test_cluster_invariants_hold_after_every_step_and_enforce(overrides):
    # seed 1 of the packaged scenario evicts a pod and reschedules it; with
    # 12 nodes, nodes 10 and 11 host no pod.  A pod's entry is its app's own
    # profile, never a copy, through eviction and return alike.
    sim = Simulator(cfg_with(*overrides), seed=1)
    enabled = sim.scenario.controllers_enabled
    apps = sim.scenario.apps
    evicted = rescheduled = 0
    for interval in range(sim.scenario.horizon):
        rows, node_rows, stats = sim.step(interval)
        assert sim.state.pod_rows is rows and sim.state.node_rows is node_rows
        assert validate(sim.state) == [], interval
        assert sim.state.pods.keys() == {row.pod_id for row in rows}
        assert all(sim.state.pods[row.pod_id] is apps[row.app_id] for row in rows)
        outcome = sim.loop.observe(interval, rows, node_rows, enabled)
        evicted += sim._enforce(interval, outcome.actions)[0]
        sim._clear_stale_caps()
        assert validate(sim.state) == [], interval
        rescheduled += stats["rescheduled"]
    assert len(sim.state.node_rows) == sim.scenario.node_count
    if not overrides:
        assert evicted and rescheduled


@pytest.mark.parametrize("nodes", [4, 12])
def test_an_evicted_pod_returns_on_the_least_busy_node_of_the_interval_before(nodes):
    # 4 replicas per app: on 12 nodes, nodes 04..11 are empty and tie at 0.0
    delay, evicted_at = 3, 5
    cfg = small_cfg(f"topology.node_count={nodes}",
                    f"controllers.reschedule_delay_intervals={delay}")
    sim = Simulator(cfg, seed=5)
    returns_at = evicted_at + delay
    for interval in range(returns_at + 1):
        if interval == returns_at:
            before = sim.state.node_rows
            least = min(row.node_cpu_total for row in before)
            tied = sorted(row.node_id for row in before if row.node_cpu_total == least)
        rows, _, stats = sim.step(interval)
        if interval == evicted_at:
            node_id = node_of(sim.state, "batch-1")
            action = Evict(node_id, ("batch-1",))
            sim._enforce(interval, [PlannedAction(interval, "batch", node_id,
                                                  Severity.SEVERE, action)])
    assert stats["rescheduled"] == 1
    assert [row.node_id for row in rows if row.pod_id == "batch-1"] == [tied[0]]
    assert node_of(sim.state, "batch-1") == tied[0]
    if nodes == 12:
        assert least == 0.0 and len(tied) == 8 and tied[0] == "node-04"
    else:
        assert least > 0.0 and len(tied) == 1


def test_single_interval_run_has_one_interval_record():
    result = run_scenario(cfg_with("horizon=1", "interference=[]"), seed=3)
    assert len(result.report["intervals"]) == 1
    rec = result.report["intervals"][0]
    assert rec["interval"] == 0
    assert set(rec) >= {"interval", "phase", "sys_cpu_total", "flagged_apps"}


def test_same_seed_reports_are_byte_identical():
    cfg = small_cfg()
    a = run_scenario(cfg, seed=11)
    b = run_scenario(cfg, seed=11)
    assert report_to_json(a.report) == report_to_json(b.report)


def test_different_seeds_differ():
    cfg = small_cfg("apps.0.demand_noise_std=0.05")
    a = run_scenario(cfg, seed=1)
    b = run_scenario(cfg, seed=2)
    assert report_to_json(a.report) != report_to_json(b.report)


def test_disabled_controllers_take_no_actions():
    cfg = small_cfg("controllers.enabled=false")
    result = run_scenario(cfg, seed=5)
    assert result.report["controllers_enabled"] is False
    assert result.report["actions"] == []
    assert result.report["evictions"] == 0
    assert result.report["suppressions"] == 0
    assert result.report["detections"] == []


def test_injection_raises_cpi_on_target_node():
    horizon = 30
    quiet = small_cfg(f"horizon={horizon}", "controllers.enabled=false")
    noisy = small_cfg(
        f"horizon={horizon}",
        "controllers.enabled=false",
        'interference=[{"target_node": "node-01", "kind": "cpu_hog", '
        '"start_interval": 10, "duration": 20, "intensity": 1.0}]',
    )
    base = run_scenario(quiet, seed=9)
    hit = run_scenario(noisy, seed=9)

    def cpi_on_node(result, node_id, lo):
        vals = [
            row.cpi
            for row in result.trace_rows
            if row.node_id == node_id and row.interval >= lo
        ]
        return sum(vals) / len(vals)

    assert cpi_on_node(hit, "node-01", 10) > 1.5 * cpi_on_node(base, "node-01", 10)
    # other nodes keep their baseline behavior outside shared-system coupling
    assert cpi_on_node(hit, "node-03", 10) < 1.2 * cpi_on_node(base, "node-03", 10)


def test_be_cap_is_enforced_on_allocation():
    cfg = small_cfg("controllers.enabled=false")
    sim = Simulator(cfg, seed=7)
    for node in sim.state.nodes.values():
        node.be_cpu_cap = 0.3
    rows, _, _ = sim.step(0)
    by_node: dict[str, float] = {}
    for row in rows:
        if row.qos == "BE":
            by_node[row.node_id] = by_node.get(row.node_id, 0.0) + row.pod_cpu_cores
    assert by_node, "expected best-effort pods"
    for node_id, total in by_node.items():
        assert total <= 0.3 + 1e-6, f"{node_id} BE usage {total}"


def be_cores(rows):
    """Per node, the summed cores of its BE pods."""
    by_node: dict[str, float] = {}
    for row in rows:
        if row.qos == "BE":
            by_node[row.node_id] = by_node.get(row.node_id, 0.0) + row.pod_cpu_cores
    return by_node


def row_bits(rows):
    """Rows with each float as its exact hex, so that -0.0 differs from 0.0."""
    return [tuple(v.hex() if isinstance(v, float) else v for v in row) for row in rows]


def test_a_cap_set_or_cleared_between_steps_applies_to_the_next_interval():
    cfg = small_cfg("controllers.enabled=false")
    sim, uncapped = Simulator(cfg, seed=7), Simulator(cfg, seed=7)
    sim.step(0)
    uncapped.step(0)
    for node in sim.state.nodes.values():
        node.be_cpu_cap = 0.3
    rows, _, _ = sim.step(1)
    free, _, _ = uncapped.step(1)
    assert max(be_cores(free).values()) > 0.3, "the cap must bind"
    for node_id, total in be_cores(rows).items():
        assert total <= 0.3 + 1e-6, f"{node_id} BE usage {total}"
    for node in sim.state.nodes.values():
        node.be_cpu_cap = None
    rows, node_rows, _ = sim.step(2)
    free, free_nodes, _ = uncapped.step(2)
    assert row_bits(rows) == row_bits(free)
    assert row_bits(node_rows) == row_bits(free_nodes)


def test_a_step_past_the_next_interval_computes_the_interval_asked_for(monkeypatch):
    # the skipped intervals take no draws, with blocks or one interval at a time
    intervals = (0, 5, 6, 9)

    def steps():
        sim = Simulator(small_cfg(), seed=3)
        return [sim.step(interval)[:2] for interval in intervals]

    blocked = steps()
    monkeypatch.setattr(simulator, "BLOCK_INTERVALS", 1)
    for interval, (rows, node_rows), (ref, ref_nodes) in zip(intervals, blocked, steps()):
        assert {row.interval for row in rows} == {row.interval for row in node_rows} == {interval}
        assert row_bits(rows) == row_bits(ref)
        assert row_bits(node_rows) == row_bits(ref_nodes)


_cut = st.one_of(  # what may follow a step
    st.tuples(st.just("cap"), st.integers(0, 3), st.floats(0.0, 2.0)),
    st.tuples(st.just("clear"), st.integers(0, 3)),
    st.tuples(st.just("evict"), st.integers(0, 11)),
)


def _stepped(runs):
    """The intervals below 80 of consecutive runs, each after a gap: (gap, length) pairs."""
    steps, t = [], 0
    for gap, length in runs:
        steps += range(t + gap, min(80, t + gap + length))
        t += gap + length
    return steps


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 2**16),
    st.integers(0, 6),
    st.lists(st.tuples(st.integers(0, 5), st.integers(1, 12)), min_size=1, max_size=8),
    st.dictionaries(st.integers(0, 79), st.lists(_cut, min_size=1, max_size=2), max_size=12),
)
def test_blocks_cut_anywhere_keep_the_bits_of_one_interval_at_a_time(seed, delay, runs, cuts):
    # runs of steps with gaps; after an interval, caps set through a
    # suppression or cleared, and BE pods evicted to return later: every cut
    # uses the draws of the intervals its block handed out, and only those
    cfg = small_cfg("horizon=80", f"controllers.reschedule_delay_intervals={delay}",
                    "apps.0.demand_noise_std=0.1", "apps.2.demand_noise_std=0.2")

    def run():
        sim = Simulator(cfg, seed=seed)
        batches = sim.scenario.workload.batches_per_interval
        seen = []
        for interval in _stepped(runs):
            rows, node_rows, _ = sim.step(interval)
            seen.append((row_bits(rows), row_bits(node_rows)))
            for (kind, _), stream in sim._streams.items():
                width = batches if kind == "latency" else 1
                assert stream.held.size < 2 * simulator.BLOCK_INTERVALS * width
            nodes = sorted(sim.state.nodes)
            for cut in cuts.get(interval, ()):
                if cut[0] == "clear":
                    sim.state.nodes[nodes[cut[1]]].be_cpu_cap = None
                    continue
                if cut[0] == "cap":
                    action = Suppress(nodes[cut[1]], cut[2])
                else:
                    be = sorted(p for p, app in sim.state.pods.items() if app.qos is QosClass.BE)
                    if not be:
                        continue
                    pod_id = be[cut[1] % len(be)]
                    action = Evict(node_of(sim.state, pod_id), (pod_id,))
                sim._enforce(interval, [PlannedAction(interval, "batch", action.node_id,
                                                      Severity.SEVERE, action)])
        return seen

    blocked = run()
    with patch.object(simulator, "BLOCK_INTERVALS", 1):
        assert run() == blocked


@pytest.mark.parametrize(
    "overrides, seed, acts",
    [
        ((), 1, ("evictions", "reschedules")),
        (("controllers.enabled=false",), 2, ()),
        (("horizon=200", "topology.node_count=12"), 3, ()),
        (("horizon=240", "mitigator.severity_boundary=1000"), 1, ("suppressions",)),
        (("horizon=185", "controllers.reschedule_delay_intervals=0"), 1,
         ("evictions", "reschedules", "suppressions")),
        (("horizon=70", "apps.0.demand_noise_std=0.1", "apps.2.demand_noise_std=0.2"), 4, ()),
        (("horizon=70", "apps.0.qos=LSR", "apps.1.qos=SYSTEM"), 5, ()),
    ],
    ids=["packaged", "controllers_off", "12_nodes", "suppressions", "reschedule_at_once",
         "noisy_demand", "lsr_system"],
)
def test_a_block_of_intervals_keeps_the_bits_of_one_interval_at_a_time(
    monkeypatch, overrides, seed, acts
):
    # one interval per block is the interval-at-a-time pass; the draws do
    # not depend on the read size (test_stream_reads_the_scalar_sequence_in_any_blocks)
    cfg = cfg_with(*overrides)
    blocked = run_scenario(cfg, seed)
    monkeypatch.setattr(simulator, "BLOCK_INTERVALS", 1)
    single = run_scenario(cfg, seed)
    for key in acts:
        assert blocked.report[key] > 0, key
    assert row_bits(blocked.trace_rows) == row_bits(single.trace_rows)
    assert row_bits(blocked.node_rows) == row_bits(single.node_rows)
    assert report_to_json(blocked.report) == report_to_json(single.report)


def test_step_clamps_request_ratios_in_row_and_features():
    # batch wants ~0.9 cores against a 0.2-core request, a ratio of about 4.5
    sim = Simulator(small_cfg("apps.2.cpu_request=0.2"), seed=1)
    rows, _, _ = sim.step(0)
    batch = [row for row in rows if row.app_id == "batch"]
    assert batch, "expected batch pods"
    for row in batch:
        # the model's ratio saturates; the cores mitigation sizes from do not
        assert row.pod_cpu_cores > 2.0 * 0.2
        assert row.pod_cpu_util == 2.0
        assert row.pod_mem_util < 2.0


def test_step_returns_a_node_row_for_every_node_even_an_empty_one():
    # 12 nodes and 4 replicas per app: nodes 04..11 host no pod
    sim = Simulator(small_cfg("topology.node_count=12"), seed=1)
    rows, node_rows, _ = sim.step(0)
    assert [row.node_id for row in node_rows] == [f"node-{i:02d}" for i in range(12)]
    assert {row.node_id for row in rows} == {f"node-{i:02d}" for i in range(4)}
    assert all(row.interval == 0 for row in node_rows)
    # plain floats, which the trace writes with repr; a numpy scalar's repr
    # would not read back
    assert {type(v) for row in rows for v in row[5:]} == {float}
    assert {type(v) for row in node_rows for v in row[2:]} == {float}
    assert sim.state.node_rows == node_rows


def test_invalid_config_rejected_at_construction():
    cfg = cfg_with()
    cfg["horizon"] = 0
    with pytest.raises(Exception):
        Simulator(cfg, seed=1)


def test_report_json_is_stable_and_sorted():
    result = run_scenario(small_cfg("horizon=3"), seed=2)
    text = report_to_json(result.report)
    assert text.endswith("\n")
    parsed = json.loads(text)
    assert list(parsed) == sorted(parsed)
    assert parsed["schema_version"] == 1
    assert parsed["seed"] == 2


def test_run_produces_trace_rows_for_every_pod_interval():
    cfg = small_cfg("horizon=5")
    result = run_scenario(cfg, seed=4)
    assert len(result.trace_rows) == 5 * 12  # horizon x pods
    intervals = sorted({row.interval for row in result.trace_rows})
    assert intervals == list(range(5))
