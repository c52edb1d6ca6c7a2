"""Acceptance battery: one printed pass/fail line per check.

Run with `pytest tests/test_acceptance.py -v -s`.  Checks 1-4 are exact
oracle/property checks; 5-9 exercise the synthetic cluster end to end and
carry wall-clock budgets.  Expensive scenario runs are cached and shared
across checks so the battery stays inside those budgets.
"""

import math
import random
import statistics
from collections import deque
from time import perf_counter

import numpy as np
import pytest

from ckoord.cluster import QosClass
from ckoord.detector import UtilizationWeights, comprehensive_utilization, selection_threshold
from ckoord.gbdt import TrainConfig, fit_tree, train_ensemble, regression_metrics, tree_predict
from ckoord.mitigator import (
    Evict,
    MitigationConfig,
    Severity,
    Suppress,
    cpu_suppress,
    evict_candidates,
    plan,
    route,
)
from ckoord.predictor import DetectionVerdict, ThresholdParams, classify, cpi_threshold
from ckoord.scenario import default_config
from ckoord.simulator import run_scenario, report_to_json
from ckoord.telemetry import rolling_mean, rolling_std
from ckoord.trace import feature_matrix

from gbdt_reference import ref_fit_tree, ref_predict_row, same_structure
from helpers import cfg_with, trace_row


pytestmark = pytest.mark.acceptance


def check(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number} failed: {detail}"


_RUNS: dict = {}


def default_run(controllers: bool, seed: int):
    """Full default-scenario run, cached across the battery."""
    key = (controllers, seed)
    if key not in _RUNS:
        cfg = default_config() if controllers else cfg_with("controllers.enabled=false")
        _RUNS[key] = run_scenario(cfg, seed)
    return _RUNS[key]


# -- 1: tree construction against the exhaustive reference -------------------


def test_criterion_1_tree_oracle_equivalence():
    rng = random.Random(1234)
    start = perf_counter()
    trials = 200
    matched = 0
    for trial in range(trials):
        n = rng.randint(2, 64)
        d = rng.randint(1, 2)
        if trial % 3 == 0:
            # duplicate-heavy grids stress the midpoint and tie rules
            X = [[round(rng.uniform(0, 4) * 4) / 4 for _ in range(d)] for _ in range(n)]
        else:
            X = [[rng.uniform(-5, 5) for _ in range(d)] for _ in range(n)]
        g = [rng.uniform(-4, 4) for _ in range(n)]
        lam = rng.choice([0.0, 0.5, 1.0])
        tau = rng.choice([0.0, 0.1])
        depth = rng.randint(1, 2)
        msl = rng.choice([1, 2, 3])
        cfg = TrainConfig(lam=lam, tau=tau, max_depth=depth, min_samples_leaf=msl)
        impl = fit_tree(np.array(X), np.array(g), cfg)
        ref = ref_fit_tree(X, g, [1.0] * n, depth, lam, tau, msl)
        if not same_structure(ref, impl, weight_tol=1e-9):
            continue
        probes = [[rng.uniform(-6, 6) for _ in range(d)] for _ in range(16)]
        if all(
            abs(ref_predict_row(ref, p) - tree_predict(impl, np.array([p]))[0]) <= 1e-9
            for p in probes
        ):
            matched += 1
    elapsed = perf_counter() - start
    check(
        1,
        matched == trials and elapsed < 10.0,
        f"{matched}/{trials} fitted trees match the exhaustive reference"
        f" (structure, weights and predictions at 1e-9) in {elapsed:.1f}s",
    )


# -- 2: hand-derived formula values ------------------------------------------


def one_node_rows(pods):
    """pods: (pod_id, qos, cpu_util), as one node's trace rows."""
    return [trace_row(pod_id, "app", "node-00", qos.value, cpu) for pod_id, qos, cpu in pods]


def test_criterion_2_formula_spot_checks():
    failures = []

    u = comprehensive_utilization(1.0, 1.0, 1.0, UtilizationWeights())
    if abs(u - 5.0 / 6.0) > 1e-9:
        failures.append(f"saturated-node utilization {u} != 5/6")

    th = selection_threshold([0.2, 0.6], 3.0, "variance")
    if abs(th - 0.52) > 1e-12:
        failures.append(f"selection threshold {th} != 0.52")

    pods = one_node_rows([("ls-0", QosClass.LS, 20.0), ("be-0", QosClass.BE, 1.0)])
    action = cpu_suppress(pods, 32.0, "node-00", MitigationConfig(cpu_reserve_fraction=0.125))
    if not (isinstance(action, Suppress) and action.cpu_restriction == 8.0):
        failures.append(f"suppress restriction {action} != 8 cores")

    pods = one_node_rows(
        [("be-a", QosClass.BE, 10.0), ("be-b", QosClass.BE, 6.0), ("be-c", QosClass.BE, 9.0)],
    )
    action = evict_candidates(pods, 32.0, "node-00", MitigationConfig(eviction_ratio=0.25))
    if not (isinstance(action, Evict) and action.pod_ids == ("be-a", "be-c")):
        failures.append(f"eviction set {action} != 10- and 9-core pods")

    th = cpi_threshold([0.95, 1.05] * 4, ThresholdParams(3.0, 0.1), 0.5)
    if abs(th - 0.2) > 1e-12:
        failures.append(f"adaptive threshold {th} != 0.2")

    cfg = MitigationConfig()
    mild = classify(0.24, 0.2)
    severe = classify(0.5, 0.2)
    boundary = DetectionVerdict("app", 0.5, 0.3, True, 5.0 / 3.0)
    if abs(mild.csi - 1.2) > 1e-12 or route(mild, cfg) is not Severity.MILD:
        failures.append(f"csi 1.2 did not route mild ({mild})")
    if abs(severe.csi - 2.5) > 1e-12 or route(severe, cfg) is not Severity.SEVERE:
        failures.append(f"csi 2.5 did not route severe ({severe})")
    if route(boundary, cfg) is not Severity.SEVERE:
        failures.append("csi exactly 5/3 did not route severe")

    check(2, not failures, "; ".join(failures) or "6/6 hand-derived formula values match exactly")


# -- 3: rolling statistics against brute force -------------------------------


def test_criterion_3_rolling_stats_brute_force():
    capacity, window, appends = 48, 32, 100_000
    ring: deque[float] = deque(maxlen=capacity)
    shadow: list[float] = []
    rng = random.Random(77)
    start = perf_counter()
    worst = 0.0
    for i in range(appends):
        value = rng.gauss(0.0, 1.0) + (1e6 if i % 2 else 0.0)
        ring.append(value)
        shadow.append(value)
        if len(shadow) > capacity:
            del shadow[0]
        tail = shadow[-window:]
        brute_mean = math.fsum(tail) / len(tail)
        brute_var = math.fsum((x - brute_mean) ** 2 for x in tail) / len(tail)
        brute_dev = math.sqrt(brute_var)
        values = list(ring)[-window:]
        for impl, brute in (
            (rolling_mean(values), brute_mean),
            (rolling_std(values), brute_dev),
        ):
            rel = abs(impl - brute) / max(1.0, abs(brute))
            if rel > worst:
                worst = rel
    elapsed = perf_counter() - start
    check(
        3,
        worst <= 1e-12 and elapsed < 5.0,
        f"{appends} appends through ring eviction, worst relative error"
        f" {worst:.2e} (tolerance 1e-12) in {elapsed:.1f}s",
    )


# -- 4: monotonicity and invariants ------------------------------------------


def random_mixed_node(rng):
    cap = rng.uniform(8, 64)
    pods = []
    for i in range(rng.randint(1, 8)):
        qos = rng.choice([QosClass.BE, QosClass.LS, QosClass.LSR])
        pods.append((f"p-{i}", qos, rng.uniform(0, cap * 0.6)))
    return one_node_rows(pods), cap, pods


def test_criterion_4_invariant_suite():
    rng = random.Random(99)
    problems = []

    w = UtilizationWeights()
    for _ in range(10_000):
        m = [rng.random(), rng.random(), rng.random()]
        slot = rng.randrange(3)
        bumped = list(m)
        bumped[slot] = min(1.0, bumped[slot] + rng.random() * (1.0 - bumped[slot]))
        lo = comprehensive_utilization(*m, w)
        hi = comprehensive_utilization(*bumped, w)
        if hi < lo - 1e-12:
            problems.append(f"utilization not monotone at {m} slot {slot}")
            break

    params = ThresholdParams(3.0, 0.1)
    for _ in range(500):
        mean = rng.uniform(0.5, 2.0)
        spread = rng.uniform(0.0, 0.3)
        scale = 1.0 + rng.random()
        narrow, wide = [], []
        for i in range(12):
            offset = spread if i % 2 else -spread
            narrow.append(mean + offset)
            wide.append(mean + offset * scale)
        load_lo = rng.random()
        load_hi = load_lo + rng.random() * (1.0 - load_lo)
        if cpi_threshold(wide, params, load_lo) < cpi_threshold(narrow, params, load_lo) - 1e-12:
            problems.append("threshold not monotone in volatility")
            break
        if cpi_threshold(narrow, params, load_hi) < cpi_threshold(narrow, params, load_lo) - 1e-12:
            problems.append("threshold not monotone in load")
            break

    for trial in range(10_000):
        delta = rng.uniform(0, 0.5)
        threshold = delta if trial % 5 == 0 else rng.uniform(0, 0.5)
        verdict = classify(delta, threshold)
        if verdict.detected != (delta > threshold):
            problems.append(f"detected mismatch at delta={delta} th={threshold}")
            break
        if verdict.detected and not (verdict.csi > 1.0):
            problems.append(f"detected verdict with csi {verdict.csi} <= 1")
            break

    for _ in range(200):
        rows, cap, pods = random_mixed_node(rng)
        mu = rng.choice([0.1, 0.25, 0.5])
        cfg = MitigationConfig(eviction_ratio=mu)
        for action in (
            evict_candidates(rows, cap, "node-00", cfg),
            plan(rows, cap, "node-00", Severity.SEVERE, cfg),
        ):
            if isinstance(action, Evict):
                be_ids = {pid for pid, qos, _ in pods if qos.best_effort}
                if not set(action.pod_ids) <= be_ids:
                    problems.append(f"evicted non-BE pods {action.pod_ids}")
                    break

    for _ in range(200):
        rows, cap, pods = random_mixed_node(rng)
        reserve = rng.uniform(0.0, 0.3)
        action = cpu_suppress(rows, cap, "node-00", MitigationConfig(cpu_reserve_fraction=reserve))
        if isinstance(action, Suppress) and action.cpu_restriction > 0:
            ls = sum(c for _, qos, c in pods if qos.latency_critical)
            total = action.cpu_restriction + ls + reserve * cap
            if abs(total - cap) > 1e-9:
                problems.append(f"suppress identity broke: {total} != {cap}")
                break

    fresh = run_scenario(default_config(), seed=1)
    if report_to_json(default_run(True, 1).report) != report_to_json(fresh.report):
        problems.append("same-seed runs are not byte-identical")

    check(4, not problems, "; ".join(problems) or
          "monotonicity, detection, eviction, suppression and determinism invariants hold")


# -- 5: held-out prediction accuracy -----------------------------------------


def test_criterion_5_prediction_accuracy():
    start = perf_counter()
    seeds = range(1, 6)
    apps = ("web", "cache", "batch")
    accs = {app: [] for app in apps}
    for seed in seeds:
        result = default_run(False, seed)
        for app in apps:
            rows = [r for r in result.trace_rows if r.app_id == app]
            X, y = feature_matrix(rows)
            split = int(len(rows) * 0.8)
            model = train_ensemble(X[:split], y[:split], TrainConfig())
            holdout = regression_metrics(y[split:], model.predict(X[split:]))
            accs[app].append(holdout["acc"])
    elapsed = perf_counter() - start
    means = {app: statistics.fmean(accs[app]) for app in apps}
    ok = all(m >= 0.90 for m in means.values()) and elapsed < 60.0
    detail = ", ".join(f"{app} ACC {means[app]:.3f}" for app in apps)
    check(5, ok, f"held-out accuracy over 5 seeds: {detail} (floor 0.90) in {elapsed:.1f}s")


# -- 6: training time on 10k rows --------------------------------------------


def test_criterion_6_training_time():
    cfg = cfg_with("controllers.enabled=false", "horizon=334", "interference=[]")
    result = run_scenario(cfg, seed=1)
    X, y = feature_matrix(result.trace_rows)
    assert X.shape[0] >= 10_000
    start = perf_counter()
    train_ensemble(X, y, TrainConfig())
    elapsed = perf_counter() - start
    check(6, elapsed < 30.0, f"trained on {X.shape[0]} rows in {elapsed:.1f}s (budget 30s)")


# -- 7: detection responsiveness and false positives -------------------------

DETECTION_OVERRIDES = (
    "topology.node_count=8",
    "apps.0.replicas=8",
    "apps.1.replicas=8",
    "apps.2.replicas=8",
    "apps.0.demand_noise_std=0.02",
    "apps.1.demand_noise_std=0.02",
    "apps.2.demand_noise_std=0.02",
    "detector.k=2.5",
    "predictor.window=20",
    "workload.batches_per_interval=2",
    "workload.period_intervals=120",
)


def test_criterion_7_detection_responsiveness():
    start = perf_counter()
    draw = random.Random(4242)
    hits = 0
    for i in range(100):
        onset = draw.randint(45, 60)
        kind = draw.choice(["cpu_hog", "mem_pressure", "cache_thrash"])
        node = draw.randrange(8)
        intensity = round(draw.uniform(0.6, 1.0), 3)
        cfg = cfg_with(
            *DETECTION_OVERRIDES,
            f"horizon={onset + 8}",
            'interference=[{"target_node": "node-%02d", "kind": "%s",'
            ' "start_interval": %d, "duration": 30, "intensity": %s}]'
            % (node, kind, onset, intensity),
        )
        report = run_scenario(cfg, seed=1000 + i).report
        lags = [d.get("lag_intervals") for d in report["detections"]]
        if any(lag is not None and 0 <= lag <= 2 for lag in lags):
            hits += 1

    total_verdicts = 0
    total_false = 0
    worst_run_rate = 0.0
    for i in range(100):
        cfg = cfg_with(*DETECTION_OVERRIDES, "horizon=60", "interference=[]")
        report = run_scenario(cfg, seed=5000 + i).report
        verdicts = report["verdicts_evaluated"]
        false_hits = len(report["detections"])
        total_verdicts += verdicts
        total_false += false_hits
        if verdicts:
            worst_run_rate = max(worst_run_rate, false_hits / verdicts)
    fp_rate = total_false / total_verdicts if total_verdicts else 0.0
    elapsed = perf_counter() - start
    check(
        7,
        hits >= 90 and fp_rate <= 0.05 and elapsed < 120.0,
        f"{hits}/100 injections detected within 2 intervals of onset;"
        f" clean-run false-positive rate {fp_rate:.3f}"
        f" (aggregate over {total_verdicts} verdicts, worst single run"
        f" {worst_run_rate:.3f}) in {elapsed:.1f}s",
    )


# -- 8: mitigation effect on tail latency ------------------------------------


def test_criterion_8_mitigation_effect():
    start = perf_counter()
    seeds = range(1, 11)
    ls_apps = ("web", "cache")
    reductions = {app: [] for app in ls_apps}
    not_worse = True
    for seed in seeds:
        off = default_run(False, seed).report["latency_ms"]
        on = default_run(True, seed).report["latency_ms"]
        for app in ls_apps:
            off_block = off[app]["interference"]
            on_block = on[app]["interference"]
            reductions[app].append(1.0 - on_block["p99"] / off_block["p99"])
            for key in ("p50", "p90"):
                if on_block[key] > off_block[key] * (1.0 + 1e-9):
                    not_worse = False
    elapsed = perf_counter() - start
    means = {app: statistics.fmean(reductions[app]) for app in ls_apps}
    ok = all(m >= 0.15 for m in means.values()) and not_worse and elapsed < 120.0
    detail = ", ".join(f"{app} P99 -{means[app] * 100:.1f}%" for app in ls_apps)
    check(
        8,
        ok,
        f"interference-window tail latency over 10 seeds: {detail}"
        f" (floor 15%), P50/P90 never worse: {not_worse}, in {elapsed:.1f}s",
    )


# -- 9: interference spike calibration ---------------------------------------


def test_criterion_9_spike_calibration():
    latency = default_run(False, 1).report["latency_ms"]
    spikes = {}
    bands = {}
    for app in ("web", "cache"):
        block = latency[app]
        spikes[app] = block["interference"]["p99"] / block["normal"]["p99"]
        bands[app] = block["normal"]["p99"] / block["normal"]["p50"]
    worst_spike = max(spikes.values())
    bands_ok = all(2.0 <= b <= 5.0 for b in bands.values())
    detail = (
        "unmitigated spike "
        + ", ".join(f"{app} {spikes[app]:.1f}x" for app in spikes)
        + " (max must reach 15x); normal-phase P99/median "
        + ", ".join(f"{app} {bands[app]:.2f}x" for app in bands)
        + " (band 2-5x)"
    )
    check(9, worst_spike >= 15.0 and bands_ok, detail)
