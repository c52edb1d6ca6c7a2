"""End-to-end controller pass over hand-built trace rows.

The construction keeps every number exact: constant features, constant CPI
history c, a one-round full-step unregularized model, so the trained model
predicts exactly c and a later CPI spike of +1 produces a delta of exactly 1.
The loop orders intervals by the number it is given, not by the rows' own,
so the hand-built rows all carry interval 0.
"""

import math
import random
import re
from collections import Counter, deque
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ckoord import detector as detector_module
from ckoord import loop as loop_module
from ckoord.cluster import QosClass
from ckoord.detector import DetectorConfig, FlaggedApps
from ckoord.gbdt import FEATURE_NAMES, Ensemble, TrainConfig
from ckoord.loop import HISTORY_RETENTION_WINDOWS, ControlLoop, PodRecord
from ckoord.mitigator import Evict, MitigationConfig, Severity, Suppress
from ckoord.predictor import PredictorConfig, ThresholdParams, delta_cpi
from ckoord.scenario import default_config
from ckoord.simulator import Simulator
from ckoord.telemetry import rolling_mean, rolling_std
from ckoord.trace import NodeRow, TraceRow
from delta_reference import reference_delta_cpi
from helpers import loop_scenario
import decide_reference
import loop_reference

# model inputs by FEATURE_NAMES slot
WEB_FEATURES = dict(zip(FEATURE_NAMES, (0.5, 0.5, 0.9, 0.2, 0.9, 0.7, 1e6, 0.5, 0.5)))
BATCH_FEATURES = dict(zip(FEATURE_NAMES, (0.5, 0.5, 0.9, 0.7, 0.9, 0.2, 2e6, 0.5, 0.5)))

# node_cpu_total, node_cpu_offline, node_cpu_online, node_cpu_shared, node_mem_util
HOT = (0.9, 0.4, 0.5, 0.9, 0.9)
COLD = (0.1, 0.0, 0.1, 0.1, 0.1)


def nodes(hot="node-01"):
    return [
        NodeRow(0, f"node-0{i}", *(HOT if f"node-0{i}" == hot else COLD)) for i in range(4)
    ]


def pod_row(pod_id, app_id, node_id, qos, features, cpi, cores):
    return TraceRow(
        interval=0,
        node_id=node_id,
        pod_id=pod_id,
        app_id=app_id,
        qos=qos,
        node_mem_util=0.5,
        cpi=cpi,
        pod_cpu_cores=cores,
        **features,
    )


def web_pod(cpi=1.0, pod_id="web-0", node_id="node-01"):
    return pod_row(pod_id, "web", node_id, "LS", WEB_FEATURES, cpi, 0.8)


def batch_pod(cpi=1.0):
    # 2 cores is over the 0.25 * 4.0 eviction bar
    return pod_row("batch-0", "batch", "node-01", "BE", BATCH_FEATURES, cpi, 2.0)


def exact_loop(hysteresis=12):
    return ControlLoop(
        loop_scenario(
            detector=DetectorConfig(k=3.0, deviation="variance", hysteresis_intervals=hysteresis),
            predictor=PredictorConfig(
                window=1,
                params=ThresholdParams(k1=0.0, k2=0.1),
                min_history_windows=2,
                train=TrainConfig(
                    learning_rate=1.0, lam=0.0, max_depth=1, num_rounds=1, min_samples_leaf=1
                ),
            ),
            mitigator=MitigationConfig(),  # boundary 5/3, cooldown 2
            node_count=4,
        )
    )


def test_full_detection_and_mitigation_timeline():
    loop = exact_loop()

    # interval 0: hot node flags both apps; one history row each -> deferred
    out0 = loop.observe(0, [web_pod(1.0), batch_pod()], nodes())
    assert out0.newly_flagged == ["batch", "web"]
    assert out0.flagged_apps == ["batch", "web"]
    assert sorted(out0.deferred_apps) == ["batch", "web"]
    assert out0.verdicts == [] and out0.actions == []

    # interval 1: two rows reach the training minimum; constant CPI history
    # trains a model that predicts exactly 1.0, so nothing is detected yet
    out1 = loop.observe(1, [web_pod(1.0), batch_pod()], nodes())
    assert out1.deferred_apps == []
    assert [v.app_id for v in out1.verdicts] == ["batch", "web"]
    assert all(not v.detected for v in out1.verdicts)
    assert out1.actions == []
    assert len(loop.models_trained["web"]) == 1
    fit = loop.models_trained["web"][0]
    assert fit["interval"] == 1 and fit["rows"] == 2
    assert fit["mse"] == pytest.approx(0.0, abs=1e-18)

    # interval 2: CPI jumps by exactly 1 with unchanged features
    out2 = loop.observe(2, [web_pod(2.0), batch_pod()], nodes())
    web_v = next(v for v in out2.verdicts if v.app_id == "web")
    assert web_v.detected
    assert web_v.delta_cpi == pytest.approx(1.0, abs=1e-12)
    # threshold is the pure load term: 0.1 * (0.5*0.5 + 0.3*0.5 + 0.2*0.5)
    assert web_v.threshold == pytest.approx(0.05, abs=1e-12)
    assert web_v.csi == pytest.approx(20.0, abs=1e-9)
    assert len(out2.actions) == 1
    planned = out2.actions[0]
    assert planned.severity is Severity.SEVERE
    assert planned.node_id == "node-01"
    assert isinstance(planned.action, Evict)
    assert planned.action.pod_ids == ("batch-0",)

    # intervals 3 and 4: still detected, but the node is cooling down
    out3 = loop.observe(3, [web_pod(2.0), batch_pod()], nodes())
    assert next(v for v in out3.verdicts if v.app_id == "web").detected
    assert out3.actions == []
    out4 = loop.observe(4, [web_pod(2.0), batch_pod()], nodes())
    assert out4.actions == []

    # interval 5: cooldown of 2 has elapsed, mitigation fires again
    out5 = loop.observe(5, [web_pod(2.0), batch_pod()], nodes())
    assert len(out5.actions) == 1
    assert out5.actions[0].interval == 5

    # the batch app stayed constant the whole time: never detected
    assert all(not v.detected for out in (out2, out3, out4, out5)
               for v in out.verdicts if v.app_id == "batch")

    # model trained once per app for the whole episode
    assert len(loop.models_trained["web"]) == 1
    assert len(loop.models_trained["batch"]) == 1


def test_unflag_invalidates_and_reflag_retrains():
    loop = exact_loop(hysteresis=1)
    loop.observe(0, [web_pod(1.0), batch_pod()], nodes())
    loop.observe(1, [web_pod(1.0), batch_pod()], nodes())
    assert len(loop.models_trained["web"]) == 1
    assert "web" in loop.cache.models

    # a fully cold cluster for one scan satisfies hysteresis of 1
    out2 = loop.observe(2, [web_pod(1.0), batch_pod()], nodes(hot="none"))
    assert out2.newly_unflagged == ["batch", "web"]
    assert out2.flagged_apps == []
    assert "web" not in loop.cache.models

    # hot again: a fresh model is trained from the accumulated history
    out3 = loop.observe(3, [web_pod(1.0), batch_pod()], nodes())
    assert out3.newly_flagged == ["batch", "web"]
    assert len(loop.models_trained["web"]) == 2
    assert loop.models_trained["web"][1]["interval"] == 3
    assert loop.models_trained["web"][1]["rows"] == 4


def test_action_targets_the_worst_pods_node():
    loop = exact_loop()
    quiet = web_pod(1.0, pod_id="web-1", node_id="node-00")
    loop.observe(0, [web_pod(1.0), quiet, batch_pod()], nodes())
    out1 = loop.observe(1, [web_pod(2.0), quiet, batch_pod()], nodes())
    assert len(out1.actions) == 1
    assert out1.actions[0].node_id == "node-01"
    assert out1.actions[0].action.pod_ids == ("batch-0",)


def test_disabled_controllers_only_record():
    # nothing reads a record while nothing decides, so none is kept
    loop = exact_loop()
    out = loop.observe(0, [web_pod(1.0)], nodes(), controllers_enabled=False)
    assert out.verdicts == [] and out.actions == [] and out.flagged_apps == []
    assert loop.pods == {}
    assert loop.n_max == 0.0


def test_observe_needs_a_row_for_every_scenario_node():
    # a node left out, or listed twice, would be scored without its metrics
    loop = exact_loop()
    with pytest.raises(ValueError, match="interval 0: 3 node rows, 4 nodes"):
        loop.observe(0, [web_pod(1.0)], nodes()[1:])
    node_rows = nodes()
    twice = [node_rows[0], node_rows[1], node_rows[1], node_rows[3]]
    with pytest.raises(ValueError, match="interval 0: 2 node rows for node-01, none for node-02"):
        loop.observe(0, [web_pod(1.0)], twice)
    unknown = node_rows[:3] + [node_rows[3]._replace(node_id="node-09")]
    with pytest.raises(ValueError, match="interval 0: node row for unknown node node-09"):
        loop.observe(0, [web_pod(1.0)], unknown)
    # a pod row naming no scenario node is refused before any row is recorded
    stray = [batch_pod(), web_pod(1.0, node_id="node-99")]
    with pytest.raises(ValueError, match="interval 0: pod web-0 on unknown node node-99"):
        loop.observe(0, stray, node_rows)
    # nor is an interval with two rows for one pod
    repeated = [batch_pod(), web_pod(1.0), web_pod(1.0)]
    with pytest.raises(ValueError, match="interval 0: 2 rows for pod web-0"):
        loop.observe(0, repeated, node_rows)
    assert loop.pods == {}  # a refused interval records nothing
    assert loop.n_max == 0.0
    # nor is an interval that does not come after the last one observed,
    # even where a pod has no record yet to order its sample by
    loop.observe(1, [web_pod(1.0)], node_rows)
    pods, n_max = {pod_id: list(r.rows) for pod_id, r in loop.pods.items()}, loop.n_max
    for interval in (0, 1):
        refused = f"interval {interval}: does not come after interval 1"
        with pytest.raises(ValueError, match=refused):
            loop.observe(interval, [batch_pod(), web_pod(2.0)], node_rows)
    assert {pod_id: list(r.rows) for pod_id, r in loop.pods.items()} == pods
    assert "batch-0" not in loop.pods and loop.n_max == n_max
    # nor is a negative interval, or a pod row whose CPI is not in (0, inf),
    # even where an earlier row of the interval is valid; so a corrected
    # retry of the interval is accepted
    loop = exact_loop()
    refusals = [(-1, 1.0, "interval -1: is negative")] + [
        (0, cpi, f"interval 0: pod web-0 has CPI {cpi!r}, not in (0, inf)")
        for cpi in (math.nan, math.inf, -math.inf, 0.0, -1.0)
    ]
    for interval, cpi, refused in refusals:
        with pytest.raises(ValueError, match=re.escape(refused)):
            loop.observe(interval, [batch_pod(), web_pod(cpi)], node_rows)
        assert loop.pods == {} and loop.n_max == 0.0 and loop.last_interval is None
    loop.observe(0, [batch_pod(), web_pod(1.0)], node_rows)
    assert sorted(loop.pods) == ["batch-0", "web-0"] and loop.last_interval == 0


def test_evicted_pod_returns_with_fresh_record():
    loop = exact_loop()
    loop.observe(0, [web_pod(1.0), batch_pod()], nodes())
    loop.observe(1, [web_pod(1.0), batch_pod()], nodes())
    assert len(loop.pods["batch-0"].predictions) == 1
    out2 = loop.observe(2, [web_pod(2.0), batch_pod()], nodes())
    assert out2.actions[0].action.pod_ids == ("batch-0",)
    # the pass that planned the eviction drops the pod's record; the others stay
    assert "batch-0" not in loop.pods
    assert len(loop.pods["web-0"].rows) == 3
    assert list(loop.pods["web-0"].cpi) == [2.0]  # window 1
    assert len(loop.pods["web-0"].predictions) == 1  # window 1

    out3 = loop.observe(3, [web_pod(2.0), batch_pod()], nodes())
    assert out3.actions == []  # node-01 is cooling down
    record = loop.pods["batch-0"]
    assert list(record.cpi) == [1.0]
    assert len(record.rows) == 1
    assert len(record.predictions) == 1  # this interval's, from the app's model


def test_history_thinning_caps_training_rows():
    loop = ControlLoop(
        loop_scenario(
            detector=DetectorConfig(k=3.0),
            predictor=PredictorConfig(
                window=2,
                min_history_windows=1,
                train=TrainConfig(num_rounds=1, max_depth=1, min_samples_leaf=1),
            ),
            mitigator=MitigationConfig(),
            node_count=4,
        )
    )
    # never flagged (cold cluster): only the recording path runs
    for i in range(50):
        loop.observe(i, [web_pod(1.0)], nodes(hot="none"))
    X, y = loop._app_history([loop.pods["web-0"]])
    # retention ring is 4 windows deep, so at most 8 rows survive
    assert X.shape == (8, 9)
    assert np.all(y == 1.0)


def test_each_flagged_app_is_scored_in_one_predict_call(monkeypatch):
    """Over the packaged scenario, Ensemble.predict runs once per verdict,
    that is once per interval and flagged app with a model; a training's
    fit metrics come from the trainer's own predictions, and no pod is
    predicted on its own."""
    calls = Counter()

    def counting(name):
        original = getattr(Ensemble, name)

        def wrapper(self, X):
            calls[name] += 1
            return original(self, X)

        return wrapper

    for name in ("predict", "predict_row"):
        monkeypatch.setattr(Ensemble, name, counting(name))
    report = Simulator(default_config(), 1).run().report
    trainings = sum(len(fits) for fits in report["models"].values())
    assert 0 < trainings < report["verdicts_evaluated"]
    assert calls == {"predict": report["verdicts_evaluated"]}


# Each step records one CPI sample and then, while the app is flagged,
# predicts, as each pod of a flagged app with a model does.  The window
# holds predictions only within an episode, so an unflag clears it.
loop_steps = st.lists(
    st.tuples(st.booleans(), st.floats(0.05, 20.0), st.floats(0.05, 20.0)),
    min_size=1,
    max_size=60,
)


@settings(max_examples=150, deadline=None, database=None)
@given(window=st.integers(1, 6), steps=loop_steps)
@example(window=3, steps=[(True, 1.0 + i / 7, 1.1 + i / 9) for i in range(30)])
@example(window=6, steps=[(True, 1.3, 0.7), (True, 2.9, 1.1), (True, 0.4, 3.3)])
def test_stored_means_match_recomputed_delta(window, steps):
    """The record's stored pairs give the recompute reference's delta bits.

    The reference gets its own prediction window and its own CPI ring, each
    kept the way the loop kept them before it stored the means.  The
    examples cover a series shorter than the window and a ring that wraps.
    """
    record = PodRecord(window)
    series: deque[float] = deque(maxlen=HISTORY_RETENTION_WINDOWS * window)
    predictions: deque[float] = deque(maxlen=window)
    was_flagged = False
    for interval, (flagged, cpi, prediction) in enumerate(steps):
        record.record(web_pod(cpi))
        series.append(cpi)
        if was_flagged and not flagged:
            record.predictions.clear()
            predictions.clear()
        if flagged:
            record.predict(prediction)
            predictions.append(prediction)
            for mode in ("signed", "absolute"):
                expected = reference_delta_cpi(list(predictions), list(series), window, mode)
                assert delta_cpi(record.predictions, mode) == expected
        was_flagged = flagged


# -- the row-based decisions and CPI rings against the rebuilt reference ----

REF_NODES = ("node-00", "node-01", "node-02")
REF_POD_QOS = ("BE", "LS", "BE", "LSR", "SYSTEM")
QOS_VALUES = [q.value for q in QosClass]

# Before each interval a pod may change one field of its spec.
spec_change = st.one_of(
    st.none(),
    st.none(),
    st.none(),
    st.tuples(st.just("node_id"), st.sampled_from(REF_NODES)),
    st.tuples(st.just("qos"), st.sampled_from(QOS_VALUES)),
    st.tuples(st.just("app_id"), st.sampled_from(("web", "batch"))),
)
# (observed, spec change, measured CPI) for each of five pods, the hot node
# (3 for none) and the order the pods are observed in
interval_steps = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.sampled_from((True, True, True, False)), spec_change, st.floats(0.2, 4.0)),
            min_size=5,
            max_size=5,
        ),
        st.integers(0, 3),
        st.permutations(range(5)),
    ),
    min_size=1,
    max_size=30,
)


def reference_scenario(window):
    return loop_scenario(
        detector=DetectorConfig(k=0.5, hysteresis_intervals=2),
        predictor=PredictorConfig(
            window=window,
            params=ThresholdParams(k1=0.5, k2=0.1),
            min_history_windows=1,
            train=TrainConfig(
                learning_rate=1.0, lam=0.0, max_depth=2, num_rounds=1, min_samples_leaf=1
            ),
        ),
        mitigator=MitigationConfig(cooldown_intervals=0),
        node_count=len(REF_NODES),
    )


def exact(action):
    """The action, with a suppression cap as its exact bits."""
    if isinstance(action, Suppress):
        return ("suppress", action.node_id, action.cpu_restriction.hex())
    return action


def drive_against_reference(window, steps):
    """Run the steps through a loop, checking at every interval that scan,
    fed the node rows shuffled, flags what the reference scan flags on a
    fresh ``ClusterView`` build, over the same scores in node-id order;
    that plan, on every node at both severities and on every call the loop
    makes, gives the reference plan's action; and that every record's CPI
    ring holds the reference ring's samples and gives its rolling bits.
    Returns counts of what the steps exercised."""
    scenario = reference_scenario(window)
    loop = ControlLoop(scenario)
    real_scan, real_plan = loop_module.scan, loop_module.plan
    real_threshold = detector_module.selection_threshold
    specs = {
        f"p{i}": {
            "app_id": ("web", "batch")[i % 2],
            "node_id": REF_NODES[i % 3],
            "qos": REF_POD_QOS[i],
        }
        for i in range(5)
    }
    rings: dict[str, loop_reference.TimeSeries] = {}
    reference_flagged = FlaggedApps()  # of decide_reference's entries
    evicted: set[str] = set()
    seen = Counter()
    current = {}

    def recording_threshold(utilizations, k, deviation):
        current["scores"] = [u.hex() for u in utilizations]
        return real_threshold(utilizations, k, deviation)

    def checking_scan(node_rows, pod_rows, cfg, flagged):
        interval = current["interval"]
        state = loop_reference.detector_state(
            interval, current["pods"], current["nodes"], scenario
        )
        current["state"] = state
        expected = decide_reference.scan(state, cfg, reference_flagged)
        shuffled = list(node_rows)
        random.Random(interval).shuffle(shuffled)
        with mock.patch.object(detector_module, "selection_threshold", recording_threshold):
            got = real_scan(shuffled, pod_rows, cfg, flagged)
        assert got.entries == {
            app_id: entry.stable_intervals for app_id, entry in expected.entries.items()
        }
        assert current["scores"] == [
            decide_reference.comprehensive_utilization(
                state.nodes[node_id].metrics, cfg.weights_for(node_id)
            ).hex()
            for node_id in sorted(state.nodes)
        ]
        for node_id in REF_NODES:
            rows = [row for row in current["pods"] if row.node_id == node_id]
            for severity in (Severity.MILD, Severity.SEVERE):
                action = real_plan(rows, scenario.cpu_capacity, node_id, severity, scenario.mitigator)
                reference = decide_reference.plan(state, node_id, severity, scenario.mitigator)
                assert exact(action) == exact(reference)
        seen["scans"] += 1
        return got

    def checking_plan(pods, capacity, node_id, severity, cfg):
        action = real_plan(pods, capacity, node_id, severity, cfg)
        reference = decide_reference.plan(current["state"], node_id, severity, cfg)
        assert exact(action) == exact(reference)
        seen["plans"] += 1
        return action

    with (
        mock.patch.object(loop_module, "scan", checking_scan),
        mock.patch.object(loop_module, "plan", checking_plan),
    ):
        for interval, (pod_steps, hot, order) in enumerate(steps):
            pods = []
            for i in order:
                observed, change, cpi = pod_steps[i]
                spec = specs[f"p{i}"]
                if change is not None and spec[change[0]] != change[1]:
                    spec[change[0]] = change[1]
                    seen["spec changes"] += 1
                if observed:
                    features = (cpi / 4, 0.5, 0.9, 0.2, 0.9, 0.7, cpi * 1e5, 0.5, 0.5)
                    pods.append(
                        pod_row(
                            f"p{i}", spec["app_id"], spec["node_id"], spec["qos"],
                            dict(zip(FEATURE_NAMES, features)), cpi, cpi,
                        )._replace(interval=interval)
                    )
            current["interval"] = interval
            current["pods"] = pods
            current["nodes"] = [
                NodeRow(interval, node_id, *(HOT if j == hot else COLD))
                for j, node_id in enumerate(REF_NODES)
            ]
            outcome = loop.observe(interval, pods, current["nodes"])

            for ob in pods:
                ring = rings.get(ob.pod_id)
                if ring is None:
                    if ob.pod_id in evicted:
                        evicted.discard(ob.pod_id)
                        seen["returns"] += 1
                    capacity = HISTORY_RETENTION_WINDOWS * window
                    ring = rings[ob.pod_id] = loop_reference.TimeSeries(ob.pod_id, capacity)
                if len(ring) == ring.capacity:
                    seen["ring wraps"] += 1
                ring.record(interval, ob.cpi)
            for planned in outcome.actions:
                if isinstance(planned.action, Evict):
                    for pod_id in planned.action.pod_ids:
                        del rings[pod_id]
                        evicted.add(pod_id)
                        seen["evictions"] += 1

            assert loop.pods.keys() == rings.keys()
            for pod_id, record in loop.pods.items():
                ring = rings[pod_id]
                values = [row.cpi for row in record.rows]
                assert [row.interval for row in record.rows] == [s.timestamp for s in ring.samples]
                assert values == [s.value for s in ring.samples]
                assert list(record.cpi) == ring.window_values(window)
                assert len(record.rows) == len(ring)
                for n in (1, window, len(ring) + 1):
                    assert rolling_mean(values[-n:]).hex() == loop_reference.rolling_mean(ring, n).hex()
                    assert rolling_std(values[-n:]).hex() == loop_reference.rolling_std(ring, n).hex()
                assert rolling_mean(record.cpi).hex() == loop_reference.rolling_mean(ring, window).hex()
                assert rolling_std(record.cpi).hex() == loop_reference.rolling_std(ring, window).hex()
    assert seen["scans"] == len(steps)
    return seen


@settings(max_examples=60, deadline=None, database=None)
@given(window=st.integers(1, 3), steps=interval_steps)
def test_live_view_and_cpi_rings_match_the_rebuilt_reference(window, steps):
    drive_against_reference(window, steps)


def test_reference_drive_covers_evictions_returns_moves_and_wraps():
    """One fixed stream reaches every case the property is meant to cover."""
    rng = random.Random(5)
    changes = [
        ("node_id", "node-01"), ("node_id", "node-02"), ("qos", "BE"), ("app_id", "web"),
    ]
    steps = [
        (
            [
                (rng.random() < 0.8, rng.choice(changes) if rng.random() < 0.1 else None,
                 rng.uniform(0.2, 4.0))
                for _ in range(5)
            ],
            rng.randrange(4),
            rng.sample(range(5), 5),
        )
        for _ in range(40)
    ]
    seen = drive_against_reference(2, steps)
    for case in ("spec changes", "plans", "evictions", "returns", "ring wraps"):
        assert seen[case] > 0, case
