"""Per-interval controller: scan -> predict -> plan mitigation.

The loop is deliberately source-agnostic: it consumes per-interval
observations (one per pod, plus node utilization views) that can come from
the live simulator or from a recorded trace, and emits verdicts and planned
actions.  Whether actions are applied is the caller's business; replay
records them, the simulator enforces them.

Per-pod records (CPI series, feature history, prediction window, the pod's
entry in the detector view), flagging state, model cache and node cooldowns
all live here, and the loop drops the records of the pods it evicts, so that
live and replay runs of the same data make identical decisions.  Each
interval's observations are gone through once: recording, the view, the
largest miss rate and the grouping by app all come from that one pass.
"""

from __future__ import annotations

import logging
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .cluster import ClusterState, NodeMetrics, NodeState, PodEntry, PodSpec, QosClass
from .detector import DetectorConfig, FlaggedApps, scan
from .mitigator import (
    Evict,
    MitigationAction,
    MitigationConfig,
    NoOp,
    Severity,
    Suppress,
    plan,
    route,
)
from .gbdt import FEATURE_COUNT, regression_metrics
from .predictor import (
    DetectionVerdict,
    ModelCache,
    PredictorConfig,
    classify,
    cpi_threshold,
    delta_cpi,
    load_factor,
    verdict_rank,
    worst_verdict,
)
from .telemetry import TimeSeries, rolling_mean

log = logging.getLogger("ckoord.loop")

HISTORY_RETENTION_WINDOWS = 4   # per-pod CPI and feature rings
MAX_TRAIN_ROWS = 1200           # thin older history beyond this many rows


class PodRecord:
    """What the loop remembers about one pod.

    ``cpi`` is the only copy of the measured CPI, stamped with interval
    numbers; ``features`` holds the model input of each of its samples, so
    the two rings stay aligned.  ``predictions`` holds the current flagging
    episode's newest ``window`` pairs of (prediction, rolling mean of the CPI
    when the prediction was made).  ``entry`` is the pod's row in the
    detector/mitigator view, kept up to date by ``view``.
    """

    def __init__(self, pod_id: str, window: int) -> None:
        retention = HISTORY_RETENTION_WINDOWS * window
        self.window = window
        self.cpi = TimeSeries(f"cpi:{pod_id}", capacity=retention)
        self.features: deque[np.ndarray] = deque(maxlen=retention)
        self.predictions: deque[tuple[float, float]] = deque(maxlen=window)
        self.entry: PodEntry | None = None

    def record(self, interval: int, features: np.ndarray, cpi: float) -> None:
        self.cpi.record(interval, cpi)
        self.features.append(features)

    def predict(self, prediction: float) -> None:
        self.predictions.append((prediction, rolling_mean(self.cpi, self.window)))

    def view(self, ob: PodObservation, miss: float) -> PodEntry:
        """The pod's entry brought up to ``ob``, whose L3 miss rate is ``miss``.

        The spec is rebuilt only when the pod's app, node, QoS or requests
        change; the metrics are updated in place.
        """
        entry = self.entry
        if entry is None:
            entry = self.entry = PodEntry(_pod_spec(ob))
        else:
            spec = entry.spec
            if (
                spec.node_id != ob.node_id
                or spec.app_id != ob.app_id
                or spec.qos != ob.qos
                or spec.cpu_request != ob.cpu_request
                or spec.mem_request != ob.mem_request
            ):
                entry.spec = _pod_spec(ob)
        metrics = entry.metrics
        metrics.cpu_util = ob.cpu_cores
        metrics.l3_miss_rate = miss
        metrics.cpi_actual = ob.cpi
        return entry


def _pod_spec(ob: PodObservation) -> PodSpec:
    return PodSpec(
        pod_id=ob.pod_id,
        app_id=ob.app_id,
        node_id=ob.node_id,
        qos=ob.qos,
        cpu_request=ob.cpu_request,
        mem_request=ob.mem_request,
    )


@dataclass(frozen=True)
class PodObservation:
    pod_id: str
    app_id: str
    node_id: str
    qos: QosClass
    features: np.ndarray  # frozen 9-slot layout
    cpi: float
    cpu_cores: float      # absolute cores, for mitigation sizing
    cpu_request: float
    mem_request: float


@dataclass(frozen=True)
class NodeObservation:
    node_id: str
    cpu_capacity: float
    metrics: NodeMetrics


@dataclass(frozen=True)
class PlannedAction:
    interval: int
    app_id: str
    node_id: str
    severity: Severity
    action: MitigationAction


@dataclass
class IntervalOutcome:
    interval: int
    verdicts: list[DetectionVerdict] = field(default_factory=list)
    actions: list[PlannedAction] = field(default_factory=list)
    flagged_apps: list[str] = field(default_factory=list)
    deferred_apps: list[str] = field(default_factory=list)
    newly_flagged: list[str] = field(default_factory=list)
    newly_unflagged: list[str] = field(default_factory=list)


def _action_record(planned: PlannedAction) -> dict:
    record: dict = {
        "interval": planned.interval,
        "app_id": planned.app_id,
        "node_id": planned.node_id,
        "severity": planned.severity.value,
    }
    action = planned.action
    if isinstance(action, Suppress):
        record["type"] = "suppress"
        record["cpu_restriction"] = action.cpu_restriction
    elif isinstance(action, Evict):
        record["type"] = "evict"
        record["pod_ids"] = list(action.pod_ids)
    else:
        record["type"] = "noop"
    return record


@dataclass
class DecisionLog:
    """JSON-ready records of the loop's decisions, each stamped with its interval.

    Live runs and trace replays both fill one from the same outcomes, so their
    reports carry the same records for the same decisions.
    """

    flag_events: list[dict] = field(default_factory=list)
    detections: list[dict] = field(default_factory=list)
    actions: list[dict] = field(default_factory=list)
    verdicts_evaluated: int = 0
    deferrals: int = 0

    def add(self, outcome: IntervalOutcome) -> None:
        interval = outcome.interval
        self.verdicts_evaluated += len(outcome.verdicts)
        self.deferrals += len(outcome.deferred_apps)
        events = (("flag", outcome.newly_flagged), ("unflag", outcome.newly_unflagged))
        for event, app_ids in events:
            for app_id in app_ids:
                self.flag_events.append({"interval": interval, "app_id": app_id, "event": event})
        for verdict in outcome.verdicts:
            if verdict.detected:
                self.detections.append(
                    {
                        "interval": interval,
                        "app_id": verdict.app_id,
                        "delta_cpi": verdict.delta_cpi,
                        "threshold": verdict.threshold,
                        "csi": "inf" if verdict.csi == math.inf else verdict.csi,
                    }
                )
        self.actions.extend(_action_record(planned) for planned in outcome.actions)

    def action_lines(self) -> list[str]:
        """One actions.log line per action record."""
        lines = []
        for record in self.actions:
            line = (
                f"interval={record['interval']} node={record['node_id']} app={record['app_id']}"
                f" severity={record['severity']} action={record['type']}"
            )
            if record["type"] == "evict":
                line += f" pods={','.join(record['pod_ids'])}"
            elif record["type"] == "suppress":
                line += f" cap={record['cpu_restriction']:.6g}"
            lines.append(line)
        return lines


class ControlLoop:
    def __init__(
        self,
        detector_cfg: DetectorConfig,
        predictor_cfg: PredictorConfig,
        mitigator_cfg: MitigationConfig,
    ) -> None:
        self.detector_cfg = detector_cfg
        self.predictor_cfg = predictor_cfg
        self.mitigator_cfg = mitigator_cfg
        self.flagged = FlaggedApps()
        self.cache = ModelCache(predictor_cfg)
        self.pods: dict[str, PodRecord] = {}
        self.last_action: dict[str, int] = {}        # node_id -> interval
        self.n_max = 0.0
        self.models_trained: dict[str, list[dict]] = {}

    # -- state builders -------------------------------------------------

    def _app_history(self, app_id: str, pods: list[PodObservation]) -> tuple[np.ndarray, np.ndarray]:
        app_pods = [ob for ob in pods if ob.app_id == app_id]
        rows: list[np.ndarray] = []
        targets: list[float] = []
        # thin per pod, endpoints included: each pod's newest row must survive
        # or a model trained at flag time never sees the onset
        budget = max(2, MAX_TRAIN_ROWS // max(1, len(app_pods)))
        for ob in app_pods:
            record = self.pods[ob.pod_id]
            n = len(record.features)
            idx = np.linspace(0, n - 1, budget).round().astype(int) if n > budget else range(n)
            rows.extend(record.features[i] for i in idx)
            targets.extend(record.cpi.values[i] for i in idx)
        if not rows:
            return np.empty((0, FEATURE_COUNT)), np.empty(0)
        return np.stack(rows), np.array(targets)

    def _node_view(self, interval: int, nodes: list[NodeObservation]) -> ClusterState:
        state = ClusterState(interval=interval)
        for node in nodes:
            state.nodes[node.node_id] = NodeState(
                node_id=node.node_id,
                cpu_capacity=node.cpu_capacity,
                mem_capacity=1.0,
                metrics=node.metrics,
            )
        return state

    # -- the pass itself -------------------------------------------------

    def observe(
        self,
        interval: int,
        pods: list[PodObservation],
        nodes: list[NodeObservation],
        controllers_enabled: bool = True,
    ) -> IntervalOutcome:
        outcome = IntervalOutcome(interval=interval)
        # one pass: record every pod and, with controllers on, bring its view
        # entry up to date, list it on its node and group it by app
        state = self._node_view(interval, nodes) if controllers_enabled else None
        by_app: dict[str, list[tuple[PodObservation, PodRecord]]] = {}
        for ob in pods:
            record = self.pods.get(ob.pod_id)
            if record is None:
                record = self.pods[ob.pod_id] = PodRecord(ob.pod_id, self.predictor_cfg.window)
            record.record(interval, ob.features, ob.cpi)
            miss = float(ob.features[6])
            if miss > self.n_max:
                self.n_max = miss
            if state is not None:
                state.pods[ob.pod_id] = record.view(ob, miss)
                state.nodes[ob.node_id].pod_ids.append(ob.pod_id)
                by_app.setdefault(ob.app_id, []).append((ob, record))
        if state is None:
            return outcome

        before = set(self.flagged.entries)
        scan(state, self.detector_cfg, self.flagged)
        after = set(self.flagged.entries)
        outcome.newly_flagged = sorted(after - before)
        outcome.newly_unflagged = sorted(before - after)
        outcome.flagged_apps = sorted(after)
        for app_id in outcome.newly_unflagged:
            # episode over: next flag retrains and restarts prediction windows
            self.cache.invalidate(app_id)
            for _, record in by_app.get(app_id, ()):
                record.predictions.clear()
        for app_id in outcome.newly_flagged:
            log.debug("interval %d: flagged %s", interval, app_id)

        for app_id in outcome.flagged_apps:
            app_pods = sorted(by_app.get(app_id, ()), key=lambda pair: pair[0].pod_id)
            if not app_pods:
                continue
            model = self.cache.models.get(app_id)
            if model is None:
                # history is assembled only when the cache may train; the
                # episode's later intervals reuse its model
                X, y = self._app_history(app_id, [ob for ob, _ in app_pods])
                model = self.cache.get_or_train(app_id, X, y)
                if model is None:
                    outcome.deferred_apps.append(app_id)
                    continue
                fit = regression_metrics(y, model.train_predictions)
                self.models_trained.setdefault(app_id, []).append(
                    {
                        "interval": interval,
                        "rows": int(X.shape[0]),
                        "mse": fit["mse"],
                        "mae": fit["mae"],
                        "r2": fit["r2"],
                        "acc": fit["acc"],
                    }
                )
            predictions = model.predict(np.stack([ob.features for ob, _ in app_pods]))
            pod_verdicts: list[tuple[DetectionVerdict, PodObservation]] = []
            for (ob, record), prediction in zip(app_pods, predictions.tolist()):
                record.predict(prediction)
                delta = delta_cpi(record.predictions, self.predictor_cfg.delta_mode)
                threshold = cpi_threshold(
                    record.cpi,
                    self.predictor_cfg.window,
                    self.predictor_cfg.params,
                    load_factor(ob.features, self.n_max, self.predictor_cfg.load_weights),
                )
                pod_verdicts.append((classify(delta, threshold, app_id), ob))
            verdict = worst_verdict([v for v, _ in pod_verdicts])
            outcome.verdicts.append(verdict)
            if not verdict.detected:
                continue
            worst_ob = max(pod_verdicts, key=lambda pair: verdict_rank(pair[0]))[1]
            severity = route(verdict, self.mitigator_cfg)
            if severity is Severity.NONE:
                continue
            node_id = worst_ob.node_id
            last = self.last_action.get(node_id)
            if last is not None and interval - last <= self.mitigator_cfg.cooldown_intervals:
                continue  # node still cooling down
            action = plan(state, node_id, severity, self.mitigator_cfg)
            if not isinstance(action, NoOp):
                self.last_action[node_id] = interval
                log.info(
                    "interval %d: %s on %s for app %s (csi=%.3f)",
                    interval, severity.value, node_id, app_id,
                    verdict.csi if verdict.csi is not None else float("inf"),
                )
            outcome.actions.append(PlannedAction(interval, app_id, node_id, severity, action))
        # an evicted pod returns as a new pod; dropped only now, because a
        # later app in this pass may still read its record
        for planned in outcome.actions:
            if isinstance(planned.action, Evict):
                for pod_id in planned.action.pod_ids:
                    del self.pods[pod_id]
        return outcome
