"""Per-interval controller: scan -> predict -> plan mitigation.

The loop observes trace rows: each interval, one ``TraceRow`` per pod and
one ``NodeRow`` per node, the records ``trace.csv`` and ``nodes.csv`` hold.
The simulator hands them over live and replay reads them back, so the two
make identical decisions by construction.  The detector and the mitigator
decide on those rows directly.  What the rows do not carry, the node
capacity and the node set each interval's node rows must cover, is read
from the scenario once.  The loop emits verdicts and planned actions;
replay records them, the simulator enforces them.
Per-pod records, flagging state, the model cache and node cooldowns live
here; the records of evicted pods are dropped.  An interval is checked
whole, its order, its rows and every CPI sample, before any of it is
recorded, so a refused interval leaves the loop as it was.  Each interval's
rows are gone through once, and feature matrices are built only where a
model trains or predicts.
"""

from __future__ import annotations

import logging
import math
from collections import Counter, deque
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

from .detector import FlaggedApps, scan
from .mitigator import (
    Evict,
    MitigationAction,
    NoOp,
    Severity,
    Suppress,
    plan,
    route,
)
from .gbdt import regression_metrics
from .predictor import (
    DetectionVerdict,
    ModelCache,
    classify,
    cpi_threshold,
    delta_cpi,
    load_factor,
    verdict_rank,
    worst_verdict,
)
from .scenario import Scenario
from .telemetry import rolling_mean
from .trace import NodeRow, TraceRow, feature_matrix

log = logging.getLogger("ckoord.loop")

HISTORY_RETENTION_WINDOWS = 4   # per-pod row ring, the training history
MAX_TRAIN_ROWS = 1200           # thin older history beyond this many rows


class PodRecord:
    """What the loop remembers about one pod.

    ``rows`` holds the pod's newest trace rows, the history its app's model
    trains on; ``cpi`` holds the newest ``window`` of those rows' CPI
    values, the window the verdict reads.  ``predictions`` holds the current
    flagging episode's newest ``window`` pairs of (prediction, rolling mean
    of the CPI when the prediction was made).
    """

    def __init__(self, window: int) -> None:
        self.rows: deque[TraceRow] = deque(maxlen=HISTORY_RETENTION_WINDOWS * window)
        self.cpi: deque[float] = deque(maxlen=window)
        self.predictions: deque[tuple[float, float]] = deque(maxlen=window)

    def record(self, row: TraceRow) -> None:
        self.rows.append(row)
        self.cpi.append(row.cpi)

    def predict(self, prediction: float) -> float:
        """Keep the prediction with the CPI's rolling mean, and return the mean."""
        mean = rolling_mean(self.cpi)
        self.predictions.append((prediction, mean))
        return mean


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
    def __init__(self, scenario: Scenario) -> None:
        self.detector_cfg = scenario.detector
        self.predictor_cfg = scenario.predictor
        self.mitigator_cfg = scenario.mitigator
        self.node_ids = frozenset(scenario.node_ids)
        self.cpu_capacity = scenario.cpu_capacity  # of every node, in cores
        self.flagged = FlaggedApps()
        self.cache = ModelCache(scenario.predictor)
        self.pods: dict[str, PodRecord] = {}
        self.last_action: dict[str, int] = {}        # node_id -> interval
        self.last_interval: int | None = None        # the last interval observed
        self.n_max = 0.0
        self.models_trained: dict[str, list[dict]] = {}

    def _app_history(self, records: list[PodRecord]) -> tuple[np.ndarray, np.ndarray]:
        """Feature rows and CPI targets of one app's pods, thinned per pod."""
        rows: list[TraceRow] = []
        # thin per pod, endpoints included: each pod's newest row must survive
        # or a model trained at flag time never sees the onset
        budget = max(2, MAX_TRAIN_ROWS // len(records))
        for record in records:
            n = len(record.rows)
            idx = np.linspace(0, n - 1, budget).round().astype(int) if n > budget else range(n)
            rows.extend(record.rows[i] for i in idx)
        return feature_matrix(rows)

    def _check_rows(
        self, interval: int, pod_rows: list[TraceRow], node_rows: list[NodeRow]
    ) -> None:
        """Refuse an interval unless it is not negative and comes after the
        last one observed, the node rows name each scenario node once and the
        pod rows name each pod once, on a scenario node, with a CPI in
        (0, inf)."""
        if interval < 0:
            raise ValueError(f"interval {interval}: is negative")
        last = self.last_interval
        if last is not None and interval <= last:
            raise ValueError(f"interval {interval}: does not come after interval {last}")
        named = {row.node_id for row in node_rows}
        nodes = self.node_ids
        if len(node_rows) != len(nodes):
            raise ValueError(f"interval {interval}: {len(node_rows)} node rows, {len(nodes)} nodes")
        if named != nodes:
            unknown = sorted(named - nodes)
            if unknown:
                raise ValueError(f"interval {interval}: node row for unknown node {unknown[0]}")
            rows = Counter(row.node_id for row in node_rows)
            repeated = min(node_id for node_id, n in rows.items() if n > 1)
            missing = min(nodes - named)
            raise ValueError(
                f"interval {interval}: {rows[repeated]} node rows for {repeated},"
                f" none for {missing}"
            )
        for row in pod_rows:
            if row.node_id not in nodes:
                raise ValueError(
                    f"interval {interval}: pod {row.pod_id} on unknown node {row.node_id}"
                )
            if not 0.0 < row.cpi < math.inf:  # NaN fails both comparisons
                raise ValueError(
                    f"interval {interval}: pod {row.pod_id} has CPI {row.cpi!r},"
                    " not in (0, inf)"
                )
        if len(set(map(attrgetter("pod_id"), pod_rows))) != len(pod_rows):
            rows = Counter(row.pod_id for row in pod_rows)
            repeated = min(pod_id for pod_id, n in rows.items() if n > 1)
            raise ValueError(f"interval {interval}: {rows[repeated]} rows for pod {repeated}")

    # -- the pass itself -------------------------------------------------

    def observe(
        self,
        interval: int,
        pod_rows: list[TraceRow],
        node_rows: list[NodeRow],
        controllers_enabled: bool = True,
    ) -> IntervalOutcome:
        """One interval: ``pod_rows`` has a row per pod, ``node_rows`` one per
        scenario node.  With controllers off nothing is recorded or decided."""
        outcome = IntervalOutcome(interval=interval)
        if not controllers_enabled:
            return outcome  # nothing decides, so nothing is recorded
        self._check_rows(interval, pod_rows, node_rows)  # a refused interval records nothing
        self.last_interval = interval
        # one pass: record every pod, and group its row by app
        by_app: dict[str, list[tuple[TraceRow, PodRecord]]] = {}
        for row in pod_rows:
            record = self.pods.get(row.pod_id)
            if record is None:
                record = self.pods[row.pod_id] = PodRecord(self.predictor_cfg.window)
            record.record(row)
            if row.l3_miss_rate > self.n_max:
                self.n_max = row.l3_miss_rate
            by_app.setdefault(row.app_id, []).append((row, record))

        before = set(self.flagged.entries)
        scan(node_rows, pod_rows, self.detector_cfg, self.flagged)
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
                X, y = self._app_history([record for _, record in app_pods])
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
            X, _ = feature_matrix([row for row, _ in app_pods])
            predictions = model.predict(X)
            pod_verdicts: list[tuple[DetectionVerdict, TraceRow]] = []
            for (row, record), prediction, features in zip(
                app_pods, predictions.tolist(), X.tolist()
            ):
                mean = record.predict(prediction)
                delta = delta_cpi(record.predictions, self.predictor_cfg.delta_mode)
                threshold = cpi_threshold(
                    record.cpi,
                    self.predictor_cfg.params,
                    load_factor(features, self.n_max, self.predictor_cfg.load_weights),
                    mean,
                )
                pod_verdicts.append((classify(delta, threshold, app_id), row))
            verdict = worst_verdict([v for v, _ in pod_verdicts])
            outcome.verdicts.append(verdict)
            if not verdict.detected:
                continue
            worst_row = max(pod_verdicts, key=lambda pair: verdict_rank(pair[0]))[1]
            severity = route(verdict, self.mitigator_cfg)
            if severity is Severity.NONE:
                continue
            node_id = worst_row.node_id
            last = self.last_action.get(node_id)
            if last is not None and interval - last <= self.mitigator_cfg.cooldown_intervals:
                continue  # node still cooling down
            action = plan(
                [row for row in pod_rows if row.node_id == node_id],
                self.cpu_capacity,
                node_id,
                severity,
                self.mitigator_cfg,
            )
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
