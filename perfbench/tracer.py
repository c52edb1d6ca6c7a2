"""Layer tracing for the benchmark, applied from outside the program.

Each public function a layer exposes is replaced, at the name its caller
looks up, by a wrapper that records one span: (name, start, end, parent, op).
Spans stay in memory until the run ends.  Nothing in ``src/`` is touched;
every replaced attribute is put back by ``Patches.restore``.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import Counter

# Outcome counters recorded next to a span, called as (counts, args, result).


def _count_rows(counts, args, result, key):
    counts[key] += int(args[0].shape[0])


def _count_deferral(counts, args, result):
    if result is None:
        counts["predictor.deferrals"] += 1


def _count_flagged(counts, args, result):
    counts["detector.flagged_app_intervals"] += len(result.flagged_apps)


def _count_route(counts, args, result):
    if result.value != "none":
        counts["mitigator.routes"] += 1


def _count_action(counts, args, result):
    counts["mitigator.actions." + type(result).__name__.lower()] += 1


def _count_pods(counts, args, result):
    counts["simulator.pod_intervals"] += len(result[0])


def _count_written(counts, args, result):
    counts["trace.rows"] += len(args[1])
    counts["trace.bytes"] += os.path.getsize(args[0])


def _count_read(counts, args, result):
    counts["trace.rows"] += len(result)
    counts["trace.bytes"] += os.path.getsize(args[0])


_TRAIN_ROWS = functools.partial(_count_rows, key="gbdt.train_rows")

# (owner "module" or "module:Class", attribute, span name, counter).  Methods
# on a class receive the instance as args[0].
LAYER_PATCHES = (
    ("ckoord.cli", "main", "cli.main", None),
    ("ckoord.cli", "apply_overrides", "scenario.apply_overrides", None),
    ("ckoord.scenario", "apply_overrides", "scenario.apply_overrides", None),
    ("ckoord.scenario", "validate_config", "scenario.validate_config", None),
    ("ckoord.simulator", "validate_config", "scenario.validate_config", None),
    ("ckoord.cli", "write_trace", "trace.write_trace", _count_written),
    ("ckoord.cli", "read_trace", "trace.read_trace", _count_read),
    ("ckoord.cli", "rows_by_interval", "trace.rows_by_interval", None),
    ("ckoord.cli", "feature_matrix", "trace.feature_matrix", None),
    ("ckoord.cli", "train_ensemble", "gbdt.train_ensemble", _TRAIN_ROWS),
    ("ckoord.simulator:Simulator", "run", "simulator.run", None),
    ("ckoord.simulator:Simulator", "step", "simulator.step", _count_pods),
    ("ckoord.simulator", "allocate_cpu", "simulator.allocate_cpu", None),
    ("ckoord.simulator", "latency_model", "simulator.latency_model", None),
    ("ckoord.simulator", "apply_action", "mitigator.apply", None),
    ("ckoord.loop:ControlLoop", "observe", "loop.observe", _count_flagged),
    ("ckoord.loop", "scan", "detector.scan", None),
    ("ckoord.loop", "delta_cpi", "predictor.delta_cpi", None),
    ("ckoord.loop", "cpi_threshold", "predictor.cpi_threshold", None),
    ("ckoord.loop", "route", "mitigator.route", _count_route),
    ("ckoord.loop", "plan", "mitigator.plan", _count_action),
    ("ckoord.predictor:ModelCache", "get_or_train", "predictor.get_or_train", _count_deferral),
    ("ckoord.predictor", "train_ensemble", "gbdt.train_ensemble", _TRAIN_ROWS),
    ("ckoord.predictor", "rolling_std", "telemetry.rolling_std", None),
    ("ckoord.gbdt", "fit_tree", "gbdt.fit_tree",
     functools.partial(_count_rows, key="gbdt.fit_rows")),
    ("ckoord.gbdt", "tree_predict", "gbdt.tree_predict", None),
    ("ckoord.gbdt:Ensemble", "predict", "gbdt.predict", None),
    ("ckoord.gbdt:Ensemble", "predict_row", "gbdt.predict_row", None),
)


def _owner(path: str):
    module_name, _, class_name = path.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class Patches:
    """Attribute replacements that can be undone and checked."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, str, object]] = []
        self.absent: list[str] = []

    def replace(self, owner_path: str, name: str, make) -> None:
        """Set ``owner.name = make(original)``; a missing name is noted, not fatal."""
        owner = _owner(owner_path)
        original = vars(owner).get(name)
        if original is None:
            self.absent.append(f"{owner_path}.{name}")
            return
        self._saved.append((owner, owner_path, name, original))
        setattr(owner, name, make(original))

    def restore(self) -> list[str]:
        """Put every original back; returns the names that did not come back."""
        failed = []
        while self._saved:
            owner, owner_path, name, original = self._saved.pop()
            setattr(owner, name, original)
            if vars(owner).get(name) is not original:
                failed.append(f"{owner_path}.{name}")
        return failed


class Tracer:
    """Span recorder for the layers in LAYER_PATCHES."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int] | None] = []
        self.child_s: list[float] = []   # time covered by each span's children
        self.counts: Counter = Counter()
        self.op = -1
        self.absent: list[str] = []
        self._stack: list[int] = []

    def install(self) -> Patches:
        """Wrap every layer function; the caller restores the returned patches."""
        patches = Patches()
        for owner_path, name, span_name, counter in LAYER_PATCHES:
            patches.replace(
                owner_path, name, functools.partial(self._wrap, span_name, counter)
            )
        self.absent = patches.absent
        return patches

    def _wrap(self, name, counter, fn):
        spans, child_s, stack, clock = self.spans, self.child_s, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            child_s.append(0.0)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
                if parent >= 0:
                    child_s[parent] += end - start
            if counter is not None:
                counter(self.counts, args, result)
            return result

        return traced

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as out:
            out.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                out.write(f"{name},{start!r},{end!r},{parent},{op}\n")

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer totals over every recorded span: seconds, calls and counts."""
        total: Counter = Counter()
        own: Counter = Counter()
        calls: Counter = Counter()
        trains = 0
        for index, (name, start, end, parent, _op) in enumerate(self.spans):
            duration = end - start
            total[name] += duration
            own[name] += duration - self.child_s[index]
            calls[name] += 1
            if (
                name == "gbdt.train_ensemble"
                and parent >= 0
                and self.spans[parent][0] == "predictor.get_or_train"
            ):
                trains += 1
        counts = self.counts
        fit_rows = counts["gbdt.fit_rows"]
        get_calls = calls["predictor.get_or_train"]
        s, n = "s", "count"
        return {
            "gbdt.fit_tree.s": (total["gbdt.fit_tree"], s),
            "gbdt.fit_tree.calls": (calls["gbdt.fit_tree"], n),
            "gbdt.train_rows": (counts["gbdt.train_rows"], n),
            "gbdt.fit_us_per_row_tree": (
                total["gbdt.fit_tree"] * 1e6 / fit_rows if fit_rows else 0.0, "us"
            ),
            "gbdt.train_ensemble.self_s": (own["gbdt.train_ensemble"], s),
            "gbdt.tree_predict.s": (total["gbdt.tree_predict"], s),
            "gbdt.predict_row.s": (total["gbdt.predict_row"], s),
            "gbdt.predict_row.calls": (calls["gbdt.predict_row"], n),
            "gbdt.predict.s": (total["gbdt.predict"], s),
            "predictor.delta_cpi.s": (total["predictor.delta_cpi"], s),
            "predictor.delta_cpi.calls": (calls["predictor.delta_cpi"], n),
            "predictor.cpi_threshold.self_s": (own["predictor.cpi_threshold"], s),
            "telemetry.rolling_std.s": (total["telemetry.rolling_std"], s),
            "loop.observe.self_s": (own["loop.observe"], s),
            "predictor.get_or_train.self_s": (own["predictor.get_or_train"], s),
            "predictor.get_or_train.calls": (get_calls, n),
            "predictor.trains": (trains, n),
            "predictor.deferrals": (counts["predictor.deferrals"], n),
            "predictor.train_ratio": (trains / get_calls if get_calls else 0.0, "ratio"),
            "detector.scan.s": (total["detector.scan"], s),
            "detector.scan.calls": (calls["detector.scan"], n),
            "detector.flagged_app_intervals": (counts["detector.flagged_app_intervals"], n),
            "mitigator.plan.s": (total["mitigator.plan"], s),
            "mitigator.plan.calls": (calls["mitigator.plan"], n),
            "mitigator.apply.s": (total["mitigator.apply"], s),
            "mitigator.actions.suppress": (counts["mitigator.actions.suppress"], n),
            "mitigator.actions.evict": (counts["mitigator.actions.evict"], n),
            "mitigator.actions.noop": (counts["mitigator.actions.noop"], n),
            "mitigator.cooldown_skips": (
                counts["mitigator.routes"] - calls["mitigator.plan"], n
            ),
            "simulator.step.self_s": (own["simulator.step"], s),
            "simulator.step.calls": (calls["simulator.step"], n),
            "simulator.allocate_cpu.s": (total["simulator.allocate_cpu"], s),
            "simulator.latency_model.s": (total["simulator.latency_model"], s),
            "simulator.run.self_s": (own["simulator.run"], s),
            "simulator.pod_intervals": (counts["simulator.pod_intervals"], n),
            "scenario.apply_overrides.s": (total["scenario.apply_overrides"], s),
            "scenario.validate_config.s": (total["scenario.validate_config"], s),
            "trace.write_trace.s": (total["trace.write_trace"], s),
            "trace.read_trace.s": (total["trace.read_trace"], s),
            "trace.rows_by_interval.s": (total["trace.rows_by_interval"], s),
            "trace.feature_matrix.s": (total["trace.feature_matrix"], s),
            "trace.rows": (counts["trace.rows"], n),
            "trace.bytes": (counts["trace.bytes"], "B"),
            "cli.main.self_s": (own["cli.main"], s),
        }
