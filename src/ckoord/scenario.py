"""Scenario configuration: load, validate, override.

A scenario is a JSON document; every calibration constant of the synthetic
cluster (gains, boosts, noise levels) lives here rather than in code, so
recalibration never needs a code change.  ``--set a.b.c=value`` overrides
descend the same key paths and are echoed into run reports.
"""

from __future__ import annotations

import copy
import importlib.resources
import json
from typing import Any

from .cluster import QosClass
from .trace import id_fault

VALID_QOS = tuple(q.value for q in QosClass)
VALID_KINDS = ("cpu_hog", "mem_pressure", "cache_thrash")


class ConfigError(ValueError):
    """Scenario config rejected; message carries a line number when known."""


def _find_line(raw: str | None, key: str) -> str:
    """Best-effort line locator for semantic errors (parse errors carry their own)."""
    if raw is None:
        return ""
    needle = f'"{key.rsplit(".", 1)[-1].split("[", 1)[0]}"'
    for lineno, line in enumerate(raw.splitlines(), start=1):
        if needle in line:
            return f" (line {lineno})"
    return ""


def _fail(raw: str | None, path: str, message: str) -> None:
    raise ConfigError(f"{path}{_find_line(raw, path)}: {message}")


def _require(cfg: dict, raw: str | None, path: str, key: str, types: tuple) -> Any:
    if key not in cfg:
        _fail(raw, f"{path}{key}", "missing required key")
    value = cfg[key]
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        expected = "/".join(t.__name__ for t in types)
        _fail(raw, f"{path}{key}", f"expected {expected}, got {type(value).__name__}")
    return value


def _number(cfg: dict, raw: str | None, path: str, key: str, minimum=None, maximum=None) -> float:
    value = _require(cfg, raw, path, key, (int, float))
    if minimum is not None and value < minimum:
        _fail(raw, f"{path}{key}", f"must be >= {minimum}, got {value}")
    if maximum is not None and value > maximum:
        _fail(raw, f"{path}{key}", f"must be <= {maximum}, got {value}")
    return float(value)


def default_config() -> dict:
    """The packaged default 10-node scenario as a fresh dict."""
    text = (
        importlib.resources.files("ckoord").joinpath("data/default_scenario.json").read_text()
    )
    return json.loads(text)


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        cfg = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path} (line 1): top level must be an object")
    validate_config(cfg, raw)
    return cfg


def parse_override(text: str) -> tuple[list[str], Any]:
    """'a.b.c=value' -> (path, parsed value); values parse as JSON when possible."""
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, _, value_text = text.partition("=")
    key = key.strip()
    if not key:
        raise ConfigError(f"override {text!r} has an empty key")
    try:
        value = json.loads(value_text)
    except json.JSONDecodeError:
        value = value_text  # bare strings are convenient: kind=cpu_hog
    return key.split("."), value


def apply_overrides(cfg: dict, overrides: list[str]) -> dict:
    """Apply --set overrides to a deep copy; re-validates the result."""
    out = copy.deepcopy(cfg)
    for text in overrides:
        path, value = parse_override(text)
        cursor: Any = out
        for part in path[:-1]:
            if isinstance(cursor, list):
                try:
                    cursor = cursor[int(part)]
                except (ValueError, IndexError):
                    raise ConfigError(f"override {text!r}: bad list index {part!r}") from None
            elif isinstance(cursor, dict):
                cursor = cursor.setdefault(part, {})
            else:
                raise ConfigError(f"override {text!r}: {part!r} is not a container")
        leaf = path[-1]
        if isinstance(cursor, list):
            try:
                cursor[int(leaf)] = value
            except (ValueError, IndexError):
                raise ConfigError(f"override {text!r}: bad list index {leaf!r}") from None
        elif isinstance(cursor, dict):
            cursor[leaf] = value
        else:
            raise ConfigError(f"override {text!r}: cannot assign into {type(cursor).__name__}")
    validate_config(out, None)
    return out


def validate_config(cfg: dict, raw: str | None = None) -> None:
    _number(cfg, raw, "", "horizon", minimum=1)
    _number(cfg, raw, "", "sampling_period_s", minimum=1)

    topology = _require(cfg, raw, "", "topology", (dict,))
    node_count = int(_number(topology, raw, "topology.", "node_count", minimum=1))
    _number(topology, raw, "topology.", "cpu_capacity", minimum=1e-9)
    _number(topology, raw, "topology.", "mem_capacity", minimum=1.0)

    apps = _require(cfg, raw, "", "apps", (list,))
    if not apps:
        _fail(raw, "apps", "at least one app is required")
    seen_apps = set()
    for i, app in enumerate(apps):
        where = f"apps[{i}]."
        if not isinstance(app, dict):
            _fail(raw, f"apps[{i}]", "must be an object")
        app_id = _require(app, raw, where, "app_id", (str,))
        fault = id_fault("app_id", app_id)
        if fault is not None:
            _fail(raw, f"{where}app_id", fault)
        if app_id in seen_apps:
            _fail(raw, f"{where}app_id", f"duplicate app_id {app_id!r}")
        seen_apps.add(app_id)
        qos = _require(app, raw, where, "qos", (str,))
        if qos not in VALID_QOS:
            _fail(raw, f"{where}qos", f"must be one of {VALID_QOS}, got {qos!r}")
        _number(app, raw, where, "replicas", minimum=1)
        _number(app, raw, where, "cpu_request", minimum=1e-9)
        _number(app, raw, where, "mem_request", minimum=1.0)
        _number(app, raw, where, "base_rps", minimum=0)
        _number(app, raw, where, "diurnal_amplitude", minimum=0, maximum=1)
        _number(app, raw, where, "demand_noise_std", minimum=0)
        _number(app, raw, where, "cpu_per_request", minimum=0)
        _number(app, raw, where, "mem_footprint", minimum=0)
        _number(app, raw, where, "latency_base_ms", minimum=1e-9)
        _number(app, raw, where, "cpi_base", minimum=1e-9)
        _number(app, raw, where, "base_miss_rate", minimum=0)
        _number(app, raw, where, "phase_offset", minimum=0, maximum=1)

    workload = _require(cfg, raw, "", "workload", (dict,))
    _number(workload, raw, "workload.", "period_intervals", minimum=1)
    _number(workload, raw, "workload.", "batches_per_interval", minimum=1)
    _number(workload, raw, "workload.", "latency_jitter_sigma", minimum=0)
    _number(workload, raw, "workload.", "rho_max", minimum=0, maximum=0.99)
    _number(workload, raw, "workload.", "latency_cpi_exponent", minimum=1)
    _number(workload, raw, "workload.", "mem_demand_coupling", minimum=0)

    truth = _require(cfg, raw, "", "ground_truth", (dict,))
    _number(truth, raw, "ground_truth.", "contention_gain", minimum=0)
    _number(truth, raw, "ground_truth.", "cache_gain", minimum=0)
    _number(truth, raw, "ground_truth.", "cpi_noise_std", minimum=0)
    _number(truth, raw, "ground_truth.", "cpi_floor_fraction", minimum=0, maximum=1)
    _number(truth, raw, "ground_truth.", "miss_load_gain", minimum=0)
    _number(truth, raw, "ground_truth.", "miss_noise_std", minimum=0)
    _number(truth, raw, "ground_truth.", "miss_scale", minimum=1e-9)
    kinds = _require(truth, raw, "ground_truth.", "interference", (dict,))
    for kind in VALID_KINDS:
        spec = _require(kinds, raw, "ground_truth.interference.", kind, (dict,))
        where = f"ground_truth.interference.{kind}."
        _number(spec, raw, where, "cpi_boost", minimum=0)
        _number(spec, raw, where, "cpu_fraction", minimum=0, maximum=1)
        _number(spec, raw, where, "miss_gain", minimum=0)
        _number(spec, raw, where, "mem_fraction", minimum=0, maximum=1)

    injections = _require(cfg, raw, "", "interference", (list,))
    for i, inj in enumerate(injections):
        where = f"interference[{i}]."
        if not isinstance(inj, dict):
            _fail(raw, f"interference[{i}]", "must be an object")
        target = _require(inj, raw, where, "target_node", (str,))
        index = _node_index(target)
        if index is None or index >= node_count:
            _fail(raw, f"{where}target_node", f"{target!r} is not a node of this topology")
        kind = _require(inj, raw, where, "kind", (str,))
        if kind not in VALID_KINDS:
            _fail(raw, f"{where}kind", f"must be one of {VALID_KINDS}, got {kind!r}")
        _number(inj, raw, where, "start_interval", minimum=0)
        _number(inj, raw, where, "duration", minimum=1)
        _number(inj, raw, where, "intensity", minimum=0, maximum=1)

    controllers = _require(cfg, raw, "", "controllers", (dict,))
    _require(controllers, raw, "controllers.", "enabled", (bool,))
    _number(controllers, raw, "controllers.", "reschedule_delay_intervals", minimum=0)

    detector = _require(cfg, raw, "", "detector", (dict,))
    _number(detector, raw, "detector.", "k", minimum=0)
    deviation = _require(detector, raw, "detector.", "deviation", (str,))
    if deviation not in ("variance", "std"):
        _fail(raw, "detector.deviation", f"must be 'variance' or 'std', got {deviation!r}")
    _number(detector, raw, "detector.", "hysteresis_intervals", minimum=1)
    weights = _require(detector, raw, "detector.", "weights", (dict,))
    if "default" not in weights:
        _fail(raw, "detector.weights", "must contain a 'default' entry [alpha, beta, gamma]")
    node_total = int(cfg["topology"]["node_count"])
    for name, triple in weights.items():
        label = f"detector.weights.{name}"
        if name != "default":
            idx = _node_index(name)
            if idx is None or idx >= node_total:
                _fail(raw, "detector.weights", f"{label}: key must be 'default' or a known node id")
        if (
            not isinstance(triple, list)
            or len(triple) != 3
            or not all(isinstance(w, (int, float)) and not isinstance(w, bool) for w in triple)
        ):
            _fail(raw, "detector.weights", f"{label}: expected three numbers [alpha, beta, gamma]")
        if abs(sum(triple) - 1.0) > 1e-9:
            _fail(raw, "detector.weights", f"{label}: must sum to 1, got {sum(triple)}")

    predictor = _require(cfg, raw, "", "predictor", (dict,))
    _number(predictor, raw, "predictor.", "window", minimum=1)
    _number(predictor, raw, "predictor.", "k1", minimum=0)
    _number(predictor, raw, "predictor.", "k2", minimum=0)
    delta_mode = _require(predictor, raw, "predictor.", "delta_mode", (str,))
    if delta_mode not in ("signed", "absolute"):
        _fail(raw, "predictor.delta_mode", f"must be 'signed' or 'absolute', got {delta_mode!r}")
    _number(predictor, raw, "predictor.", "min_history_windows", minimum=1)
    load_weights = _require(predictor, raw, "predictor.", "load_weights", (list,))
    if len(load_weights) != 3 or abs(sum(load_weights) - 1.0) > 1e-9:
        _fail(raw, "predictor.load_weights", "expected three numbers summing to 1")
    train = _require(predictor, raw, "predictor.", "train", (dict,))
    _number(train, raw, "predictor.train.", "learning_rate", minimum=0, maximum=1)
    _number(train, raw, "predictor.train.", "lam", minimum=0)
    _number(train, raw, "predictor.train.", "tau", minimum=0)
    _number(train, raw, "predictor.train.", "max_depth", minimum=1)
    _number(train, raw, "predictor.train.", "num_rounds", minimum=1)
    _number(train, raw, "predictor.train.", "min_samples_leaf", minimum=1)
    _number(train, raw, "predictor.train.", "base_score")

    mitigator = _require(cfg, raw, "", "mitigator", (dict,))
    _number(mitigator, raw, "mitigator.", "severity_boundary", minimum=1.0 + 1e-9)
    _number(mitigator, raw, "mitigator.", "cpu_reserve_fraction", minimum=0, maximum=0.999)
    _number(mitigator, raw, "mitigator.", "mu", minimum=1e-9, maximum=1)
    _number(mitigator, raw, "mitigator.", "cooldown_intervals", minimum=0)

    qos_weights = _require(cfg, raw, "", "qos_weights", (dict,))
    for qos in VALID_QOS:
        _number(qos_weights, raw, "qos_weights.", qos, minimum=1e-9)


def _node_index(node_id: str) -> int | None:
    if not node_id.startswith("node-"):
        return None
    try:
        return int(node_id[len("node-"):])
    except ValueError:
        return None


def node_ids(cfg: dict) -> list[str]:
    return [f"node-{i:02d}" for i in range(int(cfg["topology"]["node_count"]))]
