"""Scenario configuration: load, validate, override.

A scenario is a JSON document; every calibration constant of the synthetic
cluster (gains, boosts, noise levels) lives here rather than in code, so
recalibration never needs a code change.  ``--set a.b.c=value`` overrides
descend the same key paths and are echoed into run reports.
``validate_config`` is the one reading of the document: it checks every key,
rejects any other, and returns the typed ``Scenario`` simulate and replay run on.
It and ``train_config`` hold the only copy of the rules: the config records
they build check nothing of their own.
"""

from __future__ import annotations

import copy
import importlib.resources
import json
import math
import re
from dataclasses import dataclass
from json.decoder import WHITESPACE, scanstring
from typing import Any, NoReturn

from .cluster import QosClass
from .detector import DetectorConfig, UtilizationWeights
from .gbdt import TrainConfig
from .mitigator import MitigationConfig
from .predictor import LoadFactorWeights, PredictorConfig, ThresholdParams
from .trace import id_fault

VALID_QOS = tuple(q.value for q in QosClass)
VALID_KINDS = ("cpu_hog", "mem_pressure", "cache_thrash")
WEIGHT_SLACK = 1e-9  # how far a weight triple's sum may stray from 1
_SECTIONS = ("topology", "workload", "ground_truth", "controllers", "detector", "predictor",
             "mitigator", "qos_weights")  # the objects of the top level


@dataclass(frozen=True)
class AppProfile:
    app_id: str
    qos: QosClass
    replicas: int
    cpu_request: float
    mem_request: float
    base_rps: float
    diurnal_amplitude: float
    demand_noise_std: float
    cpu_per_request: float
    mem_footprint: float
    latency_base_ms: float
    cpi_base: float
    base_miss_rate: float
    phase_offset: float


@dataclass(frozen=True)
class WorkloadParams:
    period_intervals: int
    batches_per_interval: int
    latency_jitter_sigma: float
    rho_max: float
    latency_cpi_exponent: float
    mem_demand_coupling: float


@dataclass(frozen=True)
class KindParams:
    cpi_boost: float
    cpu_fraction: float
    miss_gain: float
    mem_fraction: float


@dataclass(frozen=True)
class TruthParams:
    contention_gain: float
    cache_gain: float
    cpi_noise_std: float
    cpi_floor_fraction: float
    miss_load_gain: float
    miss_noise_std: float
    miss_scale: float
    kinds: dict[str, KindParams]


@dataclass(frozen=True)
class InjectionSpec:
    target_node: str
    kind: str
    start_interval: int
    duration: int
    intensity: float

    def active(self, interval: int) -> bool:
        return self.start_interval <= interval < self.start_interval + self.duration


@dataclass(frozen=True)
class Scenario:
    """The typed view of a validated config; simulate and replay run on it."""

    horizon: int
    sampling_period_s: int
    node_count: int
    cpu_capacity: float
    mem_capacity: float
    apps: dict[str, AppProfile]  # config order
    workload: WorkloadParams
    truth: TruthParams
    injections: tuple[InjectionSpec, ...]
    controllers_enabled: bool
    reschedule_delay: int
    qos_weights: dict[str, float]
    detector: DetectorConfig
    predictor: PredictorConfig
    mitigator: MitigationConfig

    @property
    def node_ids(self) -> list[str]:
        return [_node_name(i) for i in range(self.node_count)]


class ConfigError(ValueError):
    """Scenario config rejected; message carries a line number when known."""


_DECODER = json.JSONDecoder()
_PATH_PARTS = re.compile(r"\[(\d+)\]|([^.\[]+)")


def _member(raw: str, pos: int, want: int | str) -> int | None:
    """Where the value of key or list index ``want`` of the container at ``pos`` starts."""
    opener = "[" if isinstance(want, int) else "{"
    if raw[pos] != opener:
        return None
    found, index = None, 0
    pos = WHITESPACE.match(raw, pos + 1).end()
    while raw[pos] not in "]}":
        if opener == "{":
            key, pos = scanstring(raw, pos + 1)
            pos = WHITESPACE.match(raw, WHITESPACE.match(raw, pos).end() + 1).end()
        else:
            key, index = index, index + 1
        if key == want:
            found = pos  # json.loads keeps the last of repeated keys, so this does too
        pos = WHITESPACE.match(raw, _DECODER.raw_decode(raw, pos)[1]).end()
        pos = WHITESPACE.match(raw, pos + (raw[pos] == ",")).end()
    return found


def _find_line(raw: str | None, path: str) -> str:
    """' (line N)' of the deepest part of ``path`` in the JSON text ``raw``.

    Walks down the document one key or list index at a time, so a list
    element, or a name that repeats elsewhere, is found where it is.
    """
    if raw is None:
        return ""
    pos = WHITESPACE.match(raw, 0).end()
    for index, key in _PATH_PARTS.findall(path):
        found = _member(raw, pos, int(index) if index else key)
        if found is None:
            break
        pos = found
    return f" (line {raw.count(chr(10), 0, pos) + 1})"


def _fail(raw: str | None, path: str, message: str) -> NoReturn:
    raise ConfigError(f"{path}{_find_line(raw, path)}: {message}")


def _typed(value: Any, raw: str | None, path: str, types: tuple) -> Any:
    if not isinstance(value, types) or isinstance(value, bool) and bool not in types:
        expected = "/".join(t.__name__ for t in types)
        _fail(raw, path, f"expected {expected}, got {type(value).__name__}")
    return value


def _number(value: Any, raw: str | None, path: str, minimum=None, maximum=None) -> float:
    try:
        number = float(_typed(value, raw, path, (int, float)))
    except OverflowError:
        _fail(raw, path, "must be finite, got an integer past the float range")
    if not math.isfinite(number):
        _fail(raw, path, f"must be finite, got {value}")
    if minimum is not None and number < minimum:
        _fail(raw, path, f"must be >= {minimum}, got {value}")
    if maximum is not None and number > maximum:
        _fail(raw, path, f"must be <= {maximum}, got {value}")
    return number


class _Object:
    """One JSON object of the config: typed reads by key, then ``close``
    rejects every key that it, or an object read from it, did not read."""

    def __init__(self, value: Any, raw: str | None, path: str) -> None:
        self.value = _typed(value, raw, path, (dict,))
        self.raw, self.path = raw, path
        self.read: set[str] = set()
        self.children: list[_Object] = []

    def where(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def fail(self, key: str, message: str) -> NoReturn:
        _fail(self.raw, self.where(key), message)

    def get(self, key: str, types: tuple) -> Any:
        self.read.add(key)
        if key not in self.value:
            self.fail(key, "missing required key")
        return _typed(self.value[key], self.raw, self.where(key), types)

    def number(self, key: str, minimum=None, maximum=None) -> float:
        return _number(self.get(key, (int, float)), self.raw, self.where(key), minimum, maximum)

    def count(self, key: str, minimum: int) -> int:
        """An integer; an integral float such as 60.0 counts as one."""
        number = self.number(key, minimum)
        if not number.is_integer():
            self.fail(key, f"must be an integer, got {self.value[key]}")
        return int(number)

    def choice(self, key: str, options: tuple[str, ...]) -> str:
        value = self.get(key, (str,))
        if value not in options:
            self.fail(key, f"must be one of {options}, got {value!r}")
        return value

    def triple(self, key: str) -> tuple[float, float, float]:
        """Three non-negative weights that sum to 1."""
        value = self.get(key, (list,))
        if len(value) != 3:
            self.fail(key, f"expected three numbers, got {len(value)}")
        at = self.where(key)
        weights = tuple(_number(w, self.raw, f"{at}[{i}]", 0) for i, w in enumerate(value))
        if abs(sum(weights) - 1.0) > WEIGHT_SLACK:
            self.fail(key, f"must sum to 1, got {sum(weights)}")
        return weights

    def object(self, key: str) -> _Object:
        self.children.append(_Object(self.get(key, (dict,)), self.raw, self.where(key)))
        return self.children[-1]

    def objects(self, key: str) -> list[_Object]:
        items = enumerate(self.get(key, (list,)))
        objects = [_Object(item, self.raw, f"{self.where(key)}[{i}]") for i, item in items]
        self.children.extend(objects)
        return objects

    def close(self) -> None:
        for key in self.value:
            if key not in self.read:
                self.fail(key, "unknown key")
        for child in self.children:
            child.close()


def default_config() -> dict:
    """The packaged default 10-node scenario as a fresh dict."""
    text = (
        importlib.resources.files("ckoord").joinpath("data/default_scenario.json").read_text()
    )
    return json.loads(text)


def read_object(path: str) -> tuple[dict, str]:
    """The JSON object in the file at ``path``, and the file's text.

    Raises ConfigError with the line of a syntax error, or when the top
    level is not an object.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    try:
        value = json.loads(raw)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path} (line {exc.lineno}): {exc.msg}") from exc
    if not isinstance(value, dict):
        raise ConfigError(f"{path} (line 1): top level must be an object")
    return value, raw


def load_config(path: str) -> dict:
    """The config in the file at ``path``, validated so that a fault names its line."""
    cfg, raw = read_object(path)
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
    """Apply --set overrides to a deep copy; the paths are checked, the values are not."""
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
    return out


class Options(_Object):
    """Command-line values, keyed by config key, read by a config object's
    rules; a fault names the option ``options`` maps the key to."""

    def __init__(self, values: dict[str, Any], options: dict[str, str]) -> None:
        super().__init__(values, None, "")
        self.options = options

    def where(self, key: str) -> str:
        return self.options[key]


def train_config(train: _Object) -> TrainConfig:
    """The boosting hyperparameters of ``predictor.train``, or of the
    ``ckoord train`` options, checked against their bounds."""
    # learning_rate 0 is degenerate but defined: predictions stay at base_score.
    return TrainConfig(
        learning_rate=train.number("learning_rate", 0, 1),
        lam=train.number("lam", 0),
        tau=train.number("tau", 0),
        max_depth=train.count("max_depth", 1),
        num_rounds=train.count("num_rounds", 1),
        min_samples_leaf=train.count("min_samples_leaf", 1),
        base_score=train.number("base_score"),
    )


def validate_config(cfg: dict, raw: str | None = None) -> Scenario:
    """Check every key of ``cfg`` and return the Scenario it describes.

    Raises ConfigError naming the first bad key's path, with its line in
    ``raw`` when the JSON text is given.
    """
    top = _Object(cfg, raw, "")
    topology, workload, truth, controllers, detector, predictor, mitigator, qos_weights = (
        top.object(key) for key in _SECTIONS
    )
    node_count = topology.count("node_count", 1)

    apps: dict[str, AppProfile] = {}
    for app in top.objects("apps"):
        app_id = app.get("app_id", (str,))
        fault = id_fault("app_id", app_id)
        if fault is not None or app_id in apps:
            app.fail("app_id", fault or f"duplicate app_id {app_id!r}")
        apps[app_id] = AppProfile(
            app_id=app_id,
            qos=QosClass(app.choice("qos", VALID_QOS)),
            replicas=app.count("replicas", 1),
            cpu_request=app.number("cpu_request", 1e-9),
            mem_request=app.number("mem_request", 1.0),
            base_rps=app.number("base_rps", 0),
            diurnal_amplitude=app.number("diurnal_amplitude", 0, 1),
            demand_noise_std=app.number("demand_noise_std", 0),
            cpu_per_request=app.number("cpu_per_request", 0),
            mem_footprint=app.number("mem_footprint", 0),
            latency_base_ms=app.number("latency_base_ms", 1e-9),
            cpi_base=app.number("cpi_base", 1e-9),
            base_miss_rate=app.number("base_miss_rate", 0),
            phase_offset=app.number("phase_offset", 0, 1),
        )
    if not apps:
        top.fail("apps", "at least one app is required")

    injections = []
    for inj in top.objects("interference"):
        target = inj.get("target_node", (str,))
        if not _is_node(target, node_count):
            inj.fail("target_node", f"{target!r} is not a node of this topology")
        injections.append(
            InjectionSpec(
                target_node=target,
                kind=inj.choice("kind", VALID_KINDS),
                start_interval=inj.count("start_interval", 0),
                duration=inj.count("duration", 1),
                intensity=inj.number("intensity", 0, 1),
            )
        )

    weights = detector.object("weights")
    weights.triple("default")  # required: node_weights.pop("default") below relies on it
    node_weights = {}
    for name in weights.value:
        if name != "default" and not _is_node(name, node_count):
            weights.fail(name, "key must be 'default' or a known node id")
        node_weights[name] = UtilizationWeights(*weights.triple(name))

    k1, k2 = predictor.number("k1", 0), predictor.number("k2", 0)
    if k1 == 0 and k2 == 0:
        predictor.fail("k2", "k1 and k2 cannot both be 0")
    train, kinds = predictor.object("train"), truth.object("interference")
    scenario = Scenario(
        horizon=top.count("horizon", 1),
        sampling_period_s=top.count("sampling_period_s", 1),
        node_count=node_count,
        cpu_capacity=topology.number("cpu_capacity", 1e-9),
        mem_capacity=topology.number("mem_capacity", 1.0),
        apps=apps,
        workload=WorkloadParams(
            period_intervals=workload.count("period_intervals", 1),
            batches_per_interval=workload.count("batches_per_interval", 1),
            latency_jitter_sigma=workload.number("latency_jitter_sigma", 0),
            rho_max=workload.number("rho_max", 0, 0.99),
            latency_cpi_exponent=workload.number("latency_cpi_exponent", 1),
            mem_demand_coupling=workload.number("mem_demand_coupling", 0),
        ),
        truth=TruthParams(
            contention_gain=truth.number("contention_gain", 0),
            cache_gain=truth.number("cache_gain", 0),
            cpi_noise_std=truth.number("cpi_noise_std", 0),
            cpi_floor_fraction=truth.number("cpi_floor_fraction", 0, 1),
            miss_load_gain=truth.number("miss_load_gain", 0),
            miss_noise_std=truth.number("miss_noise_std", 0),
            miss_scale=truth.number("miss_scale", 1e-9),
            kinds={
                kind: KindParams(
                    cpi_boost=spec.number("cpi_boost", 0),
                    cpu_fraction=spec.number("cpu_fraction", 0, 1),
                    miss_gain=spec.number("miss_gain", 0),
                    mem_fraction=spec.number("mem_fraction", 0, 1),
                )
                for kind, spec in zip(VALID_KINDS, map(kinds.object, VALID_KINDS))
            },
        ),
        injections=tuple(injections),
        controllers_enabled=controllers.get("enabled", (bool,)),
        reschedule_delay=controllers.count("reschedule_delay_intervals", 0),
        qos_weights={qos: qos_weights.number(qos, 1e-9) for qos in VALID_QOS},
        detector=DetectorConfig(
            k=detector.number("k", 0),
            deviation=detector.choice("deviation", ("variance", "std")),
            hysteresis_intervals=detector.count("hysteresis_intervals", 1),
            default_weights=node_weights.pop("default"),
            node_weights=node_weights,
        ),
        predictor=PredictorConfig(
            window=predictor.count("window", 1),
            params=ThresholdParams(k1=k1, k2=k2),
            load_weights=LoadFactorWeights(*predictor.triple("load_weights")),
            delta_mode=predictor.choice("delta_mode", ("signed", "absolute")),
            min_history_windows=predictor.count("min_history_windows", 1),
            train=train_config(train),
        ),
        mitigator=MitigationConfig(
            severity_boundary=mitigator.number("severity_boundary", 1.0 + 1e-9),
            cpu_reserve_fraction=mitigator.number("cpu_reserve_fraction", 0, 0.999),
            eviction_ratio=mitigator.number("mu", 1e-9, 1),
            cooldown_intervals=mitigator.count("cooldown_intervals", 0),
        ),
    )
    top.close()
    return scenario


def _is_node(node_id: str, node_count: int) -> bool:
    """Whether ``node_id`` is one of ``node_count`` nodes, spelled as node_ids spells it."""
    digits = node_id[len("node-"):]
    short = digits.isdecimal() and len(digits) <= len(str(node_count)) + 1  # int() limits length
    return short and int(digits) < node_count and _node_name(int(digits)) == node_id


_node_name = "node-{:02d}".format
