"""Per-pod CPI deviation detection for flagged applications.

For each pod of a flagged application, a boosted-tree model predicts the CPI
the pod should exhibit under current co-location conditions.  The deviation
between recent predictions and the rolling mean of the measured CPI is
compared against an adaptive threshold built from the CPI's rolling spread
plus a load-dependent floor; the ratio of the two is the contention severity
index (CSI) that drives mitigation, and an application's verdict is the worst
(max-CSI) verdict among its pods.

Models are trained lazily, once per flagging episode, from the application's
own metric history; with less than min_history rows the decision is deferred
rather than guessed.
"""

from __future__ import annotations

import math
from collections.abc import Collection, Sequence
from dataclasses import dataclass, field

import numpy as np

from .gbdt import FEATURE_COUNT, Ensemble, TrainConfig, train_ensemble
from .telemetry import rolling_std


@dataclass(frozen=True)
class LoadFactorWeights:
    cpu: float = 0.5
    mem: float = 0.3
    miss: float = 0.2


@dataclass(frozen=True)
class ThresholdParams:
    k1: float = 3.0  # scales the rolling std of measured CPI
    k2: float = 0.1  # scales the load factor floor


@dataclass(frozen=True)
class PredictorConfig:
    window: int = 60
    params: ThresholdParams = field(default_factory=ThresholdParams)
    load_weights: LoadFactorWeights = field(default_factory=LoadFactorWeights)
    delta_mode: str = "signed"       # "signed": |mean of differences|; "absolute": mean of |differences|
    min_history_windows: int = 2     # training deferred below min_history_windows * window rows
    train: TrainConfig = field(default_factory=TrainConfig)

    @property
    def min_history_rows(self) -> int:
        return self.min_history_windows * self.window


@dataclass(frozen=True)
class DetectionVerdict:
    app_id: str
    delta_cpi: float
    threshold: float
    detected: bool
    csi: float | None  # None unless detected; math.inf when threshold is 0 and delta > 0


def load_factor(features: Sequence[float], n_max: float, weights: LoadFactorWeights) -> float:
    """Weighted saturation of a pod from its model input; always in [0, 1].

    The request ratios (slots 0 and 1) count up to 1.  The miss term is the
    pod's L3 miss rate (slot 6) over n_max, the largest rate seen so far, and
    is 0 until a miss has been seen (n_max == 0).
    """
    cpu_ratio = min(1.0, float(features[0]))
    mem_ratio = min(1.0, float(features[1]))
    miss_ratio = min(1.0, float(features[6]) / n_max) if n_max > 0 else 0.0
    return weights.cpu * cpu_ratio + weights.mem * mem_ratio + weights.miss * miss_ratio


def cpi_threshold(
    actual: Collection[float],
    params: ThresholdParams,
    load: float,
    mean: float | None = None,
) -> float:
    """Adaptive detection threshold: k1 * rolling std of the CPI window
    ``actual`` + k2 * load factor.

    The load factor is already normalized to [0, 1] (its maximum is 1 by
    construction), so k2 scales it directly.  ``mean`` is the window's
    rolling mean when the caller already has it.
    """
    if not 0.0 <= load <= 1.0 + 1e-9:
        raise ValueError(f"load factor {load} outside [0, 1]")
    return params.k1 * rolling_std(actual, mean) + params.k2 * load


def delta_cpi(pairs: Sequence[tuple[float, float]], mode: str) -> float:
    """Deviation between recent predictions and the smoothed measured CPI.

    Each pair is a prediction and the rolling mean of the measured CPI at the
    interval the prediction was made.  'signed' averages the differences
    first and takes the absolute value, so alternating over/under-shoot
    cancels; 'absolute' averages magnitudes.
    """
    if not pairs:
        raise ValueError("no predictions")
    diffs = [pred - mean for pred, mean in pairs]
    if mode == "signed":
        return abs(sum(diffs) / len(diffs))
    if mode == "absolute":
        return sum(abs(d) for d in diffs) / len(diffs)
    raise ValueError(f"mode must be 'signed' or 'absolute', got {mode!r}")


def classify(delta: float, threshold: float, app_id: str = "") -> DetectionVerdict:
    """Strict comparison: detected iff delta > threshold; CSI = delta/threshold."""
    if delta < 0 or threshold < 0:
        raise ValueError("delta and threshold must be non-negative")
    detected = delta > threshold
    if not detected:
        return DetectionVerdict(app_id, delta, threshold, False, None)
    csi = delta / threshold if threshold > 0 else math.inf
    return DetectionVerdict(app_id, delta, threshold, True, csi)


def verdict_rank(v: DetectionVerdict) -> float:
    """Severity ordering key: CSI when detected, sub-1 ratio otherwise."""
    if v.detected:
        return v.csi if v.csi is not None else math.inf
    if v.threshold > 0:
        return v.delta_cpi / v.threshold
    return 0.0


def worst_verdict(verdicts: list[DetectionVerdict]) -> DetectionVerdict:
    """Application verdict: the pod verdict with the highest severity rank."""
    if not verdicts:
        raise ValueError("no verdicts to aggregate")
    return max(verdicts, key=verdict_rank)


@dataclass
class ModelCache:
    """One model per application per flagging episode.

    get_or_train returns None (deferral) while the application's history is
    shorter than the configured minimum; invalidate() ends an episode so the
    next flag retrains from fresh history.
    """

    cfg: PredictorConfig
    models: dict[str, Ensemble] = field(default_factory=dict)

    def get_or_train(
        self, app_id: str, features: np.ndarray, targets: np.ndarray
    ) -> Ensemble | None:
        model = self.models.get(app_id)
        if model is not None:
            return model
        if features.shape[0] < self.cfg.min_history_rows:
            return None
        if features.shape[1] != FEATURE_COUNT:
            raise ValueError(f"expected {FEATURE_COUNT} features, got {features.shape[1]}")
        model = train_ensemble(features, targets, self.cfg.train)
        self.models[app_id] = model
        return model

    def invalidate(self, app_id: str) -> None:
        self.models.pop(app_id, None)
