"""Deterministic cluster-interference control plane and simulator.

Building blocks: rolling telemetry windows, comprehensive-utilization
detection with hysteresis, gradient-boosted CPI prediction with adaptive
thresholds, severity-tiered mitigation, and a synthetic co-located cluster
to exercise the whole loop end to end.
"""

from .cluster import (
    ClusterState,
    NodeState,
    QosClass,
)
from .detector import (
    DetectorConfig,
    FlaggedApps,
    UtilizationWeights,
    comprehensive_utilization,
    scan,
    selection_threshold,
)
from .gbdt import (
    FEATURE_NAMES,
    Ensemble,
    TrainConfig,
    ensemble_from_json,
    ensemble_to_json,
    fit_tree,
    regression_metrics,
    train_ensemble,
)
from .loop import ControlLoop, IntervalOutcome
from .mitigator import (
    Evict,
    MitigationConfig,
    NoOp,
    Severity,
    Suppress,
    cpu_suppress,
    evict_candidates,
    plan,
    route,
)
from .predictor import (
    DetectionVerdict,
    LoadFactorWeights,
    ModelCache,
    PredictorConfig,
    ThresholdParams,
    classify,
    cpi_threshold,
    delta_cpi,
    load_factor,
    worst_verdict,
)
from .simulator import RunResult, Simulator, run_scenario
from .telemetry import rolling_mean, rolling_std

__version__ = "0.1.0"

__all__ = [
    "ClusterState",
    "ControlLoop",
    "DetectionVerdict",
    "DetectorConfig",
    "Ensemble",
    "Evict",
    "FEATURE_NAMES",
    "FlaggedApps",
    "IntervalOutcome",
    "LoadFactorWeights",
    "MitigationConfig",
    "ModelCache",
    "NodeState",
    "NoOp",
    "PredictorConfig",
    "QosClass",
    "RunResult",
    "Severity",
    "Simulator",
    "Suppress",
    "ThresholdParams",
    "TrainConfig",
    "UtilizationWeights",
    "classify",
    "comprehensive_utilization",
    "cpi_threshold",
    "cpu_suppress",
    "delta_cpi",
    "ensemble_from_json",
    "ensemble_to_json",
    "evict_candidates",
    "fit_tree",
    "load_factor",
    "plan",
    "regression_metrics",
    "rolling_mean",
    "rolling_std",
    "route",
    "run_scenario",
    "scan",
    "selection_threshold",
    "train_ensemble",
    "worst_verdict",
]
