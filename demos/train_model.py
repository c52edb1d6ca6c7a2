#!/usr/bin/env python3
"""Offline CPI model training on a synthetic trace.

Runs the packaged scenario with controllers disabled to collect an
uncontaminated trace, trains the boosted-tree CPI regressor on a
chronological 80/20 split, and round-trips the model through its JSON
form to show the serialization is lossless.
"""

from time import perf_counter

from ckoord.gbdt import (
    TrainConfig,
    ensemble_from_json,
    ensemble_to_json,
    regression_metrics,
    train_ensemble,
)
from ckoord.scenario import apply_overrides, default_config
from ckoord.simulator import run_scenario
from ckoord.trace import feature_matrix

SEED = 11


def main() -> None:
    cfg = apply_overrides(default_config(), ["controllers.enabled=false"])
    print(f"simulating {cfg['horizon']} intervals (controllers off, seed {SEED})...")
    result = run_scenario(cfg, seed=SEED)
    print(f"collected {len(result.trace_rows)} trace rows")

    for app in ("web", "cache", "batch"):
        rows = [r for r in result.trace_rows if r.app_id == app]
        X, y = feature_matrix(rows)
        split = int(len(rows) * 0.8)
        started = perf_counter()
        model = train_ensemble(X[:split], y[:split], TrainConfig())
        took = perf_counter() - started
        m = regression_metrics(y[split:], model.predict(X[split:]))
        print(
            f"  {app:<6} train={split:5d} holdout={len(rows) - split:4d}"
            f"  mse={m['mse']:.5f}  r2={m['r2']:.3f}  acc={m['acc']:.3f}"
            f"  ({took:.1f}s, {model.roots.size} trees)"
        )
        if app == "web":
            doc = ensemble_to_json(model)
            clone = ensemble_from_json(doc)
            drift = float(max(abs(clone.predict(X) - model.predict(X))))
            print(f"         JSON round-trip: {len(doc)} bytes, max prediction drift {drift:.1e}")

    print("ACC is 1 - mean absolute percentage error; the acceptance floor is 0.90.")


if __name__ == "__main__":
    main()
