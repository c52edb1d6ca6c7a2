"""The benchmark's layer tracer must find every function it patches.

perfbench/tracer.py wraps layer functions by name from outside the program;
a name it cannot find is reported as ``not traced: ...`` and that layer's
figures read zero.  This test resolves every ``LAYER_PATCHES`` entry the way
``Patches.replace`` does, so a rename in ``src/`` fails here instead.
"""

import importlib
import importlib.util
from collections import Counter
from pathlib import Path

import numpy as np

from ckoord import gbdt
from ckoord.simulator import Simulator
from helpers import cfg_with

ROOT = Path(__file__).resolve().parent.parent


def load_tracer():
    path = ROOT / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_layer_patch_resolves_under_src():
    tracer = load_tracer()
    missing, outside = [], []
    for owner_path, name, *_ in tracer.LAYER_PATCHES:
        if vars(tracer._owner(owner_path)).get(name) is None:
            missing.append(f"{owner_path}.{name}")
        module = importlib.import_module(owner_path.partition(":")[0])
        if not Path(module.__file__).resolve().is_relative_to(ROOT / "src"):
            outside.append(module.__file__)
    assert tracer.LAYER_PATCHES
    assert missing == []
    assert outside == []


def test_train_ensemble_calls_fit_tree_through_the_patched_name():
    """The gbdt.fit_tree figures need one patched call per round, X first."""
    tracer = load_tracer()
    calls = []

    def counting(fn):
        def wrapper(*args, **kwargs):
            calls.append(args[0].shape)
            return fn(*args, **kwargs)

        return wrapper

    rng = np.random.default_rng(3)
    X = rng.normal(size=(40, gbdt.FEATURE_COUNT))
    y = 1.0 + X[:, 0] + 0.1 * rng.normal(size=40)
    patches = tracer.Patches()
    patches.replace("ckoord.gbdt", "fit_tree", counting)
    try:
        gbdt.train_ensemble(X, y, gbdt.TrainConfig(num_rounds=3))
    finally:
        assert patches.restore() == []
    assert patches.absent == []
    assert calls == [(40, gbdt.FEATURE_COUNT)] * 3


# 80 intervals with a window of 20 and a cpu_hog long enough to be acted on
SHORT_RUN = (
    "horizon=80",
    "predictor.window=20",
    'interference=[{"target_node": "node-02", "kind": "cpu_hog",'
    ' "start_interval": 50, "duration": 30, "intensity": 1.0}]',
)


def test_loop_calls_every_traced_decision_step_through_its_patched_name():
    """Each per-layer figure of the decision path counts real calls: scan
    once per interval, and the delta, the threshold and its rolling std once
    per scored pod.  An inlined call would read zero here, not just there."""
    tracer = load_tracer()
    calls = Counter()
    scored = Counter()

    def counting(name):
        def make(fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        return make

    def scoring(observe):
        def wrapper(loop, interval, pod_rows, node_rows, *args, **kwargs):
            outcome = observe(loop, interval, pod_rows, node_rows, *args, **kwargs)
            apps = Counter(row.app_id for row in pod_rows)
            scored["pods"] += sum(apps[verdict.app_id] for verdict in outcome.verdicts)
            scored["detected"] += sum(verdict.detected for verdict in outcome.verdicts)
            return outcome

        return wrapper

    patches = tracer.Patches()
    for name in ("scan", "delta_cpi", "cpi_threshold", "route", "plan"):
        patches.replace("ckoord.loop", name, counting(name))
    patches.replace("ckoord.predictor", "rolling_std", counting("rolling_std"))
    patches.replace("ckoord.loop:ControlLoop", "observe", scoring)
    try:
        Simulator(cfg_with(*SHORT_RUN), 3).run()
    finally:
        assert patches.restore() == []
    assert patches.absent == []
    assert calls["scan"] == 80
    assert scored["pods"] > 0
    for name in ("delta_cpi", "cpi_threshold", "rolling_std"):
        assert calls[name] == scored["pods"], name
    assert calls["route"] == scored["detected"]
    assert calls["plan"] >= 1
