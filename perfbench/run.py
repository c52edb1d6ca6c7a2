#!/usr/bin/env python3
"""ckoord benchmark: times the control loop, GBDT, simulator and trace layers.

Usage (from the repository root):

    python3 perfbench/run.py --workload closed_loop --seed 1 --seconds 20 --trace 0

One process, one thread, closed loop: each operation starts when the previous
one ends.  Operations go through the program's public entry points,
``ckoord.cli.main`` and ``Simulator(...).run()``; the only hook in an untraced
run is a ``perf_counter`` pair around ``ControlLoop.observe``.  With
``--trace 1`` the run instead executes each op of the workload's fixed prefix
twice in a row, untraced and then under the span tracer in ``tracer.py``,
checks that both wrote the same bytes, and reports per-layer figures.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The lines before it give
the environment, every operation with the sha256 of each artifact it wrote,
and the workload figures that are not common to all workloads.  A full
record goes to ``.perfbench/result-<workload>-s<seed>-t<trace>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from tracer import Patches, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SETUP_REPEATS = 15
CKOORD_MODULES = ("cli", "cluster", "gbdt", "scenario", "simulator", "trace")

# The criterion-7 shape of tests/test_acceptance.py (8 nodes, 24 pods, window 20).
DETECTION_OVERRIDES = (
    "topology.node_count=8",
    "apps.0.replicas=8",
    "apps.1.replicas=8",
    "apps.2.replicas=8",
    "apps.0.demand_noise_std=0.02",
    "apps.1.demand_noise_std=0.02",
    "apps.2.demand_noise_std=0.02",
    "detector.k=2.5",
    "predictor.window=20",
    "workload.batches_per_interval=2",
    "workload.period_intervals=120",
)
CLEAN = ("horizon=60", "interference=[]")
CONTROLLERS_OFF = "controllers.enabled=false"
# A controllers-off run long enough for a >=10k-row trace with 30 pods.
BULK_OVERRIDES = (CONTROLLERS_OFF, "horizon=334", "interference=[]")


def sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def op_rng(workload: str, seed: int, cycle: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{cycle}")


def call_cli(ck, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = ck.cli.main(argv)
    return code, out.getvalue()


def lag_hit(report: dict) -> bool:
    """Any detection 0 to 2 intervals after the latest injection onset."""
    return any(
        d.get("lag_intervals") is not None and 0 <= d["lag_intervals"] <= 2
        for d in report["detections"]
    )


# -- workloads --------------------------------------------------------------
#
# A workload is a repeating cycle of operations, fully determined by the seed
# and the operation index.  ``run`` is the timed part; ``check`` verifies the
# outputs, hashes the artifacts and returns the per-op quality figures.


class ClosedLoop:
    """`ckoord simulate` on the packaged scenario, controllers on."""

    cycle = 2           # each derived seed runs twice: the pair must match
    prefix_cycles = 3
    setup_overrides: tuple[str, ...] = ()

    def __init__(self, ck, seed: int, work: Path) -> None:
        self.ck, self.seed, self.work = ck, seed, work
        self.pair_digests: dict[int, dict] = {}

    def _sim_seed(self, index: int) -> int:
        return op_rng("closed_loop", self.seed, index // 2).randrange(1, 2**31)

    def label(self, index: int) -> str:
        return f"simulate seed={self._sim_seed(index)}"

    def run(self, index: int):
        out = self.work / f"sim{index % 2}"
        code, _ = call_cli(
            self.ck, ["simulate", "--seed", str(self._sim_seed(index)), "--out", str(out)]
        )
        return code, out

    def check(self, index: int, payload):
        code, out = payload
        if code != 0:
            return {}, [f"simulate exited {code}"], {}
        digests = {n: sha256_file(out / n) for n in ("report.json", "trace.csv", "actions.log")}
        report = json.loads((out / "report.json").read_text())
        errors = []
        if index % 2 == 0:
            self.pair_digests[index // 2] = digests
        elif self.pair_digests.get(index // 2) != digests:
            errors.append("same-seed artifacts differ")
        if not lag_hit(report):
            errors.append("packaged injection not detected within 2 intervals")
        if report["evictions"] < 1:
            errors.append("no eviction")
        latency = report["latency_ms"]
        p99 = max(latency[app]["interference"]["p99"] for app in ("web", "cache"))
        return digests, errors, {"ls_p99": p99}

    @staticmethod
    def quality(per_op: list[dict]) -> dict[str, float]:
        return {"ls_p99_interference_ms": statistics.fmean(q["ls_p99"] for q in per_op)}


class DetectSweep:
    """Criterion-7 runs: seeded injections alternate with clean runs."""

    cycle = 2
    prefix_cycles = 8
    setup_overrides = DETECTION_OVERRIDES + CLEAN

    def __init__(self, ck, seed: int, work: Path) -> None:
        self.ck, self.seed = ck, seed

    def _params(self, index: int) -> tuple[int, dict | None, tuple[str, ...]]:
        rng = op_rng("detect_sweep", self.seed, index // 2)
        injection = {
            "onset": rng.randint(45, 60),
            "kind": rng.choice(["cpu_hog", "mem_pressure", "cache_thrash"]),
            "node": rng.randrange(8),
            "intensity": round(rng.uniform(0.6, 1.0), 3),
        }
        inject_seed, clean_seed = rng.randrange(1, 2**31), rng.randrange(1, 2**31)
        if index % 2:
            return clean_seed, None, DETECTION_OVERRIDES + CLEAN
        overrides = DETECTION_OVERRIDES + (
            f"horizon={injection['onset'] + 8}",
            'interference=[{"target_node": "node-%02d", "kind": "%s",'
            ' "start_interval": %d, "duration": 30, "intensity": %s}]'
            % (injection["node"], injection["kind"], injection["onset"], injection["intensity"]),
        )
        return inject_seed, injection, overrides

    def label(self, index: int) -> str:
        seed, inj, _ = self._params(index)
        if inj is None:
            return f"clean seed={seed}"
        return (
            f"inject {inj['kind']} node-{inj['node']:02d} onset={inj['onset']}"
            f" intensity={inj['intensity']} seed={seed}"
        )

    def run(self, index: int):
        seed, _, overrides = self._params(index)
        scenario = self.ck.scenario
        cfg = scenario.apply_overrides(scenario.default_config(), list(overrides))
        return self.ck.simulator.Simulator(cfg, seed).run().report

    def check(self, index: int, report: dict):
        _, inj, _ = self._params(index)
        text = self.ck.simulator.report_to_json(report)
        digests = {"report.json": hashlib.sha256(text.encode()).hexdigest()}
        expected = 60 if inj is None else inj["onset"] + 8
        errors = [] if report["horizon"] == expected else [f"horizon {report['horizon']}"]
        if inj is None:
            quality = {"detections": len(report["detections"]),
                       "verdicts": report["verdicts_evaluated"]}
        else:
            quality = {"hit": lag_hit(report)}
        return digests, errors, quality

    @staticmethod
    def quality(per_op: list[dict]) -> dict[str, float]:
        injected = [q["hit"] for q in per_op if "hit" in q]
        verdicts = sum(q["verdicts"] for q in per_op if "verdicts" in q)
        detections = sum(q["detections"] for q in per_op if "verdicts" in q)
        return {
            "detect_within2_rate": sum(injected) / len(injected),
            "false_positive_rate": detections / verdicts if verdicts else 0.0,
        }


class Offline:
    """`ckoord replay` on closed_loop traces and `ckoord train` on a 10k-row trace."""

    cycle = 4           # replay each of the three traces, then train once
    prefix_cycles = 1
    setup_overrides: tuple[str, ...] = ()

    def __init__(self, ck, seed: int, work: Path) -> None:
        self.ck, self.work = ck, work
        rng = op_rng("offline", seed, 0)
        self.live_seeds = [rng.randrange(1, 2**31) for _ in range(3)]
        self.bulk_seed = rng.randrange(1, 2**31)

    def prepare(self) -> None:
        """Generate the input traces; not part of any timed figure."""
        self.live_reports = []
        for i, seed in enumerate(self.live_seeds):
            out = self.work / f"live{i}"
            code, _ = call_cli(self.ck, ["simulate", "--seed", str(seed), "--out", str(out)])
            if code != 0:
                raise RuntimeError(f"trace generation exited {code}")
            self.live_reports.append(json.loads((out / "report.json").read_text()))
        argv = ["simulate", "--seed", str(self.bulk_seed), "--out", str(self.work / "bulk")]
        for item in BULK_OVERRIDES:
            argv += ["--set", item]
        code, _ = call_cli(self.ck, argv)
        if code != 0:
            raise RuntimeError(f"trace generation exited {code}")
        rows = self.ck.trace.read_trace(self.work / "bulk" / "trace.csv")
        self.X, self.y = self.ck.trace.feature_matrix(rows)

    def label(self, index: int) -> str:
        slot = index % 4
        if slot < 3:
            return f"replay trace of seed={self.live_seeds[slot]}"
        return f"train trace of seed={self.bulk_seed} rows={self.X.shape[0]}"

    def run(self, index: int):
        slot = index % 4
        if slot < 3:
            trace = self.work / f"live{slot}" / "trace.csv"
            argv = ["replay", "--trace", str(trace), "--out", str(self.work / "replay")]
        else:
            trace = self.work / "bulk" / "trace.csv"
            argv = ["train", "--trace", str(trace), "--model-out", str(self.work / "model.json")]
        return call_cli(self.ck, argv)

    def check(self, index: int, payload):
        code, stdout = payload
        if code != 0:
            return {}, [f"exited {code}"], {}
        if index % 4 < 3:
            return self._check_replay(self.live_reports[index % 4])
        return self._check_train(stdout)

    def _check_replay(self, live: dict):
        path = self.work / "replay" / "replay.json"
        replay = json.loads(path.read_text())
        errors = []
        if replay["intervals"] != live["horizon"]:
            errors.append("replayed interval count differs")
        if replay["flag_events"] != live["flag_events"]:
            errors.append("flag_events differ from the live run")
        if replay["actions"] != live["actions"]:
            errors.append("actions differ from the live run")
        deviation = detection_deviation(live["detections"], replay["detections"])
        if deviation is None:
            errors.append("detections differ from the live run")
            return {"replay.json": sha256_file(path)}, errors, {}
        return {"replay.json": sha256_file(path)}, errors, {"replay_dev": deviation}

    def _check_train(self, stdout: str):
        gbdt = self.ck.gbdt
        path = self.work / "model.json"
        text = path.read_text()
        model = gbdt.ensemble_from_json(text)
        again = gbdt.ensemble_from_json(gbdt.ensemble_to_json(model))
        errors = []
        if gbdt.ensemble_to_json(model) + "\n" != text:
            errors.append("model JSON does not round-trip byte for byte")
        if not (model.predict(self.X) == again.predict(self.X)).all():
            errors.append("round-tripped model predicts differently")
        split = int(self.X.shape[0] * 0.8)
        acc = gbdt.regression_metrics(self.y[split:], model.predict(self.X[split:]))["acc"]
        printed = [line for line in stdout.splitlines() if line.startswith("holdout ")]
        if not printed or not printed[0].endswith(f"acc={acc:.6g}"):
            errors.append("saved model does not reproduce the printed holdout ACC")
        return {"model.json": sha256_file(path)}, errors, {"holdout_acc": acc}

    @staticmethod
    def quality(per_op: list[dict]) -> dict[str, float]:
        accs = [q["holdout_acc"] for q in per_op if "holdout_acc" in q]
        devs = [q["replay_dev"] for q in per_op if "replay_dev" in q]
        return {"holdout_acc": statistics.fmean(accs), "replay_detection_max_rel_dev": max(devs)}


def detection_deviation(live: list[dict], replay: list[dict]) -> float | None:
    """Largest relative gap between float fields of matching detections.

    None when the decisions differ: count, interval, app or field set.  The
    float fields can differ in their last digits, because replay reads
    features and CPI rounded to 9 significant digits.
    """
    if len(live) != len(replay):
        return None
    worst = 0.0
    for a, b in zip(live, replay):
        a = {k: v for k, v in a.items() if k != "lag_intervals"}
        if a.keys() != b.keys():
            return None
        for key, value in a.items():
            other = b[key]
            if isinstance(value, float) and isinstance(other, float):
                worst = max(worst, abs(value - other) / max(abs(value), abs(other), 1e-300))
            elif value != other:
                return None
    return worst


class SimBaseline:
    """`ckoord simulate` with controllers off: the bypass arm."""

    cycle = 1
    prefix_cycles = 8
    setup_overrides = (CONTROLLERS_OFF,)

    def __init__(self, ck, seed: int, work: Path) -> None:
        self.ck, self.seed, self.work = ck, seed, work
        self.simulators: list = []   # filled by the capture installed in measure()

    def _sim_seed(self, index: int) -> int:
        return op_rng("sim_baseline", self.seed, index).randrange(1, 2**31)

    def label(self, index: int) -> str:
        return f"simulate controllers=off seed={self._sim_seed(index)}"

    def run(self, index: int):
        out = self.work / "sim"
        argv = ["simulate", "--seed", str(self._sim_seed(index)), "--out", str(out),
                "--set", CONTROLLERS_OFF]
        code, _ = call_cli(self.ck, argv)
        return code, out

    def check(self, index: int, payload):
        code, out = payload
        if code != 0:
            return {}, [f"simulate exited {code}"], {}
        digests = {n: sha256_file(out / n) for n in ("report.json", "trace.csv", "actions.log")}
        sim = self.simulators.pop()
        errors = [f"invariant: {v}" for v in self.ck.cluster.validate(sim.state)]
        if json.loads((out / "report.json").read_text())["actions"]:
            errors.append("actions planned with controllers off")
        return digests, errors, {}

    @staticmethod
    def quality(per_op: list[dict]) -> dict[str, float]:
        return {}


WORKLOADS = {
    "closed_loop": ClosedLoop,
    "detect_sweep": DetectSweep,
    "offline": Offline,
    "sim_baseline": SimBaseline,
}
QUALITY_NAMES = {
    "detect_within2_rate": "ratio",
    "false_positive_rate": "ratio",
    "ls_p99_interference_ms": "ms",
    "holdout_acc": "ratio",
    "replay_detection_max_rel_dev": "ratio",
}


# -- measurement ------------------------------------------------------------


class DecideTimer:
    """The untraced hook: a perf_counter pair around ControlLoop.observe.

    Intervals that trained a model (seen as growth of ``models_trained``)
    go to ``stalls``; all others to ``decide``.  Training intervals are
    about 1% of a detect_sweep run, so mixing them in would put the p99
    on the edge between two modes.
    """

    def __init__(self) -> None:
        self.decide: list[float] = []
        self.stalls: list[float] = []

    def intervals(self) -> int:
        return len(self.decide) + len(self.stalls)

    def clear(self) -> None:
        self.decide.clear()
        self.stalls.clear()

    def wrap(self, observe):
        decide, stalls, clock = self.decide, self.stalls, time.perf_counter

        def timed_observe(loop, *args, **kwargs):
            trained = sum(map(len, loop.models_trained.values()))
            start = clock()
            outcome = observe(loop, *args, **kwargs)
            elapsed = clock() - start
            if sum(map(len, loop.models_trained.values())) > trained:
                stalls.append(elapsed)
            else:
                decide.append(elapsed)
            return outcome

        return timed_observe


@dataclass
class OpResult:
    index: int
    label: str
    seconds: float
    intervals: int
    digests: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    quality: dict = field(default_factory=dict)


def run_op(wl, index: int, timer: DecideTimer, tracer=None) -> OpResult:
    """Time one op (under the tracer, if given), then check its outputs untraced."""
    gc.collect()  # so the previous op's garbage is not collected on this op's clock
    before = timer.intervals()
    payload, errors = None, []
    if tracer is not None:
        tracer.op = index
        patches = tracer.install()
    start = time.perf_counter()
    try:
        payload = wl.run(index)
    except Exception as exc:  # an op that raises counts as failed; the run goes on
        errors.append(f"{type(exc).__name__}: {exc}")
    seconds = time.perf_counter() - start
    if tracer is not None:
        errors += [f"not restored: {name}" for name in patches.restore()]
    result = OpResult(index, wl.label(index), seconds, timer.intervals() - before)
    if payload is not None:
        try:
            result.digests, checked, result.quality = wl.check(index, payload)
            errors += checked
        except Exception as exc:
            errors.append(f"check {type(exc).__name__}: {exc}")
    result.errors = errors
    return result


def nearest_rank(sorted_values: list[float], pct: float) -> float:
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def intervals_per_s(results: list[OpResult]) -> float:
    timed = [r for r in results if r.intervals]
    return sum(r.intervals for r in timed) / sum(r.seconds for r in timed)


def import_ckoord() -> SimpleNamespace:
    """Fresh import of the program's modules from ./src."""
    for name in [n for n in sys.modules if n == "ckoord" or n.startswith("ckoord.")]:
        del sys.modules[name]
    modules = {n: importlib.import_module(f"ckoord.{n}") for n in CKOORD_MODULES}
    return SimpleNamespace(**modules)


def measure_setup(overrides: tuple[str, ...]) -> tuple[SimpleNamespace, list[float]]:
    """Import, scenario load and validation, first Simulator construction."""
    times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        ck = import_ckoord()
        cfg = ck.scenario.default_config()
        if overrides:
            cfg = ck.scenario.apply_overrides(cfg, list(overrides))
        ck.simulator.Simulator(cfg, 0)
        times.append(time.perf_counter() - start)
    return ck, times


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        ref_path = ROOT / ".git" / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(numpy_version: str) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }


def e2e_metrics(results: list[OpResult], timer: DecideTimer, setup: list[float]) -> dict:
    decide = sorted(s * 1e3 for s in timer.decide)
    return {
        "setup_s": (statistics.median(setup), "s"),
        "intervals_per_s": (intervals_per_s(results), "1/s"),
        "decide_ms_p50": (nearest_rank(decide, 50), "ms"),
        "decide_ms_p99": (nearest_rank(decide, 99), "ms"),
        "op_s_mean": (statistics.fmean(r.seconds for r in results), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def detail_metrics(results: list[OpResult], timer: DecideTimer) -> dict:
    """Figures only some workloads produce; printed, not in the result line."""
    decide = sorted(s * 1e3 for s in timer.decide)
    detail = {
        "decide_samples": (len(decide), "count"),
        "decide_ms_p90": (nearest_rank(decide, 90), "ms"),
    }
    if timer.stalls:
        detail["train_stall_ms_p50"] = (statistics.median(timer.stalls) * 1e3, "ms")
        detail["train_stall_samples"] = (len(timer.stalls), "count")
    trains = [r.seconds for r in results if not r.intervals]  # `ckoord train` ops
    if trains:
        detail["train_s"] = (statistics.median(trains), "s")
        detail["train_ops"] = (len(trains), "count")
    return detail


def print_op(tag: str, r: OpResult) -> None:
    line = f"op {tag} {r.index} {r.label} {r.seconds:.4f}s intervals={r.intervals}"
    line += "".join(f" {name}={digest}" for name, digest in sorted(r.digests.items()))
    if r.errors:
        line += " FAILED: " + "; ".join(r.errors)
    print(line)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--min-cycles", type=int, default=None,
        help="override the workload's fixed prefix of cycles (smoke runs use 1)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ckoord" / "__init__.py").is_file():
        print(f"error: no ckoord sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy

    env = environment(numpy.__version__)
    wl_class = WORKLOADS[args.workload]
    ck, setup_times = measure_setup(wl_class.setup_overrides)
    if not Path(ck.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: ckoord imported from {ck.cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    tag = f"{args.workload}-s{args.seed}-t{args.trace}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return measure(args, ck, wl_class, env, setup_times, work, tag)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def measure(args, ck, wl_class, env, setup_times, work: Path, tag: str) -> int:
    wl = wl_class(ck, args.seed, work)
    if hasattr(wl, "prepare"):
        wl.prepare()
    prefix_ops = wl.cycle * (args.min_cycles or wl.prefix_cycles)
    timer = DecideTimer()
    hooks = Patches()
    hooks.replace("ckoord.loop:ControlLoop", "observe", timer.wrap)
    if isinstance(wl, SimBaseline):
        def capture(simulator_class):
            def build(cfg, seed):
                sim = simulator_class(cfg, seed)
                wl.simulators.append(sim)
                return sim
            return build
        hooks.replace("ckoord.cli", "Simulator", capture)

    problems: list[str] = []
    traced: list[OpResult] = []
    print("env " + json.dumps(env, sort_keys=True))
    try:
        # first run of each code path pays one-off costs: run op 0 once untimed
        warmup = [run_op(wl, 0, timer)]
        timer.clear()
        if args.trace:
            # untraced and traced runs of an op back to back, so that host
            # speed drift cancels out of the tracing overhead
            tracer, results = Tracer(), []
            for i in range(prefix_ops):
                results.append(run_op(wl, i, timer))
                traced.append(run_op(wl, i, timer, tracer))
                if traced[-1].digests != results[-1].digests:
                    traced[-1].errors.append("traced artifacts differ from untraced")
            problems += [f"not traced: {name}" for name in tracer.absent]
        else:
            results, start, index = [], time.perf_counter(), 0
            while (
                index < prefix_ops
                or index % wl.cycle
                or time.perf_counter() - start < args.seconds
            ):
                results.append(run_op(wl, index, timer))
                index += 1
    finally:
        problems += [f"not restored: {n}" for n in hooks.restore()]
    env["loadavg_end"] = list(os.getloadavg())
    print(f"env loadavg_end={env['loadavg_end']}")

    executed = warmup + results + traced
    print_op("warmup", warmup[0])
    for r in results:
        print_op("untraced", r)
    for r in traced:
        print_op("traced", r)
    failed = sum(1 for r in executed if r.errors)
    quality_ops = [r.quality for r in results[:prefix_ops] if not r.errors]
    quality = wl.quality(quality_ops) if len(quality_ops) == prefix_ops else {}

    if args.trace:
        metrics = tracer.layer_metrics()
        for name, unit in QUALITY_NAMES.items():
            metrics["quality." + name] = (quality.get(name, 0.0), unit)
        plain_s = sum(r.seconds for r in results)
        metrics["tracing.intervals_per_s_untraced"] = (intervals_per_s(results), "1/s")
        metrics["tracing.intervals_per_s_traced"] = (intervals_per_s(traced), "1/s")
        metrics["tracing.overhead"] = (sum(r.seconds for r in traced) / plain_s, "ratio")
        tracer.write(str(OUT / f"spans-{tag}.csv"))
        detail = {}
    else:
        metrics = e2e_metrics(results, timer, setup_times)
        detail = detail_metrics(results, timer)
        detail.update({name: (value, QUALITY_NAMES[name]) for name, value in quality.items()})
        detail["setup_s_repeats"] = (setup_times, "s")
    for name, (value, unit) in sorted(detail.items()):
        print(f"detail {name} {value} {unit}")
    for problem in problems:
        print(f"problem {problem}")
    line = {
        "correct": failed == 0 and not problems and len(quality_ops) == prefix_ops,
        "attempted": len(executed),
        "failed": failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    record = dict(
        line,
        env=env,
        detail={k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        problems=problems,
        ops=[vars(r) for r in executed],
    )
    (OUT / f"result-{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(json.dumps(line, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
