import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import ckoord
from ckoord.cli import main
from ckoord.scenario import default_config, validate_config
from ckoord.trace import TRACE_COLUMNS
from helpers import OLD_TRACE, cfg_with

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def write_small_cfg(tmp_path, *overrides):
    cfg = cfg_with(
        "horizon=20",
        "topology.node_count=4",
        "apps.0.replicas=4",
        "apps.1.replicas=4",
        "apps.2.replicas=4",
        "interference=[]",
        "controllers.enabled=false",
        *overrides,
    )
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(cfg, indent=2))
    return str(path)


def run_cli(*argv):
    return main(list(argv))


def test_simulate_writes_all_artifacts(tmp_path, capsys):
    cfg = write_small_cfg(tmp_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg, "--seed", "3", "--out", str(out)) == 0
    stdout = capsys.readouterr().out
    assert "simulated 20 intervals seed=3" in stdout
    for name in ("report.json", "trace.csv", "nodes.csv", "actions.log"):
        assert (out / name).is_file(), name
    report = json.loads((out / "report.json").read_text())
    assert report["seed"] == 3
    assert report["horizon"] == 20
    trace_lines = (out / "trace.csv").read_text().splitlines()
    assert len(trace_lines) == 1 + 20 * 12  # header + horizon x pods
    node_lines = (out / "nodes.csv").read_text().splitlines()
    assert len(node_lines) == 1 + 20 * 4  # header + horizon x nodes


def test_simulate_same_seed_is_byte_identical(tmp_path):
    cfg = write_small_cfg(tmp_path)
    for name in ("a", "b"):
        assert run_cli("simulate", "--config", cfg, "--seed", "7", "--out", str(tmp_path / name)) == 0
    assert (tmp_path / "a/report.json").read_bytes() == (tmp_path / "b/report.json").read_bytes()
    assert (tmp_path / "a/trace.csv").read_bytes() == (tmp_path / "b/trace.csv").read_bytes()
    assert (tmp_path / "a/nodes.csv").read_bytes() == (tmp_path / "b/nodes.csv").read_bytes()


def test_simulate_echoes_overrides_into_report(tmp_path):
    out = tmp_path / "run"
    assert (
        run_cli(
            "simulate",
            "--seed", "1",
            "--out", str(out),
            "--set", "horizon=5",
            "--set", "topology.node_count=4",
            "--set", "apps.0.replicas=4",
            "--set", "apps.1.replicas=4",
            "--set", "apps.2.replicas=4",
            "--set", "interference=[]",
        )
        == 0
    )
    report = json.loads((out / "report.json").read_text())
    assert report["overrides"] == sorted(report["overrides"])
    assert "horizon=5" in report["overrides"]
    assert report["horizon"] == 5


# A cpu_hog on node-02 long enough for several evictions; with a short
# reschedule delay the evicted pods return while the app is still flagged.
EVICTION_HEAVY = (
    "horizon=200",
    "predictor.window=20",
    'interference=[{"target_node": "node-02", "kind": "cpu_hog",'
    ' "start_interval": 100, "duration": 40, "intensity": 1.0}]',
)


# sha256 of each artifact; any change to the bytes of a run, wanted or not,
# shows here first.  report.json and actions.log were recorded before the
# trace writer and the simulator's interval passes were rewritten for speed;
# trace.csv and nodes.csv when the trace began to hold exact floats, the
# pod_cpu_cores column and a row per node.
PINNED_RUNS = {
    "seed1": (
        ("--seed", "1"),
        {
            "report.json": "ed0d65ebdb8757afdabd4e4c1e93171a4c8e66f215b5a64c4b318dcdf2efd5c7",
            "trace.csv": "7c85a38b7eb0af3d6d7629f68a61830483eced87f7397d3b2fb6adbd3f88b401",
            "nodes.csv": "87f93d43810abbe0d5c4129c57277346d9fb86b3e2a64208bac664b1f60e7e7b",
            "actions.log": "fcef53eac6f7aeb65007a48ddfec537aadb29994d3d758f6139400f37d9027c4",
        },
    ),
    "seed7-controllers-off": (
        ("--seed", "7", "--set", "controllers.enabled=false"),
        {
            "report.json": "7c243f9a1b4ee8194f28ebe5d90ebc59a2d2f4ec630c6c873928a654d6cfeca2",
            "trace.csv": "8d87e0cf909ed27c97adf0c49e1335af23169c3001d5915fe734e62f9bd90d79",
            "nodes.csv": "030764d7b320d41e9a2bf502eb303b22147455b0528a8cdbfcb41d6415a4541b",
            "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    # Each run below reaches a summation or power rule of the simulator that
    # the two above do not: a node holding 8 or more pods (dense-nodes), a
    # demand noise draw and its square (noisy-demand), pods that leave and
    # return (eviction-heavy), and the SYSTEM and LSR classes (lsr-system).
    "dense-nodes": (
        ("--seed", "1", "--set", "topology.node_count=2",
         "--set", "interference.0.target_node=node-01"),
        {
            "report.json": "aa3f2db464c5722b02a2b5d84ddbc1ca2b9e5ffa037fb9674327d546505ae45a",
            "trace.csv": "3116762f02e6a150bf4836a2da5befac96d56332193dd45bc7800d0bc00f6442",
            "nodes.csv": "fb3eb0ec2c1fbcc65172ba0edb8c8db00ed7dfbe3c99debb9f1ad227cc95a3f4",
            "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        },
    ),
    "noisy-demand": (
        ("--seed", "4", "--set", "apps.0.demand_noise_std=0.05",
         "--set", "apps.2.demand_noise_std=0.02"),
        {
            "report.json": "338127ecca117f1851f402cbc8e9532d590d33e39ea7a0094576ea85db228db8",
            "trace.csv": "6ef69fa2b29b9ee72b56a3d85cebf071c838316fc8d55737e4ef81815ab9c9a8",
            "nodes.csv": "33460bb75500ebc8b1e165c294cb75b9715b7cc5e057743b78016625e1f98bfa",
            "actions.log": "35d40b8e57ce73289487d5c5e5d58a3b755abcde1edec2ea2374ec6f62533dbb",
        },
    ),
    "eviction-heavy": (
        ("--seed", "1",
         *(arg for s in EVICTION_HEAVY for arg in ("--set", s)),
         "--set", "controllers.reschedule_delay_intervals=0"),
        {
            "report.json": "b580da4fd0b11c6e9e549c801bfefdf2a6cedd2210cc91de1760540d0eba8c0f",
            "trace.csv": "31aef9138117076e4a8da49165af6dbc8b0852e6f94b5adc5ea443b1a008e587",
            "nodes.csv": "8e9320bed228b51dbe8c15c43241d8649d83d775f6e75b0bf901fbbad1230946",
            "actions.log": "7bebe98b99930d11c9f77811da179ca307fec64143d7d4059d5b3ad0714c6547",
        },
    ),
    "lsr-system": (
        ("--seed", "1", "--set", 'apps.0.qos="LSR"', "--set", 'apps.1.qos="SYSTEM"'),
        {
            "report.json": "582fb92f6b7bdad051675da0b1caf9b9c094ef772c7214939fe08e9df3de5d5e",
            "trace.csv": "626f1a875e7e0b095c26e1e7e179a255e1df861220684063672912e6de1e0e8f",
            "nodes.csv": "6ee26b33e11cd2cf96533c7d1860e251fd6fcf20ade47f36215c0d6391aa4e72",
            "actions.log": "fcef53eac6f7aeb65007a48ddfec537aadb29994d3d758f6139400f37d9027c4",
        },
    ),
}


@pytest.mark.parametrize("run", list(PINNED_RUNS))
def test_simulate_artifact_digests_are_pinned(tmp_path, run):
    argv, digests = PINNED_RUNS[run]
    assert run_cli("simulate", *argv, "--out", str(tmp_path)) == 0
    assert {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() for name in digests
    } == digests


def test_simulate_rejects_an_app_id_csv_would_quote(tmp_path, capsys):
    code = run_cli("simulate", "--out", str(tmp_path), "--set", 'apps.1.app_id="web,2"')
    assert code == 2
    assert "apps[1].app_id: app_id 'web,2' contains ','" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# Each of these was accepted, or failed with exit 1 and no key path, when the
# simulator read the config dict a second time after validation.
@pytest.mark.parametrize(
    "overrides, message",
    [
        (['predictor.load_weights=["a","b","c"]'],
         "predictor.load_weights[0]: expected int/float, got str"),
        (["predictor.load_weights=[1.5,-0.3,-0.2]"],
         "predictor.load_weights[1]: must be >= 0, got -0.3"),
        (["detector.weights.default=[1.5,-0.25,-0.25]"],
         "detector.weights.default[1]: must be >= 0, got -0.25"),
        (["predictor.k1=0", "predictor.k2=0"], "predictor.k2: k1 and k2 cannot both be 0"),
        (["predictor.load_weights=[true,false,0]"],
         "predictor.load_weights[0]: expected int/float, got bool"),
        (["horizon=3.5"], "horizon: must be an integer, got 3.5"),
        (["predictor.windw=20"], "predictor.windw: unknown key"),
        (["interference.0.target_node=node-2"],
         "interference[0].target_node: 'node-2' is not a node of this topology"),
        (["horizon=1" + "0" * 400],
         "horizon: must be finite, got an integer past the float range"),
    ],
    ids=["text-weights", "negative-weights", "negative-detector-weights", "k1-k2-zero",
         "bool-weights", "fractional-horizon", "unknown-key", "unpadded-node-id",
         "horizon-past-float-range"],
)
def test_simulate_config_fault_is_exit_2_with_its_key_path(tmp_path, capsys, overrides, message):
    sets = [arg for override in overrides for arg in ("--set", override)]
    assert run_cli("simulate", *sets, "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == []


def test_replay_rejects_an_unknown_config_key_with_its_line(tmp_path, capsys):
    trace = simulate_small(tmp_path)
    cfg = json.loads(Path(write_small_cfg(tmp_path)).read_text())
    cfg["predictor"]["windw"] = 20
    path = tmp_path / "typo.json"
    path.write_text(json.dumps(cfg, indent=2))
    line = next(n for n, text in enumerate(path.read_text().splitlines(), 1) if '"windw"' in text)
    capsys.readouterr()
    assert run_cli("replay", "--trace", str(trace), "--config", str(path)) == 2
    assert capsys.readouterr().err == f"error: predictor.windw (line {line}): unknown key\n"


def test_config_file_number_past_the_float_range_is_exit_2_with_its_line(tmp_path, capsys):
    cfg = json.loads(Path(write_small_cfg(tmp_path)).read_text())
    cfg["predictor"]["k1"] = 10**400
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(cfg, indent=2))
    line = next(n for n, text in enumerate(path.read_text().splitlines(), 1) if '"k1"' in text)
    assert run_cli("simulate", "--config", str(path), "--out", str(tmp_path / "run")) == 2
    assert capsys.readouterr().err == (
        f"error: predictor.k1 (line {line}): must be finite, got an integer past the float range\n"
    )
    assert not (tmp_path / "run").exists()


def simulate_small(tmp_path, seed=3):
    cfg = write_small_cfg(tmp_path)
    out = tmp_path / "run"
    assert run_cli("simulate", "--config", cfg, "--seed", str(seed), "--out", str(out)) == 0
    return out / "trace.csv"


def test_train_writes_model_and_metrics(tmp_path, capsys):
    trace = simulate_small(tmp_path)
    model_path = tmp_path / "model.json"
    code = run_cli(
        "train",
        "--trace", str(trace),
        "--model-out", str(model_path),
        "--window", "5",
        "--rounds", "20",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "train rows=192 mse=" in stdout  # 0.8 of 240 rows
    assert "holdout rows=48" in stdout
    doc = json.loads(model_path.read_text())
    assert doc["version"] == 1
    assert doc["trees"]


def test_train_app_filter_and_no_holdout(tmp_path, capsys):
    trace = simulate_small(tmp_path)
    model_path = tmp_path / "web.json"
    code = run_cli(
        "train",
        "--trace", str(trace),
        "--app", "web",
        "--model-out", str(model_path),
        "--window", "5",
        "--rounds", "10",
        "--split-fraction", "1.0",
    )
    assert code == 0
    stdout = capsys.readouterr().out
    assert "train rows=80" in stdout  # 4 web pods x 20 intervals
    assert "holdout" not in stdout


def test_train_rejects_short_traces(tmp_path, capsys):
    trace = simulate_small(tmp_path)
    code = run_cli(
        "train",
        "--trace", str(trace),
        "--model-out", str(tmp_path / "m.json"),
        "--window", "1000",
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "2 x window 1000" in err
    assert "240 rows" in err


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--rounds", "0", "must be >= 1, got 0"),
        ("--learning-rate", "2", "must be <= 1, got 2.0"),
        ("--min-samples-leaf", "0", "must be >= 1, got 0"),
        ("--lam", "-1", "must be >= 0, got -1.0"),
        ("--tau", "-0.5", "must be >= 0, got -0.5"),
        ("--max-depth", "0", "must be >= 1, got 0"),
        ("--base-score", "nan", "must be finite, got nan"),
        ("--window", "0", "must be >= 1, got 0"),
        ("--split-fraction", "nan", "must be finite, got nan"),
        ("--split-fraction", "1.5", "must be <= 1, got 1.5"),
        ("--split-fraction", "-0.1", "must be >= 0, got -0.1"),
    ],
)
def test_train_option_faults_exit_2_naming_the_option(tmp_path, capsys, option, value, message):
    # each used to exit 1 with a traceback, or fail inside the fit
    trace = simulate_small(tmp_path)
    model = tmp_path / "m.json"
    code = run_cli("train", "--trace", str(trace), "--model-out", str(model), option, value)
    assert code == 2
    err = capsys.readouterr().err
    assert err == f"error: {option}: {message}\n"
    assert not model.exists()


def test_predict_appends_prediction_column(tmp_path, capsys):
    trace = simulate_small(tmp_path)
    model_path = tmp_path / "model.json"
    run_cli("train", "--trace", str(trace), "--model-out", str(model_path), "--window", "5")
    capsys.readouterr()

    out_path = tmp_path / "pred.csv"
    assert (
        run_cli("predict", "--trace", str(trace), "--model", str(model_path), "--out", str(out_path))
        == 0
    )
    lines = out_path.read_text().splitlines()
    assert lines[0].endswith(",cpi_pred")
    assert len(lines) == 1 + 240
    assert len(lines[1].split(",")) == 18

    # stdout mode produces the same table
    capsys.readouterr()
    assert run_cli("predict", "--trace", str(trace), "--model", str(model_path)) == 0
    stdout_lines = capsys.readouterr().out.splitlines()
    assert stdout_lines[: len(lines)] == lines


# The criterion-7 shape: 8 nodes, window 20, a mem_pressure injection.
CRITERION_7_SHAPE = (
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
    "horizon=60",
    'interference=[{"target_node": "node-03", "kind": "mem_pressure",'
    ' "start_interval": 50, "duration": 30, "intensity": 0.8}]',
)


# The live detection counts pin the live run, so that live and replay
# cannot agree by both keeping an evicted pod's history, or by both scoring
# too few nodes.  With 12 nodes, 2 host no pod: before nodes.csv, replay saw
# no row of theirs, scored 10 nodes and detected where the live run did not.
@pytest.mark.parametrize(
    "seed, overrides, live_detections",
    [
        (1, (), 15),
        (1, EVICTION_HEAVY + ("controllers.reschedule_delay_intervals=0",), 37),
        (2, EVICTION_HEAVY + ("controllers.reschedule_delay_intervals=0",), 39),
        (1, EVICTION_HEAVY + ("controllers.reschedule_delay_intervals=3",), 65),
        (1, ("topology.node_count=12",), 0),
        (2, ("topology.node_count=12",), 0),
        (1, CRITERION_7_SHAPE, 3),
    ],
    ids=["default-seed1", "evictions-seed1-delay0", "evictions-seed2-delay0",
         "evictions-seed1-delay3", "empty-nodes-seed1", "empty-nodes-seed2", "criterion-7-shape"],
)
def test_replay_matches_live_detections(tmp_path, capsys, seed, overrides, live_detections):
    sets = [arg for override in overrides for arg in ("--set", override)]
    out = tmp_path / "live"
    assert run_cli("simulate", "--seed", str(seed), *sets, "--out", str(out)) == 0
    live = json.loads((out / "report.json").read_text())
    assert len(live["detections"]) == live_detections
    if overrides[:1] == EVICTION_HEAVY[:1]:
        assert any(a["type"] == "evict" for a in live["actions"])
    elif live_detections:
        assert live["actions"], "expected the scenario to plan actions"

    replay_dir = tmp_path / "replay"
    replay_argv = ("replay", "--trace", str(out / "trace.csv"), *sets, "--out", str(replay_dir))
    assert run_cli(*replay_argv) == 0
    replayed = json.loads((replay_dir / "replay.json").read_text())
    # the trace holds every input the live loop read, so every record and
    # every float in it is the live one
    live_detections = [
        {k: v for k, v in d.items() if k != "lag_intervals"} for d in live["detections"]
    ]
    assert replayed["detections"] == live_detections
    assert replayed["flag_events"] == live["flag_events"]
    assert replayed["actions"] == live["actions"]
    assert replayed["models"] == live["models"]
    assert replayed["trace"] == "trace.csv"
    assert replayed["intervals"] == live["horizon"]

    # replay is deterministic: a second pass produces identical bytes
    first = (replay_dir / "replay.json").read_bytes()
    assert run_cli(*replay_argv) == 0
    assert (replay_dir / "replay.json").read_bytes() == first


def small_run(tmp_path):
    """A small run's trace, nodes.csv and config: 4 nodes, 20 intervals."""
    trace = simulate_small(tmp_path)
    return trace, trace.parent / "nodes.csv", str(tmp_path / "scenario.json")


def edit_lines(path, edit):
    lines = path.read_text().splitlines()
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def replay_error(trace, cfg, capsys):
    capsys.readouterr()
    assert run_cli("replay", "--trace", str(trace), "--config", cfg) == 2
    return capsys.readouterr().err


def test_replay_without_nodes_csv_is_exit_2_naming_it(tmp_path, capsys):
    trace, nodes, cfg = small_run(tmp_path)
    nodes.unlink()
    assert replay_error(trace, cfg, capsys) == (
        f"error: {nodes}: no such file; replay needs the node rows simulate writes"
        " beside the trace\n"
    )


def test_replay_rejects_a_node_the_config_does_not_have(tmp_path, capsys):
    trace, nodes, cfg = small_run(tmp_path)
    edit_lines(nodes, lambda lines: lines.__setitem__(3, lines[3].replace("node-02", "node-09")))
    assert replay_error(trace, cfg, capsys) == (
        f"error: {nodes}: line 4: node 'node-09' is not a node of the scenario config\n"
    )


def test_replay_rejects_an_interval_missing_a_config_node(tmp_path, capsys):
    trace, nodes, cfg = small_run(tmp_path)
    edit_lines(nodes, lambda lines: lines.pop(3 + 4 * 5))  # node-02 of interval 5
    assert replay_error(trace, cfg, capsys) == (
        f"error: {nodes}: interval 5 has no row for node node-02\n"
    )


def test_replay_rejects_a_node_repeated_within_an_interval(tmp_path, capsys):
    trace, nodes, cfg = small_run(tmp_path)
    edit_lines(nodes, lambda lines: lines.insert(3, lines[2]))
    assert replay_error(trace, cfg, capsys) == (
        f"error: {nodes}: line 4: node node-01 repeats in interval 0\n"
    )


def test_replay_rejects_a_trace_interval_without_node_rows(tmp_path, capsys):
    trace, nodes, cfg = small_run(tmp_path)

    def drop_interval_7(lines):
        lines[:] = [line for line in lines if not line.startswith("7,")]

    edit_lines(nodes, drop_interval_7)
    line = 2 + 7 * 12  # interval 7's first of 12 pod rows
    assert replay_error(trace, cfg, capsys) == (
        f"error: {trace}: line {line}: interval 7 has no node rows in nodes.csv\n"
    )


@pytest.mark.parametrize(
    "text, message",
    [("inf", "node_cpu_offline=inf is not finite"),
     ("nan", "node_cpu_offline=nan is not finite"),
     ("1.5", "node_cpu_offline=1.5 outside [0, 1]"),
     ("-0.25", "node_cpu_offline=-0.25 outside [0, 1]")],
    ids=["inf", "nan", "above-one", "negative"],
)
def test_replay_rejects_a_bad_node_value(tmp_path, capsys, text, message):
    trace, nodes, cfg = small_run(tmp_path)

    def spoil(lines):
        record = lines[5].split(",")
        record[3] = text
        lines[5] = ",".join(record)

    edit_lines(nodes, spoil)
    assert replay_error(trace, cfg, capsys) == f"error: {nodes}: line 6: {message}\n"


def test_old_trace_is_exit_2_with_bad_header(small_trace, tmp_path, capsys):
    model = tmp_path / "model.json"
    assert run_cli("train", "--trace", str(small_trace), "--model-out", str(model), "--window", "5") == 0
    old = tmp_path / "trace.csv"
    old.write_text(OLD_TRACE)
    (tmp_path / "nodes.csv").write_text((small_trace.parent / "nodes.csv").read_text())
    capsys.readouterr()
    for argv in (
        ("replay", "--trace", str(old)),
        ("train", "--trace", str(old), "--model-out", str(tmp_path / "m2.json"), "--window", "5"),
        ("predict", "--trace", str(old), "--model", str(model)),
    ):
        assert run_cli(*argv) == 2, argv[0]
        err = capsys.readouterr().err
        assert err.startswith("error: line 1: bad header; expected "), argv[0]
        assert "pod_cpu_cores" in err, argv[0]
    assert not (tmp_path / "m2.json").exists()


def write_report_dir(tmp_path, name, p50, p90, evictions):
    run_dir = tmp_path / name
    run_dir.mkdir()
    report = {
        "latency_ms": {
            "web": {
                "normal": {"count": 4, "p50": p50, "p90": p90, "p99": p90 * 2},
                "interference": None,
            }
        },
        "detections": [{"interval": 5, "app_id": "web"}],
        "actions": [],
        "evictions": evictions,
    }
    (run_dir / "report.json").write_text(json.dumps(report))
    return str(run_dir)


def test_report_single_run_prints_counters(tmp_path, capsys):
    run_dir = write_report_dir(tmp_path, "base", 100.0, 200.0, evictions=3)
    assert run_cli("report", run_dir) == 0
    stdout = capsys.readouterr().out
    assert "detections: base=1" in stdout
    assert "actions: base=0" in stdout
    assert "evictions: base=3" in stdout
    assert "delta%" not in stdout


def test_report_pair_computes_improvement_deltas(tmp_path, capsys):
    base = write_report_dir(tmp_path, "base", 100.0, 200.0, evictions=0)
    tuned = write_report_dir(tmp_path, "tuned", 80.0, 250.0, evictions=1)
    csv_path = tmp_path / "table.csv"
    assert run_cli("report", base, tuned, "--csv", str(csv_path)) == 0
    stdout = capsys.readouterr().out
    assert "delta% tuned" in stdout
    assert "+20.0" in stdout  # p50 100 -> 80 improved by a fifth
    assert "-25.0" in stdout  # p90 200 -> 250 regressed by a quarter
    table = csv_path.read_text().splitlines()
    assert table[0].startswith("app,phase,metric,")
    assert table[0].endswith(",delta_pct_tuned")
    assert any(row.startswith("web,normal,p50") and "20.0000" in row for row in table)


def test_report_missing_report_json_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    assert run_cli("report", str(empty)) == 2
    assert "no report.json found" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, fault",
    [('{\n  "latency_ms": ', "(line 2): Expecting value"),
     ("[1,2]", "(line 1): top level must be an object")],
    ids=["truncated", "list"],
)
def test_corrupt_report_json_is_exit_2_with_its_line(tmp_path, capsys, text, fault):
    (tmp_path / "report.json").write_text(text)
    assert run_cli("report", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'report.json'} {fault}\n"


@pytest.mark.parametrize(
    "latency, fault",
    [
        ({"web": {"normal": {"p50": "x"}}},
         "latency_ms.web.normal.p50 (line 5): expected int/float, got str"),
        ({"web": 1}, "latency_ms.web (line 3): expected dict, got int"),
        ({"web": {"interference": [1]}},
         "latency_ms.web.interference (line 4): expected dict, got list"),
        ({"web": {"normal": {"p99": 10**400}}},
         "latency_ms.web.normal.p99 (line 5): must be finite, got an integer past the float range"),
        ([], "latency_ms (line 2): expected dict, got list"),
    ],
    ids=["string_cell", "number_app", "list_phase", "int_past_float", "list"],
)
def test_report_with_a_bad_latency_cell_is_exit_2_with_its_key_path(
    tmp_path, capsys, latency, fault
):
    (tmp_path / "report.json").write_text(json.dumps({"latency_ms": latency}, indent=1))
    assert run_cli("report", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'report.json'}: {fault}\n"


@pytest.mark.parametrize(
    "report, fault",
    [
        ({"detections": 5}, "detections (line 2): expected list, got int"),
        ({"detections": "abc"}, "detections (line 2): expected list, got str"),
        ({"actions": {"n": 1}}, "actions (line 2): expected list, got dict"),
        ({"latency_ms": {}, "evictions": "x"}, "evictions (line 3): expected int/float, got str"),
    ],
    ids=["int_detections", "string_detections", "object_actions", "string_evictions"],
)
def test_report_with_a_bad_counter_is_exit_2_with_its_key_path(tmp_path, capsys, report, fault):
    # the counters are printed by length or as they are, so their shape is checked first
    (tmp_path / "report.json").write_text(json.dumps(report, indent=1))
    assert run_cli("report", str(tmp_path)) == 2
    assert capsys.readouterr().err == f"error: {tmp_path / 'report.json'}: {fault}\n"


def test_each_config_source_is_validated_once(tmp_path, monkeypatch):
    # the file is read once to locate its faults, the --set result once to run
    cfg = write_small_cfg(tmp_path)
    calls = []

    def counting(config, raw=None):
        calls.append(raw is not None)
        return validate_config(config, raw)

    for module in (ckoord.scenario, ckoord.simulator, ckoord.cli):
        monkeypatch.setattr(module, "validate_config", counting)
    a, b = tmp_path / "a", tmp_path / "b"
    runs = [
        (["simulate", "--set", "horizon=2", "--out", str(a)], [False]),
        (["simulate", "--config", cfg, "--set", "horizon=2", "--out", str(b)], [True, False]),
        (["replay", "--trace", str(a / "trace.csv"), "--set", "horizon=2"], [False]),
        (["replay", "--trace", str(b / "trace.csv"), "--config", cfg, "--set", "horizon=2"],
         [True, False]),
    ]
    for argv, expected in runs:
        calls.clear()
        assert run_cli(*argv) == 0
        assert calls == expected, argv


def test_missing_config_file_is_exit_2(tmp_path, capsys):
    code = run_cli("simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path))
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_bad_model_json_is_exit_2(tmp_path, capsys):
    trace = simulate_small(tmp_path)
    bad_model = tmp_path / "bad.json"
    bad_model.write_text('{"schema_version": 99}')
    code = run_cli("predict", "--trace", str(trace), "--model", str(bad_model))
    assert code == 2
    assert "error:" in capsys.readouterr().err


MODEL_TEMPLATE = (
    '{"version": 1, "base_score": %(base_score)s, "learning_rate": %(learning_rate)s,'
    ' "feature_count": 9, "trees": [{"feature": %(feature)s, "threshold": %(threshold)s,'
    ' "left": {"weight": %(weight)s}, "right": {"weight": -0.25}}]}'
)
GOOD_MODEL_FIELDS = {
    "base_score": "0.5",
    "learning_rate": "0.1",
    "feature": "0",
    "threshold": "0.5",
    "weight": "0.25",
}
MODEL_FIELD_PATHS = {
    "base_score": "base_score",
    "learning_rate": "learning_rate",
    "feature": "trees[0].feature",
    "threshold": "trees[0].threshold",
    "weight": "trees[0].left.weight",
}
# raw JSON text: json.loads reads NaN and 1e400 as floats, the 401-digit
# literal as an int that float() cannot hold
BAD_MODEL_NUMBERS = ["NaN", "1e400", "-Infinity", "1" + "0" * 400, '"x"', "null", "true"]
BAD_MODEL_CASES = [
    (field, bad, "must be a finite number")
    for field in ("base_score", "learning_rate", "threshold", "weight")
    for bad in BAD_MODEL_NUMBERS
] + [
    ("feature", bad, "must be an integer")
    for bad in ["2.5", "NaN", "1e400", '"x"', '"0"', "null", "true"]
] + [("feature", "9", "index 9 outside [0, 9)")]


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    return simulate_small(tmp_path_factory.mktemp("small"))


@pytest.mark.parametrize(
    "field, bad, message",
    BAD_MODEL_CASES,
    ids=[f"{field}={bad[:8]}" for field, bad, _ in BAD_MODEL_CASES],
)
def test_model_with_a_bad_number_is_exit_2_with_its_path(
    small_trace, tmp_path, capsys, field, bad, message
):
    model = tmp_path / "model.json"
    model.write_text(MODEL_TEMPLATE % {**GOOD_MODEL_FIELDS, field: bad})
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    code = run_cli("predict", "--trace", str(small_trace), "--model", str(model), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: {MODEL_FIELD_PATHS[field]}: {message}\n"
    assert not out.exists()


def test_model_template_is_a_valid_model(small_trace, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(MODEL_TEMPLATE % GOOD_MODEL_FIELDS)
    assert run_cli("predict", "--trace", str(small_trace), "--model", str(model)) == 0


# raw JSON text of the version field; only the integer 1 is schema v1
BAD_MODEL_VERSIONS = [("true", "True"), ("1.0", "1.0"), ("2", "2"), ('"1"', "'1'"), ("null", "None")]


@pytest.mark.parametrize("bad, shown", BAD_MODEL_VERSIONS, ids=[bad for bad, _ in BAD_MODEL_VERSIONS])
def test_model_with_a_bad_version_is_exit_2(small_trace, tmp_path, capsys, bad, shown):
    model = tmp_path / "model.json"
    model.write_text((MODEL_TEMPLATE % GOOD_MODEL_FIELDS).replace('"version": 1', f'"version": {bad}'))
    capsys.readouterr()
    assert run_cli("predict", "--trace", str(small_trace), "--model", str(model)) == 2
    assert capsys.readouterr().err == f"error: unsupported model version {shown}\n"


def test_model_with_the_wrong_feature_count_is_exit_2(small_trace, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(
        (MODEL_TEMPLATE % GOOD_MODEL_FIELDS).replace('"feature_count": 9', '"feature_count": 5')
    )
    out = tmp_path / "pred.csv"
    capsys.readouterr()
    code = run_cli("predict", "--trace", str(small_trace), "--model", str(model), "--out", str(out))
    assert code == 2
    assert capsys.readouterr().err == f"error: {model}: model takes 5 features, the trace gives 9\n"
    assert not out.exists()


def nested_model(levels):
    """A model whose one tree splits ``levels`` times down its left side."""
    split = '{"feature": 0, "threshold": 0.5, "left": '
    tree = split * levels + '{"weight": 0.25}' + ', "right": {"weight": -0.25}}' * levels
    return (
        '{"version": 1, "base_score": 0.5, "learning_rate": 0.1, "feature_count": 9,'
        f' "trees": [{tree}]}}'
    )


def test_model_nested_too_deeply_is_exit_2(small_trace, tmp_path, capsys):
    model = tmp_path / "model.json"
    model.write_text(nested_model(2000))
    capsys.readouterr()
    assert run_cli("predict", "--trace", str(small_trace), "--model", str(model)) == 2
    assert capsys.readouterr().err == "error: model nests too deeply to read\n"


def test_model_nested_900_levels_loads_and_predicts(small_trace, tmp_path):
    model = tmp_path / "model.json"
    model.write_text(nested_model(900))
    out = tmp_path / "pred.csv"
    assert run_cli("predict", "--trace", str(small_trace), "--model", str(model), "--out", str(out)) == 0
    header, *rows = out.read_text().splitlines()
    cpu = header.split(",").index("pod_cpu_util")
    for row in rows:  # every split tests slot 0, so a row takes one side all the way down
        cells = row.split(",")
        assert float(cells[-1]) == (0.525 if float(cells[cpu]) < 0.5 else 0.475)


@pytest.mark.parametrize(
    "fault",
    ["repeated_pod_row", "inf_cpi", "quoted_pod_id", "underscore_interval", "padded_float"],
)
def test_malformed_trace_is_exit_2_with_its_line(tmp_path, capsys, fault):
    trace = simulate_small(tmp_path)
    model = tmp_path / "model.json"
    assert run_cli("train", "--trace", str(trace), "--model-out", str(model), "--window", "5") == 0
    lines = trace.read_text().splitlines()
    if fault == "repeated_pod_row":
        lines.insert(3, lines[2])  # line 4 repeats line 3's (interval, pod_id)
        expected = "line 4: pod "
    elif fault == "quoted_pod_id":
        record = lines[2].split(",")
        record[2] = f'"{record[2]},x"'
        lines[2] = ",".join(record)
        expected = "line 3: pod_id "
    elif fault == "underscore_interval":
        record = lines[2].split(",")
        record[0] = "0_0"  # int() reads it as 0, the interval the line is in
        lines[2] = ",".join(record)
        expected = "line 3: interval='0_0' is not a plain number"
    elif fault == "padded_float":
        record = lines[2].split(",")
        record[5] = " " + record[5]
        lines[2] = ",".join(record)
        expected = f"line 3: pod_cpu_util={record[5]!r} is not a plain number"
    else:
        record = lines[2].split(",")
        record[TRACE_COLUMNS.index("cpi")] = "inf"
        lines[2] = ",".join(record)
        expected = "line 3: cpi=inf is not finite"
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    for argv in (
        ("replay", "--trace", str(trace)),
        ("train", "--trace", str(trace), "--model-out", str(tmp_path / "m2.json"), "--window", "5"),
        ("predict", "--trace", str(trace), "--model", str(model)),
    ):
        assert run_cli(*argv) == 2, argv[0]
        assert expected in capsys.readouterr().err, argv[0]
    assert not (tmp_path / "m2.json").exists()


def test_usage_errors_raise_systemexit_2():
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--no-such-flag"])
    assert exc.value.code == 2


def read_pyproject():
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as f:
        return tomllib.load(f)


def test_console_script_version():
    # Runs the declared entry point the way the wrapper that pip generates
    # does, so the check needs no install: the suite runs from source.
    project = read_pyproject()["project"]
    assert project["version"] == ckoord.__version__
    module, _, func = project["scripts"]["ckoord"].partition(":")
    code = (
        "import sys; sys.argv[0] = 'ckoord'; "
        f"from {module} import {func}; sys.exit({func}())"
    )
    # The child imports the same ckoord as this process, whatever the
    # working directory and however PYTHONPATH was given.
    src = str(Path(ckoord.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, "--version"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == f"ckoord {ckoord.__version__}"


@pytest.mark.skipif(
    shutil.which("ckoord") is None,
    reason="no ckoord executable on PATH; only an install creates one",
)
def test_installed_console_script_version():
    proc = subprocess.run(
        ["ckoord", "--version"], capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == f"ckoord {ckoord.__version__}"


def test_default_config_drives_the_cli_end_to_end(tmp_path):
    # smoke: the packaged scenario itself is a valid --config file
    cfg_path = tmp_path / "default.json"
    cfg_path.write_text(json.dumps(default_config()))
    out = tmp_path / "run"
    assert (
        run_cli(
            "simulate",
            "--config", str(cfg_path),
            "--seed", "0",
            "--out", str(out),
            "--set", "horizon=2",
            "--set", "interference=[]",
        )
        == 0
    )
    assert json.loads((out / "report.json").read_text())["horizon"] == 2


def test_simulate_bytes_do_not_depend_on_the_hash_seed(tmp_path):
    """String hashing is salted per process; no artifact may follow it."""
    src = str(Path(ckoord.__file__).resolve().parents[1])
    digests = []
    for hash_seed in ("0", "987654"):
        out = tmp_path / f"hash{hash_seed}"
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "ckoord.cli", "simulate", "--seed", "1", "--out", str(out)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(
            {
                name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                for name in ("report.json", "trace.csv", "nodes.csv", "actions.log")
            }
        )
    assert digests[0] == digests[1]
