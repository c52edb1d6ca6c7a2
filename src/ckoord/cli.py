"""Command line front end.

Subcommands: simulate, train, predict, replay, report.  Exit codes: 0 on
success, 1 on runtime failure, 2 on configuration or usage errors.  Set
CKOORD_LOG=DEBUG (or any logging level name) for diagnostics on stderr.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys

from . import __version__
from .gbdt import (
    ModelSchemaError,
    ensemble_from_json,
    ensemble_to_json,
    regression_metrics,
    train_ensemble,
)
from .loop import ControlLoop, DecisionLog
from .scenario import (
    ConfigError,
    Options,
    Scenario,
    apply_overrides,
    default_config,
    load_config,
    read_object,
    train_config,
    validate_config,
    _number,
    _typed,
)
from .simulator import Simulator, report_to_json
from .trace import (
    TraceFormatError,
    atomic_open,
    feature_matrix,
    format_value,
    read_nodes,
    read_trace,
    rows_by_interval,
    write_nodes,
    write_rows,
    write_trace,
)

log = logging.getLogger("ckoord")

NODES_FILE = "nodes.csv"  # written beside trace.csv; replay reads it from there
# the options of ``ckoord train`` by their dest, the key ``predictor.train`` uses
TRAIN_OPTIONS = {
    "learning_rate": "--learning-rate",
    "lam": "--lam",
    "tau": "--tau",
    "max_depth": "--max-depth",
    "num_rounds": "--rounds",
    "min_samples_leaf": "--min-samples-leaf",
    "base_score": "--base-score",
    "window": "--window",
    "split_fraction": "--split-fraction",
}


def _write_text_atomic(path: str, text: str) -> None:
    with atomic_open(path) as handle:
        handle.write(text)


def _load_scenario(args: argparse.Namespace) -> dict:
    cfg = load_config(args.config) if args.config else default_config()
    if getattr(args, "set", None):
        cfg = apply_overrides(cfg, args.set)
    return cfg


def _cmd_simulate(args: argparse.Namespace) -> int:
    simulator = Simulator(_load_scenario(args), args.seed)  # a config fault leaves no --out
    os.makedirs(args.out, exist_ok=True)
    result = simulator.run()
    if args.set:
        result.report["overrides"] = sorted(args.set)
    report_path = os.path.join(args.out, "report.json")
    trace_path = os.path.join(args.out, "trace.csv")
    nodes_path = os.path.join(args.out, NODES_FILE)
    actions_path = os.path.join(args.out, "actions.log")
    _write_text_atomic(report_path, report_to_json(result.report))
    write_trace(trace_path, result.trace_rows)
    write_nodes(nodes_path, result.node_rows)
    _write_text_atomic(actions_path, "".join(line + "\n" for line in result.action_log))
    report = result.report
    print(
        f"simulated {report['horizon']} intervals seed={report['seed']}"
        f" detections={len(report['detections'])} evictions={report['evictions']}"
        f" suppressions={report['suppressions']}"
    )
    print(f"report: {report_path}")
    print(f"trace: {trace_path}")
    print(f"nodes: {nodes_path}")
    print(f"actions: {actions_path}")
    return 0


def _metrics_line(tag: str, count: int, metrics: dict[str, float]) -> str:
    return (
        f"{tag} rows={count} mse={metrics['mse']:.6g} mae={metrics['mae']:.6g}"
        f" r2={metrics['r2']:.6g} acc={metrics['acc']:.6g}"
    )


def _cmd_train(args: argparse.Namespace) -> int:
    options = Options(vars(args), TRAIN_OPTIONS)
    cfg = train_config(options)
    window = options.count("window", 1)
    split_fraction = options.number("split_fraction", 0, 1)
    rows = read_trace(args.trace)
    if args.app is not None:
        rows = [r for r in rows if r.app_id == args.app]
    minimum = 2 * window
    if len(rows) < minimum:
        scope = f"app {args.app!r}" if args.app else "trace"
        raise ConfigError(
            f"{args.trace}: {scope} has {len(rows)} rows; at least {minimum}"
            f" (2 x window {window}) required"
        )
    X, y = feature_matrix(rows)
    n = len(rows)
    del rows  # the parsed rows would otherwise stay resident through the fit
    split = int(n * split_fraction)
    if split < 1 or split >= n:
        split = n
    model = train_ensemble(X[:split], y[:split], cfg)
    print(_metrics_line("train", split, regression_metrics(y[:split], model.predict(X[:split]))))
    if split < n:
        holdout = regression_metrics(y[split:], model.predict(X[split:]))
        print(_metrics_line("holdout", n - split, holdout))
    _write_text_atomic(args.model_out, ensemble_to_json(model) + "\n")
    print(f"model: {args.model_out}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    rows = read_trace(args.trace)
    if not rows:
        raise TraceFormatError(f"{args.trace}: no data rows")
    with open(args.model, encoding="utf-8") as handle:
        model = ensemble_from_json(handle.read())
    X, _ = feature_matrix(rows)
    if model.feature_count != X.shape[1]:
        raise ModelSchemaError(
            f"{args.model}: model takes {model.feature_count} features,"
            f" the trace gives {X.shape[1]}"
        )
    preds = model.predict(X)
    out = sys.stdout if args.out is None else open(args.out, "w", encoding="utf-8", newline="")
    try:
        write_rows(out, rows, preds.tolist())
    finally:
        if out is not sys.stdout:
            out.close()
    if args.out is not None:
        print(f"predictions: {args.out}")
    return 0


def _recorded(trace: str, scenario: Scenario):
    """A trace's pod rows by interval, and the node rows beside it grouped by
    interval, each group holding every scenario node once."""
    rows = read_trace(trace)
    path = os.path.join(os.path.dirname(trace), NODES_FILE)
    if not os.path.isfile(path):
        raise TraceFormatError(
            f"{path}: no such file; replay needs the node rows simulate writes beside the trace"
        )
    try:
        node_rows = read_nodes(path)
    except TraceFormatError as exc:
        raise TraceFormatError(f"{path}: {exc}") from None
    known = set(scenario.node_ids)
    for line, row in enumerate(node_rows, start=2):
        if row.node_id not in known:
            raise TraceFormatError(
                f"{path}: line {line}: node {row.node_id!r} is not a node of the scenario config"
            )
    nodes = rows_by_interval(node_rows)
    for interval, group in nodes:
        if len(group) != len(known):  # the reader rejects a repeated node
            absent = min(known - {row.node_id for row in group})
            raise TraceFormatError(f"{path}: interval {interval} has no row for node {absent}")
    recorded = {interval for interval, _ in nodes}
    for line, row in enumerate(rows, start=2):
        if row.app_id not in scenario.apps:
            raise ConfigError(f"trace app {row.app_id!r} not present in scenario config")
        if row.node_id not in known:
            raise ConfigError(f"trace node {row.node_id!r} not present in scenario config")
        if row.interval not in recorded:
            raise TraceFormatError(
                f"{trace}: line {line}: interval {row.interval} has no node rows in {NODES_FILE}"
            )
    return dict(rows_by_interval(rows)), nodes


def _cmd_replay(args: argparse.Namespace) -> int:
    scenario = validate_config(_load_scenario(args))
    pods, nodes = _recorded(args.trace, scenario)
    loop = ControlLoop(scenario)
    decisions = DecisionLog()
    for interval, node_rows in nodes:
        decisions.add(loop.observe(interval, pods.get(interval, []), node_rows, True))
    intervals = len(nodes)
    replay_report = {
        "schema_version": 1,
        "trace": os.path.basename(args.trace),
        "intervals": intervals,
        "detections": decisions.detections,
        "flag_events": decisions.flag_events,
        "actions": decisions.actions,
        "verdicts_evaluated": decisions.verdicts_evaluated,
        "deferrals": decisions.deferrals,
        "models": loop.models_trained,
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        out_path = os.path.join(args.out, "replay.json")
        _write_text_atomic(out_path, report_to_json(replay_report))
        print(f"replay report: {out_path}")
    print(
        f"replayed {intervals} intervals flags={len(decisions.flag_events)}"
        f" detections={len(decisions.detections)} actions={len(decisions.actions)}"
    )
    return 0


LATENCY_PHASES, LATENCY_KEYS = ("normal", "interference"), ("p50", "p90", "p99")


def _check_report(report: dict, raw: str) -> None:
    """Refuse a ``latency_ms`` that is not {app: {phase: {key: number or
    null} or null}}, ``detections`` or ``actions`` that are not lists, and
    ``evictions`` that is not a count (an int >= 0, never a bool); a fault
    names its key path and line."""
    for key in ("detections", "actions"):
        _typed(report.get(key, []), raw, key, (list,))
    _number(_typed(report.get("evictions", 0), raw, "evictions", (int,)), raw, "evictions", 0)
    apps = _typed(report.get("latency_ms", {}), raw, "latency_ms", (dict,))
    for app, phases in apps.items():
        _typed(phases, raw, f"latency_ms.{app}", (dict,))
        for phase in LATENCY_PHASES:
            block = phases.get(phase)
            if block is None:
                continue
            _typed(block, raw, f"latency_ms.{app}.{phase}", (dict,))
            for key in LATENCY_KEYS:
                if block.get(key) is not None:
                    _number(block[key], raw, f"latency_ms.{app}.{phase}.{key}")


def _latency_cell(report: dict, app: str, phase: str, key: str) -> float | None:
    block = report.get("latency_ms", {}).get(app, {}).get(phase)
    if block is None:
        return None
    return block.get(key)


def _cmd_report(args: argparse.Namespace) -> int:
    reports: list[tuple[str, dict]] = []
    for run_dir in args.run_dirs:
        path = os.path.join(run_dir, "report.json")
        if not os.path.isfile(path):
            raise ConfigError(f"{run_dir}: no report.json found")
        report, raw = read_object(path)
        try:
            _check_report(report, raw)
        except ConfigError as exc:
            raise ConfigError(f"{path}: {exc}") from None
        reports.append((run_dir.rstrip("/"), report))
    apps = sorted({app for _, rep in reports for app in rep.get("latency_ms", {})})
    names = [name for name, _ in reports]
    header = f"{'app':<10} {'phase':<13} {'metric':<7}"
    for name in names:
        header += f" {os.path.basename(name) or name:>14}"
    for name in names[1:]:
        header += f" {'delta% ' + (os.path.basename(name) or name):>20}"
    print(header)
    print("-" * len(header))
    csv_rows = [
        ["app", "phase", "metric"]
        + names
        + [f"delta_pct_{os.path.basename(n) or n}" for n in names[1:]]
    ]
    for app in apps:
        for phase in LATENCY_PHASES:
            for key in LATENCY_KEYS:
                cells = [_latency_cell(rep, app, phase, key) for _, rep in reports]
                if all(c is None for c in cells):
                    continue
                line = f"{app:<10} {phase:<13} {key:<7}"
                csv_row = [app, phase, key]
                for cell in cells:
                    line += f" {cell:>14.4g}" if cell is not None else f" {'-':>14}"
                    csv_row.append("" if cell is None else format_value(cell))
                base = cells[0]
                for cell in cells[1:]:
                    # positive delta = this run improved on the baseline
                    if base not in (None, 0) and cell is not None:
                        delta = 100.0 * (base - cell) / base
                        line += f" {delta:>+20.1f}"
                        csv_row.append(f"{delta:.4f}")
                    else:
                        line += f" {'-':>20}"
                        csv_row.append("")
                print(line)
                csv_rows.append(csv_row)
    for counter in ("detections", "actions"):
        parts = " ".join(
            f"{os.path.basename(name) or name}={len(rep.get(counter, []))}"
            for name, rep in reports
        )
        print(f"{counter}: {parts}")
    parts = " ".join(
        f"{os.path.basename(name) or name}={rep.get('evictions', 0)}" for name, rep in reports
    )
    print(f"evictions: {parts}")
    if args.csv:
        buf = "\n".join(",".join(str(cell) for cell in row) for row in csv_rows) + "\n"
        _write_text_atomic(args.csv, buf)
        print(f"csv: {args.csv}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ckoord",
        description="Cluster interference control plane simulator and tooling.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a scenario and write report/trace/actions")
    sim.add_argument("--config", help="scenario config JSON (default: built-in scenario)")
    sim.add_argument("--seed", type=int, default=0, help="root RNG seed (default 0)")
    sim.add_argument("--out", default=".", help="output directory (default .)")
    sim.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override a config entry, dotted path (repeatable)",
    )
    sim.set_defaults(func=_cmd_simulate)

    train = sub.add_parser("train", help="fit a CPI model from a trace CSV")
    train.add_argument("--trace", required=True, help="input trace CSV")
    train.add_argument("--app", help="train on this app's rows only (default: whole trace)")
    train.add_argument("--model-out", required=True, help="output model JSON path")
    train.add_argument(
        "--window",
        type=int,
        default=60,
        help="rolling window used for the minimum-rows check, 2 x window (default 60)",
    )
    train.add_argument("--learning-rate", type=float, default=0.1)
    train.add_argument("--rounds", dest="num_rounds", metavar="ROUNDS", type=int, default=100)
    train.add_argument("--max-depth", type=int, default=4)
    train.add_argument("--lam", type=float, default=1.0)
    train.add_argument("--tau", type=float, default=0.0)
    train.add_argument("--min-samples-leaf", type=int, default=2)
    train.add_argument("--base-score", type=float, default=0.0)
    train.add_argument(
        "--split-fraction",
        type=float,
        default=0.8,
        help="chronological train fraction; remainder is the holdout (default 0.8)",
    )
    train.set_defaults(func=_cmd_train)

    predict = sub.add_parser("predict", help="append model predictions to a trace")
    predict.add_argument("--trace", required=True, help="input trace CSV")
    predict.add_argument("--model", required=True, help="model JSON from `ckoord train`")
    predict.add_argument("--out", help="output CSV (default: stdout)")
    predict.set_defaults(func=_cmd_predict)

    replay = sub.add_parser("replay", help="re-run detection offline over a recorded trace")
    replay.add_argument("--trace", required=True, help="trace CSV produced by simulate")
    replay.add_argument(
        "--config",
        help="scenario config the trace was produced with (default: built-in scenario)",
    )
    replay.add_argument("--out", help="directory for replay.json (default: summary only)")
    replay.add_argument(
        "--set", action="append", metavar="KEY=VALUE", help="override a config entry"
    )
    replay.set_defaults(func=_cmd_replay)

    report = sub.add_parser("report", help="tabulate one or more simulate run directories")
    report.add_argument(
        "run_dirs",
        nargs="+",
        metavar="RUN_DIR",
        help="simulate output directories; the first is the delta baseline",
    )
    report.add_argument("--csv", help="also write the comparison table as CSV")
    report.set_defaults(func=_cmd_report)
    return parser


def main(argv: list[str] | None = None) -> int:
    level = os.environ.get("CKOORD_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, TraceFormatError, ModelSchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc.filename or exc}: no such file", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - last resort
        log.exception("unhandled failure")
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
