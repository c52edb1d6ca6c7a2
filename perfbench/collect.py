#!/usr/bin/env python3
"""Repeat benchmark runs over several seeds and summarise their spread.

Usage (from the repository root):

    python3 perfbench/collect.py --workloads closed_loop,offline --seeds 1-10
    python3 perfbench/collect.py --seeds 1-10 --trace-seeds 1 --baseline perfbench/baseline.json

Runs ``perfbench/run.py`` once per (workload, seed), one after another, and
prints for every end-to-end metric the median, the quartiles from
``statistics.quantiles(values, n=4)`` and the spread (q3 - q1) / median,
next to a third of the metric's bound in BENCHMARK.json.  ``--trace-seeds``
adds traced runs.  ``--baseline`` writes every figure to a JSON file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record = json.loads((OUT / f"result-{workload}-s{seed}-t{trace}.json").read_text())
    keys = ("correct", "attempted", "failed", "metrics")
    if json.loads(lines[-1]) != {k: record[k] for k in keys}:
        raise RuntimeError(f"{workload} seed {seed}: result line and record disagree")
    return record


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "values": values,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    parser.add_argument("--trace-seeds", default="", help="seeds for traced runs")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--baseline", help="write all figures to this JSON file")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    figures: dict = {}
    worst = 0.0
    for workload in args.workloads.split(","):
        records = [run_once(workload, s, args.seconds, 0) for s in seed_list(args.seeds)]
        traced = [run_once(workload, s, args.seconds, 1) for s in seed_list(args.trace_seeds)] \
            if args.trace_seeds else []
        entry = {
            "runs": len(records),
            "attempted": sum(r["attempted"] for r in records + traced),
            "failed": sum(r["failed"] for r in records + traced),
            "all_correct": all(r["correct"] for r in records + traced),
            "end_to_end": {},
            "detail": {},
            "per_layer": {},
        }
        print(f"{workload}: {entry['runs']} runs, {entry['attempted']} ops,"
              f" {entry['failed']} failed, all correct: {entry['all_correct']}")
        for name, bound in bounds.items():
            fig = summary([r["metrics"][name]["value"] for r in records])
            fig["unit"] = records[0]["metrics"][name]["unit"]
            entry["end_to_end"][name] = fig
            flag = "" if fig["spread"] < bound / 3 or name == "setup_s" else "  <-- above bound/3"
            if name != "setup_s":
                worst = max(worst, fig["spread"] / bound)
            print(f"  {name:<18} median {fig['median']:<12.6g} q1 {fig['q1']:<12.6g}"
                  f" q3 {fig['q3']:<12.6g} spread {fig['spread']:.4f}"
                  f" (bound/3 {bound / 3:.4f}){flag}")
        for name in records[0]["detail"]:
            values = [r["detail"][name]["value"] for r in records if name in r["detail"]]
            if values and all(isinstance(v, (int, float)) for v in values):
                fig = summary(values)
                fig["unit"] = records[0]["detail"][name]["unit"]
                entry["detail"][name] = fig
                print(f"  detail {name:<30} median {fig['median']:<12.6g} {fig['unit']}")
        for record in traced:
            for name, metric in record["metrics"].items():
                entry["per_layer"].setdefault(name, {"unit": metric["unit"], "values": []})
                entry["per_layer"][name]["values"].append(metric["value"])
        if traced:
            overhead = entry["per_layer"]["tracing.overhead"]["values"]
            print(f"  tracing overhead (traced / untraced op time): {overhead}")
        figures[workload] = entry
    print(f"worst spread as a share of its bound: {worst:.3f}")
    if args.baseline:
        env = records[0]["env"]
        Path(args.baseline).write_text(
            json.dumps({"env": env, "seeds": args.seeds, "seconds": args.seconds,
                        "workloads": figures}, indent=1, sort_keys=True) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
