#!/usr/bin/env python3
"""Smoke test of the benchmark harness: one cycle of every workload.

Usage (from the repository root):

    python3 perfbench/smoke.py

For each workload in BENCHMARK.json it runs ``perfbench/run.py`` with
``--seconds 0 --min-cycles 1``, untraced and traced, and checks the result
line: exactly the four keys, no failed operation, and every end-to-end (or
per-layer) metric present with its declared unit and a finite number.  It
then copies only BENCHMARK.json and perfbench/ into a bare directory and
checks that the harness exits non-zero there without printing a result.
Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BARE = ROOT / ".perfbench" / "bare"


def run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
            "--seconds", "0", "--trace", str(trace), "--min-cycles", "1"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_result(spec: dict, workload: str, trace: int) -> list[str]:
    proc = run(ROOT, workload, trace)
    where = f"{workload} --trace {trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if set(line) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: keys {sorted(line)}")
    if line["correct"] is not True or line["failed"] != 0 or line["attempted"] < 1:
        problems.append(f"{where}: correct={line['correct']} failed={line['failed']}"
                        f" attempted={line['attempted']}")
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    metrics = line["metrics"]
    if set(metrics) != set(declared):
        problems.append(f"{where}: missing {sorted(set(declared) - set(metrics))},"
                        f" undeclared {sorted(set(metrics) - set(declared))}")
    for name, unit in declared.items():
        metric = metrics.get(name)
        if metric is None:
            continue
        value = metric.get("value")
        if metric.get("unit") != unit:
            problems.append(f"{where}: {name} unit {metric.get('unit')!r}, declared {unit!r}")
        if not isinstance(value, (int, float)) or isinstance(value, bool) \
                or not math.isfinite(value):
            problems.append(f"{where}: {name} value {value!r}")
    return problems


def check_bare(spec: dict) -> list[str]:
    shutil.rmtree(BARE, ignore_errors=True)
    BARE.mkdir(parents=True)
    try:
        shutil.copy2(ROOT / "BENCHMARK.json", BARE / "BENCHMARK.json")
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, BARE / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(BARE, spec["workloads"][0]["name"], 0)
    finally:
        shutil.rmtree(BARE, ignore_errors=True)
    if proc.returncode == 0 or '"metrics"' in proc.stdout:
        return [f"bare directory: exit {proc.returncode}, stdout {proc.stdout[-200:]!r}"]
    return []


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = check_bare(spec)
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            found = check_result(spec, workload, trace)
            print(f"{workload} --trace {trace}: {'ok' if not found else 'FAILED'}")
            problems += found
    for problem in problems:
        print(problem)
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
