"""Per-interval, per-pod metric traces as CSV.

The column order is TraceRow's field order and is frozen; downstream
tooling indexes it positionally.
pod_cpu_util and pod_mem_util hold request-normalized ratios clamped to
[0, 2] (the trace carries no request sizes, so the normalized form is the
only self-contained one); node_* and sys_* columns are fractions in [0, 1].
Floats are written with 9 significant digits, which makes write -> read ->
write byte-stable.
"""

from __future__ import annotations

import csv
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, TextIO

import numpy as np

from .cluster import QosClass
from .gbdt import FEATURE_NAMES

QOS_VALUES = tuple(q.value for q in QosClass)

RATIO_MAX = 2.0  # request-normalized pod ratios saturate here
_RATIO_COLUMNS = ("pod_cpu_util", "pod_mem_util")  # clamped [0, RATIO_MAX]
_FRACTION_COLUMNS = (
    "node_cpu_total",
    "node_cpu_offline",
    "node_cpu_online",
    "node_cpu_shared",
    "node_mem_util",
    "sys_cpu_total",
    "sys_mem_total",
)


class TraceFormatError(ValueError):
    """Trace file violates the documented schema; message carries the line."""


@dataclass(frozen=True)
class TraceRow:
    interval: int
    node_id: str
    pod_id: str
    app_id: str
    qos: str
    pod_cpu_util: float
    pod_mem_util: float
    node_cpu_total: float
    node_cpu_offline: float
    node_cpu_online: float
    node_cpu_shared: float
    node_mem_util: float
    sys_cpu_total: float
    sys_mem_total: float
    l3_miss_rate: float
    cpi: float


TRACE_COLUMNS = tuple(f.name for f in fields(TraceRow))
TRACE_HEADER = ",".join(TRACE_COLUMNS)
_FLOAT_FIELDS = tuple(f.name for f in fields(TraceRow) if f.type == "float")
# Model inputs are read by name, so the slot order lives in FEATURE_NAMES only.
_features_of = attrgetter(*FEATURE_NAMES)


def format_value(value: float) -> str:
    return f"{value:.9g}"


def _validate_row(row: TraceRow, line: int) -> None:
    for name in _FLOAT_FIELDS:
        v = getattr(row, name)
        if not math.isfinite(v):
            raise TraceFormatError(f"line {line}: {name}={v} is not finite")
    if row.interval < 0:
        raise TraceFormatError(f"line {line}: negative interval {row.interval}")
    if row.qos not in QOS_VALUES:
        raise TraceFormatError(f"line {line}: unknown qos {row.qos!r}")
    if row.cpi <= 0:
        raise TraceFormatError(f"line {line}: cpi must be positive, got {row.cpi}")
    if row.l3_miss_rate < 0:
        raise TraceFormatError(f"line {line}: negative l3_miss_rate")
    for name in _RATIO_COLUMNS:
        v = getattr(row, name)
        if not 0.0 <= v <= RATIO_MAX:
            raise TraceFormatError(f"line {line}: {name}={v} outside [0, {RATIO_MAX:g}]")
    for name in _FRACTION_COLUMNS:
        v = getattr(row, name)
        if not 0.0 <= v <= 1.0:
            raise TraceFormatError(f"line {line}: {name}={v} outside [0, 1]")


def row_to_record(row: TraceRow) -> list[str]:
    record = []
    for f in fields(TraceRow):
        value = getattr(row, f.name)
        record.append(format_value(value) if f.name in _FLOAT_FIELDS else str(value))
    return record


@contextmanager
def atomic_open(path: str | Path) -> Iterator[TextIO]:
    """Text handle on a temp file beside ``path``, renamed over it on success.

    Readers never see a half-written file, and a failed write leaves no temp
    file behind.
    """
    path = Path(path)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as handle:
            yield handle
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def write_trace(path: str | Path, rows: Iterable[TraceRow]) -> None:
    """Write rows atomically, streaming them through one csv writer."""
    with atomic_open(path) as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow(row_to_record(row))


def read_trace(path: str | Path) -> list[TraceRow]:
    rows: list[TraceRow] = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TraceFormatError("line 1: empty trace file") from None
        if tuple(header) != TRACE_COLUMNS:
            raise TraceFormatError(
                f"line 1: bad header; expected {TRACE_HEADER!r}, got {','.join(header)!r}"
            )
        previous_interval = None
        interval_pods: set[str] = set()  # pod ids seen in previous_interval
        for line, record in enumerate(reader, start=2):
            if len(record) != len(TRACE_COLUMNS):
                raise TraceFormatError(
                    f"line {line}: expected {len(TRACE_COLUMNS)} fields, got {len(record)}"
                )
            named = dict(zip(TRACE_COLUMNS, record))
            try:
                row = TraceRow(
                    interval=int(named["interval"]),
                    node_id=named["node_id"],
                    pod_id=named["pod_id"],
                    app_id=named["app_id"],
                    qos=named["qos"],
                    **{name: float(named[name]) for name in _FLOAT_FIELDS},
                )
            except ValueError as exc:
                raise TraceFormatError(f"line {line}: {exc}") from exc
            _validate_row(row, line)
            if previous_interval is not None and row.interval < previous_interval:
                raise TraceFormatError(
                    f"line {line}: interval {row.interval} goes backwards"
                )
            if row.interval != previous_interval:
                previous_interval = row.interval
                interval_pods.clear()
            if row.pod_id in interval_pods:
                raise TraceFormatError(
                    f"line {line}: pod {row.pod_id} repeats in interval {row.interval}"
                )
            interval_pods.add(row.pod_id)
            rows.append(row)
    return rows


def rows_by_interval(rows: list[TraceRow]) -> list[tuple[int, list[TraceRow]]]:
    """Group consecutive rows by interval, preserving order."""
    grouped: list[tuple[int, list[TraceRow]]] = []
    for row in rows:
        if grouped and grouped[-1][0] == row.interval:
            grouped[-1][1].append(row)
        else:
            grouped.append((row.interval, [row]))
    return grouped


def row_features(row: TraceRow) -> np.ndarray:
    """The model input of one row, in the FEATURE_NAMES slot order."""
    return np.array(_features_of(row), dtype=np.float64)


def feature_matrix(rows: list[TraceRow]):
    """Feature rows (FEATURE_NAMES slot order) and CPI targets from trace rows."""
    X = np.array([_features_of(r) for r in rows], dtype=np.float64)
    y = np.array([r.cpi for r in rows], dtype=np.float64)
    return X, y
