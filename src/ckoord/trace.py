"""Per-interval, per-pod metric traces as CSV.

The column order is TraceRow's field order and is frozen; downstream
tooling indexes it positionally.
pod_cpu_util and pod_mem_util hold request-normalized ratios clamped to
[0, 2] (the trace carries no request sizes, so the normalized form is the
only self-contained one); node_* and sys_* columns are fractions in [0, 1].
Floats are written with 9 significant digits, which makes write -> read ->
write byte-stable.
Ids (node_id, pod_id, app_id) are written unquoted, so none may contain a
character that CSV would quote: a comma, a double quote, CR or LF.  The
scenario validator, the reader and the writer each reject such an id.
"""

from __future__ import annotations

import csv
import math
import os
import re
import tempfile
from contextlib import contextmanager
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

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


class TraceRow(NamedTuple):
    """One pod in one interval; a tuple in column order, so it formats as one."""

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


TRACE_COLUMNS = TraceRow._fields
TRACE_HEADER = ",".join(TRACE_COLUMNS)
_FLOAT_FIELDS = TRACE_COLUMNS[5:]  # every column after qos
_TEXT_COLUMNS = TRACE_COLUMNS[1:5]  # node_id, pod_id, app_id, qos: written raw
_ID_FORBIDDEN = (",", '"', "\r", "\n")  # what csv would quote
# int() and float() also read 1_0, " 0.8" and non-ASCII digits; a trace may not.
_NOT_PLAIN = re.compile(r"[^!-~]|_")
# Model inputs are read by name, so the slot order lives in FEATURE_NAMES only.
_features_of = attrgetter(*FEATURE_NAMES)
# One line per row: what csv.writer writes for a row whose strings need no
# quoting, with each float at 9 significant digits.
_ROW_TEMPLATE = "%d,%s,%s,%s,%s," + ",".join(["%.9g"] * len(_FLOAT_FIELDS)) + "\n"


def format_value(value: float) -> str:
    return f"{value:.9g}"


def id_fault(name: str, value: str) -> str | None:
    """Why ``value`` cannot be the id ``name`` in a trace, or None if it can."""
    for char in _ID_FORBIDDEN:
        if char in value:
            return f"{name} {value!r} contains {char!r}, which a trace cannot hold unquoted"
    return None


def _check_text(values: tuple[str, ...], checked: set[tuple[str, ...]]) -> None:
    """ValueError unless each of node_id, pod_id, app_id, qos needs no quoting.

    ``checked`` remembers the tuples already found clean, so each distinct
    one is checked once.
    """
    if values not in checked:
        for name, value in zip(_TEXT_COLUMNS, values):
            fault = id_fault(name, value)
            if fault is not None:
                raise ValueError(fault)
        checked.add(values)


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


def write_rows(
    handle: TextIO, rows: Iterable[TraceRow], cpi_pred: Iterable[float] | None = None
) -> None:
    """Write the header and one line per row; ``cpi_pred`` adds a last column.

    Raises ValueError for an id or qos that csv would quote.
    """
    write = handle.write
    template = _ROW_TEMPLATE
    records: Iterable[tuple] = rows
    if cpi_pred is None:
        write(TRACE_HEADER + "\n")
    else:
        write(TRACE_HEADER + ",cpi_pred\n")
        template = template[:-1] + ",%.9g\n"
        records = (row + (pred,) for row, pred in zip(rows, cpi_pred))
    checked: set[tuple] = set()
    for values in records:
        _check_text(values[1:5], checked)
        write(template % values)


def write_trace(path: str | Path, rows: Iterable[TraceRow]) -> None:
    """Write rows atomically, one formatted line at a time."""
    with atomic_open(path) as fh:
        write_rows(fh, rows)


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
        clean_text: set[tuple[str, ...]] = set()
        for line, record in enumerate(reader, start=2):
            if len(record) != len(TRACE_COLUMNS):
                raise TraceFormatError(
                    f"line {line}: expected {len(TRACE_COLUMNS)} fields, got {len(record)}"
                )
            if _NOT_PLAIN.search(record[0] + "".join(record[5:])):
                bad = next(i for i in (0, *range(5, len(record))) if _NOT_PLAIN.search(record[i]))
                raise TraceFormatError(
                    f"line {line}: {TRACE_COLUMNS[bad]}={record[bad]!r} is not a plain number"
                )
            text = tuple(record[1:5])
            try:
                _check_text(text, clean_text)
                row = TraceRow(int(record[0]), *text, *map(float, record[5:]))
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
