"""The loop's observations as CSV: one row per pod and one per node per interval.

A run writes ``trace.csv``, one TraceRow per pod per interval, and beside it
``nodes.csv``, one NodeRow per node per interval, empty nodes included.  The
control loop observes these rows, live and in replay, so a recording holds
every input the loop read.  Each file's columns are its row type's fields,
in a frozen order.  pod_cpu_util and pod_mem_util are request-normalized
ratios clamped to [0, 2]; pod_cpu_cores is the pod's unclamped use in cores;
node_* and sys_* are fractions in [0, 1].  Floats are written with ``%r``,
the shortest text that reads back as the same double, so reading loses
nothing and write -> read -> write is byte-stable.
A pod row's seven node_* and sys_* columns are its node's and the
system's: the simulator hands every row on a node the same float objects,
so the writer formats them once per node and reuses that text for as long
as the next row holds the *identical* objects.  It keys on identity, not
equality, because 0.0 == -0.0 but they print differently.
Ids (node_id, pod_id, app_id) are written unquoted, so none may contain a
character that CSV would quote: a comma, a double quote, CR or LF.  The
scenario validator, the reader and the writer each reject such an id.
"""

from __future__ import annotations

import csv
import math
import os
import re
import sys
import tempfile
from contextlib import contextmanager
from operator import attrgetter, is_
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple, TextIO

import numpy as np

from .cluster import QosClass
from .gbdt import FEATURE_NAMES

QOS_VALUES = tuple(q.value for q in QosClass)


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
    pod_cpu_cores: float


class NodeRow(NamedTuple):
    """One node in one interval; every node has one every interval."""

    interval: int
    node_id: str
    node_cpu_total: float
    node_cpu_offline: float
    node_cpu_online: float
    node_cpu_shared: float
    node_mem_util: float


RATIO_MAX = 2.0  # request-normalized pod ratios saturate here
_MAX = sys.float_info.max
# The least and the largest value of each float column; [0, _MAX] if not here.
_BOUNDS = {
    **dict.fromkeys(("pod_cpu_util", "pod_mem_util"), (0.0, RATIO_MAX)),
    **dict.fromkeys((*NodeRow._fields[2:], "sys_cpu_total", "sys_mem_total"), (0.0, 1.0)),
    "cpi": (math.ulp(0.0), _MAX),  # positive
}


class _Layout(NamedTuple):
    """How one row type is written and read."""

    row_type: type
    header: str
    key: str           # the id that may not repeat within an interval
    first_float: int   # columns 1 .. first_float-1 are ids, written raw
    shared: slice      # columns consecutive rows may share, formatted once
    head: str          # templates of the columns before, in and after
    span: str          # ``shared``: together, what csv.writer writes
    tail: str
    low: tuple         # per float column, its _BOUNDS
    high: tuple


def _layout(row_type: type, key: str, ids: int, shared: slice) -> _Layout:
    fields = row_type._fields
    cells = ["%d", *["%s"] * ids, *["%r"] * (len(fields) - 1 - ids)]
    head, span, tail = (
        "".join(cell + "," for cell in cells[part]) for part in
        (slice(shared.start), shared, slice(shared.stop, None))
    )
    low, high = zip(*(_BOUNDS.get(name, (0.0, _MAX)) for name in fields[1 + ids :]))
    return _Layout(
        row_type, ",".join(fields), key, 1 + ids, shared, head, span, tail[:-1] + "\n", low, high
    )


_TRACE = _layout(TraceRow, "pod_id", 4, slice(7, 14))  # node_cpu_total .. sys_mem_total
_NODES = _layout(NodeRow, "node_id", 1, slice(2, 2))   # nothing shared
TRACE_COLUMNS = TraceRow._fields
TRACE_HEADER = _TRACE.header
_ID_FORBIDDEN = (",", '"', "\r", "\n")  # what csv would quote
# int() and float() also read 1_0, " 0.8" and non-ASCII digits; a trace may not.
_NOT_PLAIN = re.compile(r"[^!-~]|_")
# Model inputs are read by name, so the slot order lives in FEATURE_NAMES only.
_features_of = attrgetter(*FEATURE_NAMES)


def format_value(value: float) -> str:
    return f"{value:.9g}"


def id_fault(name: str, value: str) -> str | None:
    """Why ``value`` cannot be the id ``name`` in a trace, or None if it can."""
    for char in _ID_FORBIDDEN:
        if char in value:
            return f"{name} {value!r} contains {char!r}, which a trace cannot hold unquoted"
    return None


def _check_text(names: tuple[str, ...], values: tuple[str, ...], checked: set) -> None:
    """ValueError unless each id (and qos) needs no quoting.

    ``checked`` remembers the tuples already found clean, so each distinct
    one is checked once.
    """
    if values not in checked:
        for name, value in zip(names, values):
            fault = id_fault(name, value)
            if fault is not None:
                raise ValueError(fault)
        checked.add(values)


def _validate_row(row: tuple, line: int, layout: _Layout) -> None:
    values = row[layout.first_float :]
    names = row._fields[layout.first_float :]
    for name, v in zip(names, values):
        if not math.isfinite(v):
            raise TraceFormatError(f"line {line}: {name}={v} is not finite")
    if row.interval < 0:
        raise TraceFormatError(f"line {line}: negative interval {row.interval}")
    if isinstance(row, TraceRow) and row.qos not in QOS_VALUES:
        raise TraceFormatError(f"line {line}: unknown qos {row.qos!r}")
    for name, v, low, high in zip(names, values, layout.low, layout.high):
        if not low <= v <= high:
            if name == "cpi":
                raise TraceFormatError(f"line {line}: cpi must be positive, got {v}")
            if high == _MAX:
                raise TraceFormatError(f"line {line}: negative {name}")
            raise TraceFormatError(f"line {line}: {name}={v} outside [0, {high:g}]")


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


def _write(handle: TextIO, records: Iterable[tuple], layout: _Layout, header: str) -> None:
    """The header, then one templated line per record; ValueError for an id
    or qos that csv would quote.

    The text of the shared span is kept while the next record holds the
    identical objects there (``is``, not ``==``: 0.0 == -0.0).
    """
    write = handle.write
    head, span, tail = layout.head, layout.span, layout.tail
    names = layout.row_type._fields[1 : layout.first_float]
    ids = slice(1, layout.first_float)
    shared = layout.shared
    before, after = slice(shared.start), slice(shared.stop, None)
    write(header + "\n")
    checked: set[tuple] = set()
    held: tuple = (object(),) * (shared.stop - shared.start)  # matches no record
    text = ""
    for values in records:
        _check_text(names, values[ids], checked)
        objects = values[shared]
        if not all(map(is_, objects, held)):
            held, text = objects, span % objects
        write(head % values[before] + text + tail % values[after])


def write_rows(
    handle: TextIO, rows: Iterable[TraceRow], cpi_pred: Iterable[float] | None = None
) -> None:
    """The header and one line per pod row; ``cpi_pred`` adds a last column.
    ValueError for an id or qos that csv would quote."""
    if cpi_pred is None:
        _write(handle, rows, _TRACE, TRACE_HEADER)
    else:
        layout = _TRACE._replace(tail=_TRACE.tail[:-1] + ",%r\n")
        records = (row + (pred,) for row, pred in zip(rows, cpi_pred))
        _write(handle, records, layout, TRACE_HEADER + ",cpi_pred")


def write_trace(path: str | Path, rows: Iterable[TraceRow]) -> None:
    """Write pod rows atomically, one formatted line at a time."""
    with atomic_open(path) as fh:
        _write(fh, rows, _TRACE, _TRACE.header)


def write_nodes(path: str | Path, rows: Iterable[NodeRow]) -> None:
    """Write node rows atomically, one formatted line at a time."""
    with atomic_open(path) as fh:
        _write(fh, rows, _NODES, _NODES.header)


def _read(path: str | Path, layout: _Layout) -> list:
    """The checked rows of a file; TraceFormatError names the first bad line."""
    fields = layout.row_type._fields
    first = layout.first_float
    names = fields[1:first]
    key = fields.index(layout.key)
    noun = layout.key.removesuffix("_id")
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise TraceFormatError("line 1: empty trace file")
        if tuple(header) != fields:
            raise TraceFormatError(
                f"line 1: bad header; expected {layout.header!r}, got {','.join(header)!r}"
            )
        previous_interval = None
        interval_keys: set[str] = set()  # keys seen in previous_interval
        clean_text: set[tuple[str, ...]] = set()
        for line, record in enumerate(reader, start=2):
            if len(record) != len(fields):
                raise TraceFormatError(
                    f"line {line}: expected {len(fields)} fields, got {len(record)}"
                )
            if _NOT_PLAIN.search(record[0] + "".join(record[first:])):
                numeric = (0, *range(first, len(fields)))
                bad = next(i for i in numeric if _NOT_PLAIN.search(record[i]))
                raise TraceFormatError(
                    f"line {line}: {fields[bad]}={record[bad]!r} is not a plain number"
                )
            text = tuple(record[1:first])
            try:
                _check_text(names, text, clean_text)
                row = layout.row_type(int(record[0]), *text, *map(float, record[first:]))
            except ValueError as exc:
                raise TraceFormatError(f"line {line}: {exc}") from exc
            _validate_row(row, line, layout)
            if previous_interval is not None and row.interval < previous_interval:
                raise TraceFormatError(f"line {line}: interval {row.interval} goes backwards")
            if row.interval != previous_interval:
                previous_interval = row.interval
                interval_keys.clear()
            if row[key] in interval_keys:
                raise TraceFormatError(
                    f"line {line}: {noun} {row[key]} repeats in interval {row.interval}"
                )
            interval_keys.add(row[key])
            rows.append(row)
    return rows


def read_trace(path: str | Path) -> list[TraceRow]:
    return _read(path, _TRACE)


def read_nodes(path: str | Path) -> list[NodeRow]:
    return _read(path, _NODES)


def rows_by_interval(rows: list) -> list[tuple[int, list]]:
    """Group consecutive rows by interval, preserving order."""
    grouped: list[tuple[int, list]] = []
    for row in rows:
        if grouped and grouped[-1][0] == row.interval:
            grouped[-1][1].append(row)
        else:
            grouped.append((row.interval, [row]))
    return grouped


def feature_matrix(rows: list[TraceRow]):
    """Feature rows (FEATURE_NAMES slot order) and CPI targets from trace rows."""
    X = np.array([_features_of(r) for r in rows], dtype=np.float64)
    y = np.array([r.cpi for r in rows], dtype=np.float64)
    return X, y
