"""csv.writer reference for the trace writer.

This is how traces and ``predict`` output were written before each row got
one format template: every value goes through ``row_to_record`` and one
``csv.writer``, which quotes any field that needs it.  Kept only as an
oracle for the template writer.
"""

from __future__ import annotations

import csv
import typing
from typing import Iterable, TextIO

from ckoord.trace import TRACE_COLUMNS, TraceRow

_FLOAT_FIELDS = tuple(
    name for name, kind in typing.get_type_hints(TraceRow).items() if kind is float
)


def format_value(value: float) -> str:
    return f"{value:.9g}"


def row_to_record(row: TraceRow) -> list[str]:
    record = []
    for name in TRACE_COLUMNS:
        value = getattr(row, name)
        record.append(format_value(value) if name in _FLOAT_FIELDS else str(value))
    return record


def reference_write(
    handle: TextIO, rows: Iterable[TraceRow], cpi_pred: Iterable[float] | None = None
) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    if cpi_pred is None:
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow(row_to_record(row))
    else:
        writer.writerow(list(TRACE_COLUMNS) + ["cpi_pred"])
        for row, pred in zip(rows, cpi_pred):
            writer.writerow(row_to_record(row) + [format_value(float(pred))])
