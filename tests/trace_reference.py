"""csv.writer reference for the trace writer.

This is how traces and ``predict`` output were written before each row got
one format template: every value goes through ``row_to_record`` and one
``csv.writer``, which quotes any field that needs it.  Floats are written
as ``repr`` writes them, the shortest text that reads back as the same
double.  Kept only as an oracle for the template writer.
"""

from __future__ import annotations

import csv
import typing
from typing import Iterable, TextIO

from ckoord.trace import TraceRow


def row_to_record(row) -> list[str]:
    kinds = typing.get_type_hints(type(row))
    return [repr(value) if kinds[name] is float else str(value) for name, value in zip(row._fields, row)]


def reference_write(
    handle: TextIO,
    rows: Iterable[tuple],
    cpi_pred: Iterable[float] | None = None,
    row_type: type = TraceRow,
) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    if cpi_pred is None:
        writer.writerow(row_type._fields)
        for row in rows:
            writer.writerow(row_to_record(row))
    else:
        writer.writerow(list(row_type._fields) + ["cpi_pred"])
        for row, pred in zip(rows, cpi_pred):
            writer.writerow(row_to_record(row) + [repr(float(pred))])
