import io
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ckoord.trace import (
    TRACE_COLUMNS,
    TRACE_HEADER,
    NodeRow,
    TraceFormatError,
    TraceRow,
    feature_matrix,
    format_value,
    read_nodes,
    read_trace,
    rows_by_interval,
    write_nodes,
    write_rows,
    write_trace,
)
from helpers import OLD_TRACE
from trace_reference import reference_write


def make_row(interval=0, pod_id="web-0", cpi=1.25, **over):
    base = dict(
        interval=interval,
        node_id="node-00",
        pod_id=pod_id,
        app_id="web",
        qos="LS",
        pod_cpu_util=0.8,
        pod_mem_util=0.5,
        node_cpu_total=0.6,
        node_cpu_offline=0.2,
        node_cpu_online=0.4,
        node_cpu_shared=0.3,
        node_mem_util=0.5,
        sys_cpu_total=0.55,
        sys_mem_total=0.45,
        l3_miss_rate=2.5e6,
        cpi=cpi,
        pod_cpu_cores=3.5,
    )
    base.update(over)
    return TraceRow(**base)


def test_header_is_frozen():
    assert TRACE_HEADER == (
        "interval,node_id,pod_id,app_id,qos,pod_cpu_util,pod_mem_util,"
        "node_cpu_total,node_cpu_offline,node_cpu_online,node_cpu_shared,"
        "node_mem_util,sys_cpu_total,sys_mem_total,l3_miss_rate,cpi,pod_cpu_cores"
    )
    assert len(TRACE_COLUMNS) == 17
    assert ",".join(NodeRow._fields) == (
        "interval,node_id,node_cpu_total,node_cpu_offline,node_cpu_online,"
        "node_cpu_shared,node_mem_util"
    )


def test_read_rejects_a_trace_without_pod_cpu_cores(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text(OLD_TRACE)
    with pytest.raises(TraceFormatError, match="^line 1: bad header; expected"):
        read_trace(path)


def test_write_read_write_is_byte_stable(tmp_path):
    rows = [
        make_row(0, "web-0", cpi=1.0 / 3.0),
        make_row(0, "web-1", cpi=0.123456789123),
        make_row(1, "web-0", l3_miss_rate=1.23e7),
    ]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_trace(first, rows)
    write_trace(second, read_trace(first))
    assert first.read_bytes() == second.read_bytes()
    assert first.read_text().splitlines()[0] == TRACE_HEADER


def test_format_value_nine_significant_digits():
    assert format_value(1.0 / 3.0) == "0.333333333"
    assert format_value(1.0) == "1"
    assert format_value(2.5e6) == "2500000"


def test_read_rejects_empty_file(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(TraceFormatError, match="line 1"):
        read_trace(path)


def test_read_rejects_wrong_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("interval,stuff\n")
    with pytest.raises(TraceFormatError, match="line 1.*expected"):
        read_trace(path)


def body_line(**over):
    return ",".join(repr(v) if isinstance(v, float) else str(v) for v in make_row(**over))


def write_body(tmp_path, *lines):
    path = tmp_path / "t.csv"
    path.write_text(TRACE_HEADER + "\n" + "\n".join(lines) + "\n")
    return path


def test_read_rejects_short_record(tmp_path):
    path = write_body(tmp_path, "0,node-00,web-0")
    with pytest.raises(TraceFormatError, match="line 2.*fields"):
        read_trace(path)


def test_read_rejects_unparsable_number(tmp_path):
    good = body_line()
    bad = good.replace("1.25", "not-a-number")
    path = write_body(tmp_path, bad)
    with pytest.raises(TraceFormatError, match="line 2"):
        read_trace(path)


def test_read_rejects_unknown_qos(tmp_path):
    path = write_body(tmp_path, body_line().replace(",LS,", ",GOLD,"))
    with pytest.raises(TraceFormatError, match="line 2.*qos"):
        read_trace(path)


def test_read_rejects_non_positive_cpi(tmp_path):
    path = write_body(tmp_path, body_line(cpi=1.25).replace("1.25", "0"))
    with pytest.raises(TraceFormatError, match="line 2.*cpi"):
        read_trace(path)


def test_read_rejects_ratio_out_of_range(tmp_path):
    path = write_body(tmp_path, body_line(pod_cpu_util=0.8).replace("0.8", "2.5"))
    with pytest.raises(TraceFormatError, match="line 2.*pod_cpu_util"):
        read_trace(path)


def test_read_rejects_fraction_out_of_range(tmp_path):
    line = body_line(node_mem_util=0.5, pod_mem_util=0.31)
    path = write_body(tmp_path, line.replace("0.5", "1.5"))
    with pytest.raises(TraceFormatError, match="line 2"):
        read_trace(path)


def test_read_rejects_backwards_intervals(tmp_path):
    path = write_body(tmp_path, body_line(interval=3), body_line(interval=2))
    with pytest.raises(TraceFormatError, match="line 3.*backwards"):
        read_trace(path)


FLOAT_COLUMNS = TRACE_COLUMNS[5:]


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("column", FLOAT_COLUMNS)
def test_read_rejects_non_finite_values(tmp_path, column, value):
    # nan passes every range check (nan < 0 is false), so finiteness is a
    # check of its own, made for every float column
    record = body_line().split(",")
    record[TRACE_COLUMNS.index(column)] = value
    path = write_body(tmp_path, body_line(pod_id="web-1"), ",".join(record))
    with pytest.raises(TraceFormatError, match=f"^line 3: {column}=.* is not finite"):
        read_trace(path)


# int() and float() read each of these; the writer never writes them.
@pytest.mark.parametrize(
    "column, text",
    [
        ("interval", "0_0"),
        ("interval", " 0"),
        ("pod_cpu_util", " 0.64"),
        ("l3_miss_rate", "2_500_000"),
        ("cpi", "1.25 "),
        ("node_mem_util", "0.5\t"),
        ("sys_cpu_total", "\u00a00.55"),  # no-break space
        ("cpi", "\uff11"),  # fullwidth digit one
    ],
)
def test_read_rejects_python_only_number_spellings(tmp_path, column, text):
    record = body_line().split(",")
    record[TRACE_COLUMNS.index(column)] = text
    path = write_body(tmp_path, body_line(pod_id="web-1"), ",".join(record))
    with pytest.raises(TraceFormatError) as caught:
        read_trace(path)
    assert str(caught.value) == f"line 3: {column}={text!r} is not a plain number"


def test_read_keeps_spaces_and_underscores_in_ids(tmp_path):
    path = write_body(tmp_path, body_line(pod_id="web_0 a", app_id="web app"))
    (row,) = read_trace(path)
    assert (row.pod_id, row.app_id) == ("web_0 a", "web app")


def test_read_rejects_repeated_pod_row(tmp_path):
    path = write_body(
        tmp_path,
        body_line(interval=0, pod_id="web-0"),
        body_line(interval=0, pod_id="web-1"),
        body_line(interval=0, pod_id="web-0", cpi=1.5),
    )
    with pytest.raises(TraceFormatError, match="^line 4: pod web-0 repeats in interval 0"):
        read_trace(path)


def test_error_names_the_failing_line(tmp_path):
    path = write_body(tmp_path, body_line(interval=0), body_line(interval=0, cpi=-1.0))
    with pytest.raises(TraceFormatError, match="^line 3"):
        read_trace(path)


def test_rows_by_interval_groups_consecutively():
    rows = [make_row(0, "a"), make_row(0, "b"), make_row(2, "a"), make_row(2, "b")]
    grouped = rows_by_interval(rows)
    assert [iv for iv, _ in grouped] == [0, 2]
    assert [len(group) for _, group in grouped] == [2, 2]
    assert grouped[0][1][0].pod_id == "a"


def test_feature_matrix_column_order():
    row = make_row(
        pod_cpu_util=0.1,
        pod_mem_util=0.2,
        node_cpu_total=0.3,
        node_cpu_offline=0.4,
        node_cpu_online=0.6,
        node_cpu_shared=0.5,
        sys_cpu_total=0.8,
        sys_mem_total=0.9,
        l3_miss_rate=7.0,
        cpi=1.5,
    )
    X, y = feature_matrix([row])
    assert X.shape == (1, 9)
    assert X[0] == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 7.0, 0.8, 0.9])
    assert y == pytest.approx([1.5])
    assert X.dtype == np.float64


def test_write_is_atomic_no_temp_left_behind(tmp_path):
    target = tmp_path / "out.csv"
    write_trace(target, [make_row()])
    assert sorted(p.name for p in tmp_path.iterdir()) == ["out.csv"]


QUOTED_CHARS = [",", '"', "\r", "\n"]
ID_COLUMNS = ["node_id", "pod_id", "app_id"]


@pytest.mark.parametrize("char", QUOTED_CHARS)
@pytest.mark.parametrize("column", ID_COLUMNS)
def test_read_rejects_ids_csv_would_quote(tmp_path, column, char):
    # csv.reader unquotes the field, so the id arrives holding the character
    record = body_line().split(",")
    bad = f"web{char}0"
    record[TRACE_COLUMNS.index(column)] = '"' + bad.replace('"', '""') + '"'
    path = write_body(tmp_path, body_line(pod_id="web-1"), ",".join(record))
    with pytest.raises(TraceFormatError, match=re.escape(f"line 3: {column} {bad!r} contains")):
        read_trace(path)


@pytest.mark.parametrize("char", QUOTED_CHARS)
@pytest.mark.parametrize("column", ID_COLUMNS + ["qos"])
def test_write_rejects_text_csv_would_quote(tmp_path, column, char):
    target = tmp_path / "out.csv"
    bad = f"x{char}y"
    rows = [make_row(0), make_row(1, **{column: bad})]
    with pytest.raises(ValueError, match=re.escape(f"{column} {bad!r} contains")):
        write_trace(target, rows)
    assert list(tmp_path.iterdir()) == []  # neither the file nor a temp file


# Floats where "%.9g" is easiest to get wrong: signed zero, subnormals, the
# ends of the range, integers stored as floats, and 9-digit rounding ties.
EDGE_FLOATS = [
    0.0,
    -0.0,
    5e-324,
    -5e-324,
    2.225073858507201e-308,
    2.2250738585072014e-308,
    1e-300,
    -1e300,
    1.7976931348623157e308,
    1.0,
    -3.0,
    2.0**53,
    123456789.0,
    1234567890.0,
    999999999.5,
    0.1234567885,
    9.999999995,
    99999.99995,
    1e-5,
    math.inf,
    -math.inf,
    math.nan,
]


def _near_nine_digit_tie(mantissa: int, exponent: int, step: int) -> float:
    """A 10-digit value ending in 5, or one of its two neighbouring doubles."""
    tie = float(f"{mantissa}5e{exponent}")
    return tie if step == 0 else math.nextafter(tie, step * math.inf)


FLOATS = st.one_of(
    st.floats(),
    st.sampled_from(EDGE_FLOATS),
    st.integers(-(2**60), 2**60).map(float),
    st.builds(
        _near_nine_digit_tie,
        st.integers(10**8, 10**9 - 1),
        st.integers(-330, 298),
        st.sampled_from([-1, 0, 1]),
    ),
)
IDS = st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters=QUOTED_CHARS))
ROWS = st.builds(
    TraceRow,
    st.integers(0, 2**70),
    IDS,
    IDS,
    IDS,
    st.one_of(st.sampled_from(["BE", "LS", "LSR", "SYSTEM"]), IDS),
    *[FLOATS] * (len(TRACE_COLUMNS) - 5),
)


@settings(max_examples=300, deadline=None)
@given(rows=st.lists(ROWS, max_size=8), preds=st.lists(FLOATS, min_size=8, max_size=8))
def test_template_writer_matches_csv_writer_reference(rows, preds):
    with tempfile.TemporaryDirectory() as tmp:
        ours, theirs = Path(tmp, "ours.csv"), Path(tmp, "theirs.csv")
        write_trace(ours, rows)
        with open(theirs, "w", encoding="utf-8", newline="") as handle:
            reference_write(handle, rows)
        assert ours.read_bytes() == theirs.read_bytes()
    ours_text, theirs_text = io.StringIO(), io.StringIO()
    write_rows(ours_text, rows, preds)
    reference_write(theirs_text, rows, preds)
    assert ours_text.getvalue() == theirs_text.getvalue()


# Shortest-repr spellings the writer emits: exponents both ways, signed zero,
# the ends of the range.  "e-05" and "e+16" hold "-" and "+", which the
# reader's plain-number rule must accept.
REPR_FORMS = [0.0, -0.0, 1e-05, 1.5e-07, 5e-324, 0.1, 1.0, 2.0, 1e16, 1.7976931348623157e308]


def in_range(low, high=None, exclude_min=False):
    """Finite floats in [low, high], or (low, high] with ``exclude_min``."""
    forms = [
        v for v in REPR_FORMS
        if (v > low if exclude_min else v >= low) and (high is None or v <= high)
    ]
    drawn = st.floats(low, high, exclude_min=exclude_min, allow_nan=False, allow_infinity=False)
    return st.one_of(drawn, st.sampled_from(forms))


TRACE_FLOATS = {
    "pod_cpu_util": in_range(0.0, 2.0),
    "pod_mem_util": in_range(0.0, 2.0),
    "l3_miss_rate": in_range(0.0),
    "cpi": in_range(0.0, exclude_min=True),
    "pod_cpu_cores": in_range(0.0),
}
VALID_TRACE_ROWS = st.builds(
    TraceRow,
    interval=st.integers(0, 2**70),
    node_id=IDS,
    pod_id=IDS,
    app_id=IDS,
    qos=st.sampled_from(["BE", "LS", "LSR", "SYSTEM"]),
    **{name: TRACE_FLOATS.get(name, in_range(0.0, 1.0)) for name in TRACE_COLUMNS[5:]},
)
VALID_NODE_ROWS = st.builds(
    NodeRow,
    interval=st.integers(0, 2**70),
    node_id=IDS,
    **{name: in_range(0.0, 1.0) for name in NodeRow._fields[2:]},
)


def in_file_order(rows, key):
    """Intervals non-decreasing, each key once per interval."""
    unique = {(row.interval, getattr(row, key)): row for row in rows}
    return [unique[k] for k in sorted(unique, key=lambda k: k[0])]


@settings(max_examples=150, deadline=None)
@given(
    trace_rows=st.lists(VALID_TRACE_ROWS, max_size=8),
    node_rows=st.lists(VALID_NODE_ROWS, max_size=8),
)
def test_write_read_write_is_byte_stable_for_both_files(trace_rows, node_rows):
    """Every float reads back as the same double, so the second write gives
    the first one's bytes, and the template writer gives the oracle's."""
    trace_rows = in_file_order(trace_rows, "pod_id")
    node_rows = in_file_order(node_rows, "node_id")
    with tempfile.TemporaryDirectory() as tmp:
        for rows, write, read, row_type in (
            (trace_rows, write_trace, read_trace, TraceRow),
            (node_rows, write_nodes, read_nodes, NodeRow),
        ):
            first, second = Path(tmp, "first.csv"), Path(tmp, "second.csv")
            write(first, rows)
            back = read(first)
            assert [tuple(map(repr, row)) for row in back] == [tuple(map(repr, row)) for row in rows]
            write(second, back)
            assert first.read_bytes() == second.read_bytes()
            oracle = io.StringIO()
            reference_write(oracle, rows, row_type=row_type)
            assert first.read_text(encoding="utf-8") == oracle.getvalue()


SHARED = TRACE_COLUMNS[7:14]  # node_cpu_total .. sys_mem_total: one node's values


def rows_sharing(groups):
    """Pod rows whose node and system columns are each group's float objects,
    a group's rows holding the identical objects, as the simulator hands them."""
    return [
        make_row(pod_id=f"p-{i}-{j}", **dict(zip(SHARED, shared)))
        for i, (shared, count) in enumerate(groups)
        for j in range(count)
    ]


def assert_writers_match_the_oracle(rows):
    preds = [0.5 * i for i in range(len(rows))]
    for ours, theirs in (
        (lambda out: write_rows(out, rows), lambda out: reference_write(out, rows)),
        (lambda out: write_rows(out, rows, preds), lambda out: reference_write(out, rows, preds)),
    ):
        ours_text, theirs_text = io.StringIO(), io.StringIO()
        ours(ours_text)
        theirs(theirs_text)
        assert ours_text.getvalue() == theirs_text.getvalue()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "trace.csv")
        write_trace(path, rows)
        oracle = io.StringIO()
        reference_write(oracle, rows)
        assert path.read_text(encoding="utf-8") == oracle.getvalue()


def test_shared_columns_are_reused_only_for_identical_objects():
    """Rows on one node hold its floats, so their text is made once; equal
    but distinct floats get their own.  A cache keyed on == would print the
    0.0 rows' text for the -0.0 ones, since 0.0 == -0.0."""
    node = [0.25, 0.5, 0.125, 0.75, 0.375, 0.5, 0.0625]
    zero, negative_zero = [0.0] * 7, [-0.0] * 7
    rows = rows_sharing([
        (node, 3),
        (zero, 2),
        (negative_zero, 2),
        (zero[:6] + [-0.0], 1),  # one column differs
        (list(zero), 1),          # the same objects again, in another list
        ([float(v) for v in ("0.25", "0.5", "0.125", "0.75", "0.375", "0.5", "0.0625")], 1),
        (node, 1),
    ])
    assert rows[2][7] is rows[0][7] and rows[3][7] == rows[5][7]
    assert_writers_match_the_oracle(rows)
    text = io.StringIO()
    write_rows(text, rows)
    assert [line.split(",")[7] for line in text.getvalue().splitlines()[1:]] == (
        ["0.25"] * 3 + ["0.0"] * 2 + ["-0.0"] * 2 + ["0.0", "0.0", "0.25", "0.25"]
    )


@settings(max_examples=150, deadline=None)
@given(st.lists(
    st.tuples(st.lists(in_range(0.0, 1.0), min_size=7, max_size=7), st.integers(1, 3)),
    max_size=6,
))
def test_rows_sharing_node_objects_match_the_oracle(groups):
    assert_writers_match_the_oracle(rows_sharing(groups))
