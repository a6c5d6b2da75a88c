"""Property tests of the file boundary: any input either parses or raises
ValidationError (StructureError is one), never another exception, and every
CSV writer renders what the csv module renders.

Examples are derandomized so the suite stays deterministic.
"""

import csv
import io
import json
import re
import tracemalloc
from io import StringIO
from typing import Iterable, Mapping, Sequence
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ctrec.io
from ctrec.covariance import sigma_ols
from ctrec.errors import ValidationError
from ctrec.evaluate import NemenyiResult, NrmseTable, PerfRow
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.io import (
    REPORT_FIELDS,
    open_input,
    position_labels,
    read_blocks_csv,
    read_hierarchy_file,
    read_history_csv,
    read_levels_csv,
    read_reports_jsonl,
    read_residuals_csv,
    report_dict,
)
from ctrec.reconcile import ForecastBlock, prepare

FUZZ = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# one total over two bottoms, orders 2 and 1: three series, three positions
CT = build_ct(build_cs(np.array([[1.0, 1.0]]), ["tot", "a", "b"]), build_te([2, 1]))


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


# Hierarchy spec lines: fragments of the grammar plus noise, so examples reach
# past the first error. No path separators: a `matrix =` line stays inside
# the scratch directory.
WORD = st.text(alphabet="abcxyz0129 -_", max_size=6)
HIERARCHY_LINE = st.one_of(
    st.sampled_from(
        ["orders = 4,2,1", "orders = 2", "orders = 0", "orders = 3,2", "orders =",
         "orders = x", "total: a, b", "zone: a", "a: b", ": a", "total:",
         "matrix = w.csv", "matrix = missing.csv", "matrix =", "matrix = w\0.csv",
         "# comment", ""]
    ),
    st.builds(lambda k, v: f"{k} = {v}", WORD, WORD),
    st.builds(lambda u, bs: f"{u}: {', '.join(bs)}", WORD, st.lists(WORD, max_size=4)),
    st.text(alphabet="abc:=,#.12 \t", max_size=12),
)
WEIGHT_CELL = st.sampled_from(["a", "b", "u", "1", "0", "2.5", "-1", "nan", "inf", "", "x"])


@FUZZ
@given(
    lines=st.lists(HIERARCHY_LINE, max_size=6),
    matrix=st.lists(st.lists(WEIGHT_CELL, max_size=4), max_size=4),
)
@example(lines=["orders = 2", "matrix = w\0.csv"], matrix=[])  # open() raises ValueError
@pytest.mark.filterwarnings("ignore:order 1 missing")
def test_hierarchy_file_parses_or_raises_validation_error(scratch, lines, matrix):
    (scratch / "h.txt").write_text("\n".join(lines))
    with open(scratch / "w.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(matrix)
    try:
        agg, labels, orders = read_hierarchy_file(scratch / "h.txt")
        build_cs(agg, labels)
        build_te(orders)
    except ValidationError:
        pass


@FUZZ
@given(
    agg=arrays(
        float,
        st.tuples(st.integers(0, 3), st.integers(0, 3)),
        elements=st.floats(allow_nan=True, allow_infinity=True, width=32),
    ),
    labels=st.one_of(st.none(), st.lists(st.sampled_from(["a", "b", "c", "1"]), max_size=7)),
)
def test_build_cs_accepts_or_raises_structure_error(agg, labels):
    try:
        build_cs(agg, labels)
    except ValidationError:
        pass


@FUZZ
@given(
    orders=st.lists(
        st.one_of(
            st.integers(-3, 10**6),
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(["4", "x", None]),
        ),
        max_size=5,
    )
)
@example(orders=[float("inf")])  # int() overflows rather than failing to parse
@pytest.mark.filterwarnings("ignore:order 1 missing")
def test_build_te_accepts_or_raises_structure_error(orders):
    try:
        build_te(orders)
    except ValidationError:
        pass


# Forecast-style CSV rows: the right header or a wrong one, then rows mixing
# valid keys, valid numbers and junk.
KEY = st.sampled_from(["0", "1", "tot", "a", "b", "c", ""])
NUMBER = st.sampled_from(["1.5", "-2", "0", "1e309", "nan", "inf", "", "x", "a"])
ROW = st.builds(
    lambda origin, series, values: [origin, series] + values,
    KEY, KEY, st.lists(NUMBER, max_size=5),
)
BLOCK_HEADER = ["origin", "series"] + position_labels(CT.te)
HISTORY_HEADER = ["origin", "series", "h1", "h2"]


def _csv_text(header, rows) -> str:
    out = io.StringIO()
    writer = csv.writer(out)
    if header is not None:
        writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue()


def _headers(good):
    return st.one_of(
        st.just(good), st.just(good[:-1]), st.just(["series", "origin"]), st.none()
    )


@FUZZ
@given(header=_headers(BLOCK_HEADER), rows=st.lists(ROW, max_size=8))
def test_blocks_and_residuals_csv_parse_or_raise_validation_error(scratch, header, rows):
    path = scratch / "blocks.csv"
    path.write_text(_csv_text(header, rows))
    for read in (read_blocks_csv, read_residuals_csv):
        try:
            read(path, CT)
        except ValidationError:
            pass


# The line reader that the keyed-CSV reader replaced, kept as the oracle of
# the parity tests below: it reads row by row with the csv module and float,
# and names the first faulty line: the line on which its record ends.


def _row_key(
    path, lineno: int, row: list[str], seen: dict[str, set]
) -> tuple[str, str]:
    """The (origin, series) key of a data row, recorded in ``seen``; a short
    row or a key seen before is an error naming the line."""
    if len(row) < 2:
        raise ValidationError(f"{path}:{lineno}: expected origin,series,values...")
    origin, series = row[0], row[1]
    if series in seen.setdefault(origin, set()):
        raise ValidationError(
            f"{path}:{lineno}: duplicate row for origin {origin!r}, series {series!r}"
        )
    seen[origin].add(series)
    return origin, series


def _numbers(path, lineno: int, cells: list[str]) -> list[float]:
    try:
        return [float(v) for v in cells]
    except ValueError as exc:
        raise ValidationError(f"{path}:{lineno}: bad number: {exc}")


def _read_block_rows(path, text: str, ct):
    """The line reader: (origin, block) pairs sorted by origin, or a
    ValidationError naming the first faulty line."""
    expected = position_labels(ct.te)
    index = {label: i for i, label in enumerate(ct.cs.labels)}
    per_origin: dict[str, np.ndarray] = {}
    seen: dict[str, set] = {}
    reader = csv.reader(StringIO(text, newline=""))
    header = next(reader, None)
    if header is None or header[:2] != ["origin", "series"]:
        raise ValidationError(f"{path}: expected header origin,series,...")
    if header[2:] != expected:
        raise ValidationError(
            f"{path}: position columns {header[2:]} != canonical {expected}"
        )
    for row in reader:
        lineno = reader.line_num  # the line the record ends on
        if not row:
            continue
        origin, series = _row_key(path, lineno, row, seen)
        if series not in index:
            raise ValidationError(f"{path}:{lineno}: unknown series {series!r}")
        if len(row) != len(expected) + 2:
            raise ValidationError(
                f"{path}:{lineno}: series {series!r} has {len(row) - 2} values, "
                f"expected {len(expected)}"
            )
        block = per_origin.setdefault(
            origin, np.full((ct.n_series, ct.n_positions), np.nan)
        )
        block[index[series]] = _numbers(path, lineno, row[2:])
    for origin in sorted(per_origin):
        missing = set(ct.cs.labels) - seen[origin]
        if missing:
            raise ValidationError(
                f"{path}: origin {origin} is missing series {sorted(missing)[:5]}"
            )
    return [(origin, per_origin[origin]) for origin in sorted(per_origin)]


def _line_read_blocks(path, ct):
    with open_input(path) as fh:
        text = fh.read()
    values = _read_block_rows(path, text, ct)
    blocks = [ForecastBlock(block, ct, origin) for origin, block in values]
    if not blocks:
        raise ValidationError(f"{path}: no data rows")
    return blocks


def _line_read_history(path, ct):
    """Histories keyed by origin id, rows in bottom-label order."""
    bottoms = ct.cs.labels[ct.cs.n_upper :]
    index = {label: i for i, label in enumerate(bottoms)}
    out: dict[str, np.ndarray] = {}
    seen: dict[str, set] = {}
    with open_input(path) as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or header[:2] != ["origin", "series"]:
            raise ValidationError(f"{path}: expected header origin,series,...")
        width = len(header) - 2
        if width < ct.te.m:
            raise ValidationError(
                f"{path}: history has {width} columns, needs at least {ct.te.m}"
            )
        for row in reader:
            lineno = reader.line_num  # the line the record ends on
            if not row:
                continue
            origin, series = _row_key(path, lineno, row, seen)
            if series not in index:
                raise ValidationError(f"{path}:{lineno}: unknown bottom series {series!r}")
            if len(row) != width + 2:
                raise ValidationError(
                    f"{path}:{lineno}: series {series!r} has {len(row) - 2} values, "
                    f"expected {width}"
                )
            hist = out.setdefault(origin, np.full((len(bottoms), width), np.nan))
            hist[index[series]] = _numbers(path, lineno, row[2:])
    for origin, hist in out.items():
        if np.isnan(hist).any():
            raise ValidationError(f"{path}: origin {origin}: incomplete history")
    return out


# The keyed-CSV reader against the line reader: a well-formed file with one
# edit either parses to the same blocks on both, or fails with the same text.
GOOD_ROWS = [
    "0,tot,3.0,1.0,2.0", "0,a,1.0,0.5,0.5", "0,b,2.0,0.5,1.5",
    "1,b,-2.5,-1.0,-1.5", "1,tot,1e-3,2.0,-1.999", "1,a,2.501,3.0,-0.5",
]
# \x1c-\x1f: numpy reads them as blanks around a number, float does not
CELL = st.sampled_from(
    ["1_0", " 1.5 ", "nan", "inf", "-0", "1e309", "", "x", "1,2", '"1"', "1#2",
     "tot", "c", '"tot"', "t#ot", "\t2\t", "0x1", "١", "1.0\x1c", "\x1d2",
     "3\x1e", "\x1f-1"]
)
EDIT_TEXT = st.one_of(
    st.sampled_from(['"', "\r", "\n", "\r\n", ",", "#", " ", "_", "é",
                     "\x1c", "\x1d", "\x1e", "\x1f"]),
    st.text(alphabet=',\r\n" #._-0123456789abtoé\x1c\x1f', max_size=4),
)


def _file(rows, newline="\n", header=BLOCK_HEADER):
    return newline.join([",".join(header), *rows]) + newline


def _with(row, index=1, rows=GOOD_ROWS):
    """GOOD_ROWS with row ``index`` replaced (None drops it)."""
    return rows[:index] + ([] if row is None else [row]) + rows[index + 1 :]


@st.composite
def edited_files(draw, header=BLOCK_HEADER, labels=CT.cs.labels):
    n_origins = draw(st.integers(1, 3))
    values = draw(
        arrays(float, (n_origins, len(labels), len(header) - 2),
               elements=st.floats(-1e6, 1e6, allow_subnormal=False))
    )
    rows = draw(st.permutations([
        ",".join([f"{o:04d}", label, *map(repr, values[o, i].tolist())])
        for o in range(n_origins) for i, label in enumerate(labels)
    ]))
    k = draw(st.integers(0, len(rows) - 1))
    edit = draw(st.sampled_from(["none", "drop", "repeat", "cell", "splice"]))
    if edit == "drop":
        del rows[k]
    elif edit == "repeat":
        rows.insert(k, rows[k])
    elif edit == "cell":
        cells = rows[k].split(",")
        cells[draw(st.integers(0, len(cells) - 1))] = draw(CELL)
        rows[k] = ",".join(cells)
    text = _file(rows, draw(st.sampled_from(["\n", "\r\n"])), header)
    if edit == "splice":
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(i + 3, len(text))))
        text = text[:i] + draw(EDIT_TEXT) + text[j:]
    return text


def _outcome(read, path, ct=CT):
    try:
        return [(b.origin_id, b.values.tobytes()) for b in read(path, ct)]
    except ValidationError as exc:
        return str(exc)


@settings(FUZZ, max_examples=300)
@given(text=edited_files())
@example(text=_file(GOOD_ROWS))
@example(text=_file(GOOD_ROWS, "\r\n"))
@example(text="\n" + _file(["", *GOOD_ROWS[:3], "", *GOOD_ROWS[3:], ""]))
@example(text=_file(["", *GOOD_ROWS[:3], "", *GOOD_ROWS[3:], ""], "\r\n"))
@example(text=_file(_with('"0",a,1.0,0.5,0.5')))  # a quoted key
@example(text=_file([row.replace("0,", "0#", 1) for row in GOOD_ROWS]))  # '#' in a key
@example(text=_file(_with("0,t#ot,3.0,1.0,2.0", 0)))
@example(text=_file(_with("0,a,1_0,0.5,0.5")))
@example(text=_file(_with("0,a, 1.5 ,0.5,0.5")))
@example(text=_file(_with("0,a,nan,0.5,0.5")))
@example(text=_file(_with("0,a,1.0,inf,0.5")))
@example(text=_file(_with("0,a,1.0,0.5,0.5,9.0")))  # one cell too many
@example(text=_file(_with("0,a,1.0,0.5")))  # one cell too few
@example(text=_file(_with("0,b,2.0,0.5,1.5")))  # a duplicate series
@example(text=_file(_with("0,c,1.0,0.5,0.5")))  # an unknown series
@example(text=_file(_with(None)))  # a missing series
@example(text=_file(_with("0,a,1.0\r0.5,0.5")))  # a bare carriage return
@example(text=_file(_with("0,a,1.0\x1c,0.5,0.5")))  # numpy's blank, float's fault
@example(text=_file(_with('0,a,1.0\x1c,0.5,0.5', 4) + ['"1",x,1,1,1']))
@example(text=_file(_with("0,a,\x1f1.0,0.5,0.5")))
@example(text=_file(_with('0,a,"1,0",0.5,0.5')))  # a comma inside a quoted cell
@example(text=_file(_with('0,a,"1.0\n",0.5,0.5')))  # a line break inside one
@example(text=_file(_with('0,a,"1.0\n",0.5,0.5') + ["2,c,1,1,1"]))  # line 9, record 8
@example(text=_file(_with("1,tot,x,2.0,-1.999", 4), "\r"))  # bare carriage-return ends
@example(text=_file(_with("0,a,x,0.5,0.5", 1) + ["2,c,1,1,1"]))  # bad number first
@example(text=_file(_with("2,c,1,1,1", 1) + ["0,a,x,0.5,0.5"]))  # bad key first
def test_vectorized_reader_matches_the_line_reader(scratch, text):
    path = scratch / "edited.csv"
    path.write_bytes(text.encode())
    assert _outcome(read_blocks_csv, path) == _outcome(_line_read_blocks, path)


def test_vectorized_reader_takes_well_formed_files(scratch):
    # LF or CRLF endings and blank lines: one numpy parse, no csv module and
    # no float re-read
    path = scratch / "well-formed.csv"
    for text in (
        _file(GOOD_ROWS),
        _file(GOOD_ROWS, "\r\n"),
        _file(["", *GOOD_ROWS[:3], "", *GOOD_ROWS[3:], ""]),
    ):
        path.write_text(text, newline="")
        with mock.patch.object(ctrec.io.csv, "reader", side_effect=AssertionError), \
                mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt:
            blocks = read_blocks_csv(path, CT)
        assert loadtxt.call_count == 1
        assert [b.origin_id for b in blocks] == ["0", "1"]
        assert blocks[0].values[0].tolist() == [3.0, 1.0, 2.0]


# Histories: the two readers agree on the values, or name the same file:line
# (the shared reader words two messages its own way).
WIDE_HISTORY_HEADER = HISTORY_HEADER + ["h3"]


def _history_outcome(read, path):
    try:
        return {o: h.tobytes() for o, h in read(path, CT).items()}
    except ValidationError as exc:
        return str(exc)[len(str(path)) :].split(" ", 1)[0]


@settings(FUZZ, max_examples=150)
@given(text=st.one_of(
    edited_files(HISTORY_HEADER, ["a", "b"]),
    edited_files(WIDE_HISTORY_HEADER, ["a", "b"]),
))
@example(text=_file(["0,a,1,2", "0,b,3,4"], "\r\n", HISTORY_HEADER))
@example(text=_file(["0,a,1,2", "0,c,3,4"], header=HISTORY_HEADER))  # unknown series
@example(text=_file(["0,a,1,2", "1,b,3,4"], header=HISTORY_HEADER))  # missing series
@example(text=_file(["0,a,1,2\x1c", "0,b,3,4"], header=HISTORY_HEADER))
def test_history_reader_matches_the_line_reader(scratch, text):
    path = scratch / "history-edited.csv"
    path.write_bytes(text.encode())
    assert _history_outcome(read_history_csv, path) == _history_outcome(
        _line_read_history, path
    )


# The two splits against each other: a keyed file and its twin, in which the
# total "tot" is renamed "t,ot" (in the hierarchy and in every cell that
# names it), so that only the twin is quoted and split by the csv module.
# Both give the same values, or the same message and line apart from the label.
TWIN_CT = build_ct(build_cs(np.array([[1.0, 1.0]]), ["t,ot", "a", "b"]), build_te([2, 1]))
LIMIT = csv.field_size_limit()
TOTAL = None  # a cell naming the total: "tot" in the file, '"t,ot"' in its twin
TWIN_CELL = st.sampled_from([
    TOTAL, "a", "c", "x", "", "1_0", " 1.5 ", "nan", "\x1c1",
    "0." + "0" * (LIMIT - 3) + "1",  # at the csv module's field limit
    "0." + "0" * LIMIT + "1",  # over it: numpy reads it, the csv module refuses it
])


@st.composite
def twin_files(draw):
    """(header, rows of cells, line end) for a block file over CT."""
    n_origins = draw(st.integers(1, 3))
    values = draw(
        arrays(float, (n_origins, 3, 3), elements=st.floats(-1e6, 1e6, allow_subnormal=False))
    )
    rows = draw(st.permutations([
        [str(o), label, *map(repr, values[o, i].tolist())]
        for o in range(n_origins) for i, label in enumerate([TOTAL, "a", "b"])
    ]))
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, len(rows)))
        edit = draw(st.sampled_from(["drop", "repeat", "cell", "extra", "cut", "blank"]))
        if edit == "blank" or k == len(rows):
            rows.insert(k, [])
        elif edit == "drop":
            del rows[k]
        elif edit == "repeat":
            rows.insert(k, rows[k])
        elif edit == "cell" and rows[k]:
            j = draw(st.integers(0, len(rows[k]) - 1))
            rows[k] = rows[k][:j] + [draw(TWIN_CELL)] + rows[k][j + 1 :]
        elif edit == "extra":
            rows[k] = rows[k] + [draw(TWIN_CELL)]
        else:
            rows[k] = rows[k][: draw(st.integers(0, max(len(rows[k]) - 1, 0)))]
    header = list(BLOCK_HEADER)
    if draw(st.integers(0, 9)) == 0:  # a header cell over the limit
        header[-1] += "1" * LIMIT
    return header, rows, draw(st.sampled_from(["\n", "\r\n"]))


def _render(file, total: str) -> str:
    header, rows, newline = file
    lines = [header] + [[total if cell is TOTAL else cell for cell in row] for row in rows]
    return newline.join(",".join(line) for line in lines) + newline


def _ones(edits):
    """Three origins of ones in file order, with (row, cell, text) edits."""
    rows = [[str(o), label, "1.0", "1.0", "1.0"] for o in range(3) for label in (TOTAL, "a", "b")]
    for k, j, text in edits:
        rows[k][j] = text
    return BLOCK_HEADER, rows, "\n"


@settings(FUZZ, max_examples=200)
@given(file=twin_files())
@example(file=_ones([(1, 2, "x"), (5, 3, "1" * 200_000)]))  # bad line 3 before long line 7
@example(file=_ones([(5, 3, "1" * 200_000)]))
@example(file=_ones([(2, 2, "0." + "0" * 200_000 + "1")]))  # numpy's number, over the limit
@example(file=_ones([(2, 0, "0" * (LIMIT + 1))]))  # a key over the limit
@example(file=_ones([(2, 1, TOTAL), (4, 2, "x")]))  # a repeated total before a bad number
def test_a_keyed_file_and_its_quoted_twin_read_alike(scratch, file):
    path = scratch / "twin.csv"
    outcomes = []
    for total, ct in (("tot", CT), ('"t,ot"', TWIN_CT)):
        path.write_bytes(_render(file, total).encode())
        outcomes.append(_outcome(read_blocks_csv, path, ct))
    plain, twin = outcomes
    if isinstance(twin, str):
        twin = twin.replace("'t,ot'", "'tot'")
    assert plain == twin


@FUZZ
@given(header=_headers(HISTORY_HEADER), rows=st.lists(ROW, max_size=8))
def test_history_csv_parses_or_raises_validation_error(scratch, header, rows):
    path = scratch / "history.csv"
    path.write_text(_csv_text(header, rows))
    try:
        read_history_csv(path, CT)
    except ValidationError:
        pass


@FUZZ
@given(data=st.binary(max_size=40))
def test_arbitrary_bytes_parse_or_raise_validation_error(scratch, data):
    path = scratch / "raw.csv"
    path.write_bytes(data)
    for read in (read_blocks_csv, read_history_csv):
        try:
            read(path, CT)
        except ValidationError:
            pass
    try:
        read_hierarchy_file(path)
    except ValidationError:
        pass


# Line numbers: a reader that names a line names one the file has, counting
# a line end at \n, \r\n or \r as the file object does under newline="".
TEXT_PIECE = st.one_of(
    st.sampled_from([
        ",".join(BLOCK_HEADER), "0,tot,1,1,1", "0,a,1,1,1", "0,b,x,1,1", "0,zz,1,1,1",
        "series,level", "tot,L0", "a,L1", "zz,L1", "orders = 2,1", "tot: a, b", "zz",
        '"0\n"', '"', ",", "\n", "\r\n", "\r",
    ]),
    st.text(alphabet='ab0,":=#\n\r\x0b\x0c\x1c\x1f\x85\u2028 ', max_size=4),
)


@settings(FUZZ, max_examples=200)
@given(text=st.lists(TEXT_PIECE, max_size=12).map("".join))
@example(text='origin,series,k2_1,k1_1,k1_2\n"0\n",tot,1,1,1\n"0\n",a,1,1,1\n"0\n",b,x,1,1\n')
@example(text='series,level\n"tot",top\na,"bot\ntom"\nzz,b\n')
@example(text="orders = 2,1\ntot: a\x1cx, b\nzz\n")
def test_a_named_line_is_a_line_of_the_file(scratch, text):
    path = scratch / "lines.txt"
    path.write_bytes(text.encode())
    n_lines = len(io.StringIO(text, newline="").readlines())
    for read in (
        lambda: read_blocks_csv(path, CT),
        lambda: read_levels_csv(path, CT),
        lambda: read_hierarchy_file(path),
    ):
        try:
            read()
        except ValidationError as exc:
            named = re.match(re.escape(f"{path}:") + r"(\d+):", str(exc))
            if named:
                assert 1 <= int(named[1]) <= n_lines


def _has_type(kind: str, value) -> bool:
    """The report reader's oracle: ``value`` is of the JSON type ``kind``.
    A bool is never an integer or a number; NaN is a number."""

    def number(v):
        return isinstance(v, (int, float)) and not isinstance(v, bool)

    return {
        "str": isinstance(value, str),
        "int": number(value) and isinstance(value, int),
        "bool": isinstance(value, bool),
        "number": number(value),
        "list of numbers": isinstance(value, list) and all(map(number, value)),
        "list of str": isinstance(value, list) and all(isinstance(v, str) for v in value),
        "{cs, te} numbers": isinstance(value, dict)
        and number(value.get("cs")) and number(value.get("te")),
    }[kind]


# every field written: an alternating run with timings and traced memory,
# which carries its build's cost too
tracemalloc.start()
try:
    FULL_REPORT = report_dict(
        prepare("ite-tcs", CT, sigma_ols(CT))(ForecastBlock(np.arange(9.0).reshape(3, 3), CT)),
        timings=True,
        memory=True,
    )
finally:
    tracemalloc.stop()
JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["cs", "te", "x"]), inner, max_size=3),
    max_leaves=6,
)


def test_the_full_report_has_every_field_and_reads_back(scratch):
    assert set(FULL_REPORT) == set(REPORT_FIELDS)
    assert FULL_REPORT["prepare_s"] > 0 and FULL_REPORT["prepare_peak_mem"] > 0
    path = scratch / "reports.jsonl"
    path.write_text(json.dumps(FULL_REPORT) + "\n")
    assert read_reports_jsonl(path) == [FULL_REPORT]


@FUZZ
@given(field=st.sampled_from(sorted(REPORT_FIELDS)), value=JSON_VALUE)
@example(field="iterations", value=1.0)
@example(field="peak_mem", value=True)
@example(field="elapsed", value=False)
@example(field="prepare_s", value="slow")
@example(field="prepare_peak_mem", value=1.0)
@example(field="trace", value=[1, True])
@example(field="flags", value=["a", 1])
@example(field="coherence", value={"cs": 0.0, "te": None})
@example(field="delta", value=float("nan"))
def test_report_reader_accepts_a_field_exactly_when_it_has_its_type(scratch, field, value):
    path = scratch / "reports.jsonl"
    path.write_text(json.dumps({**FULL_REPORT, field: value}) + "\n")
    kind = REPORT_FIELDS[field][0]
    if _has_type(kind, value):
        (record,) = read_reports_jsonl(path)
        assert json.dumps(record[field]) == json.dumps(value)
    else:
        with pytest.raises(ValidationError, match=f"reports.jsonl:1: field {field}: "):
            read_reports_jsonl(path)


# The csv.writer writers that the one CSV writer replaced, kept verbatim as
# the byte oracle of the tests below.


def _fmt(value: float) -> str:
    return repr(float(value))


def _write_keyed_csv(path, columns: list[str], labels, tables) -> None:
    """A wide CSV with one row per (origin, series): ``tables`` yields
    (origin, array) pairs whose row i holds series ``labels[i]``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["origin", "series", *columns])
        for origin, table in tables:
            writer.writerows(
                [origin, label, *map(repr, row.tolist())]
                for label, row in zip(labels, np.asarray(table, dtype=float))
            )


def write_nrmse_csv(path, table: NrmseTable) -> None:
    header = ["level", "candidate"] + [f"k{k}" for k in table.orders]
    if table.baseline is not None:
        header += [f"worse_than_{table.baseline}_k{k}" for k in table.orders]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for level, candidate, values in table.rows():
            row = [level, candidate] + [_fmt(v) for v in values]
            if table.baseline is not None:
                row += [
                    str(int((level, candidate, k) in table.flagged))
                    for k in table.orders
                ]
            writer.writerow(row)


def write_ranks_csv(path, results: Mapping[int, NemenyiResult]) -> None:
    """Mean-rank table per order, with the interval metadata per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["order", "candidate", "mean_rank", "lo", "hi", "half_width", "alpha", "cases"]
        )
        for k in sorted(results, reverse=True):
            res = results[k]
            for name in res.ordered():
                lo, hi = res.interval(name)
                writer.writerow(
                    [
                        f"k{k}",
                        name,
                        _fmt(res.mean_ranks[name]),
                        _fmt(lo),
                        _fmt(hi),
                        _fmt(res.half_width),
                        _fmt(res.alpha),
                        res.n_cases,
                    ]
                )


def write_trace_csv(path, rows: Iterable[tuple[str, int, float, float]]) -> None:
    """Plot-ready long format: method, iteration, gap, delta."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["method", "iteration", "gap", "delta"])
        for method, iteration, gap, delta in rows:
            writer.writerow([method, iteration, _fmt(gap), _fmt(delta)])


def write_perf_csv(path, rows: Sequence[PerfRow]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [
                "method",
                "runs",
                "elapsed_median",
                "elapsed_q25",
                "elapsed_q75",
                "mem_median",
                "mem_q25",
                "mem_q75",
            ]
        )
        for row in rows:
            writer.writerow(
                [
                    row.method,
                    row.runs,
                    _fmt(row.elapsed_median),
                    _fmt(row.elapsed_iqr[0]),
                    _fmt(row.elapsed_iqr[1]),
                    _fmt(row.mem_median),
                    _fmt(row.mem_iqr[0]),
                    _fmt(row.mem_iqr[1]),
                ]
            )


# Text that the csv module quotes, or that sits next to such text: delimiters,
# quotes, line breaks, empty and space-padded cells, non-ASCII.
TEXT = st.one_of(
    st.sampled_from([",", '"', "\r", "\n", "\r\n", "", " ", " a", "a ", "é ü", "日本",
                     'to"t', "a,b", "x\ny", "0001"]),
    st.text(alphabet=',"\r\n a0é日', max_size=4),
)
EDGE_FLOATS = [-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300, 1.0, 0.1, 1e16, 123456789.0]
FINITE = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False, allow_infinity=False)
)
ANY_FLOAT = st.one_of(FINITE, st.sampled_from([float("nan"), float("inf"), -float("inf")]))
# what callers pass for a number: floats, numpy scalars and, where _fmt
# converted them, integers
NUMBER = st.one_of(
    ANY_FLOAT, ANY_FLOAT.map(np.float64), st.floats(width=32).map(np.float32),
    st.integers(-5, 5), st.integers(-5, 5).map(np.int64),
)
COUNT = st.one_of(st.integers(0, 10**6), st.integers(0, 50).map(np.int64))


def _same_bytes(scratch, oracle, writer, *args):
    old, new = scratch / "oracle.csv", scratch / "writer.csv"
    oracle(old, *args)
    writer(new, *args)
    assert new.read_bytes() == old.read_bytes()


@st.composite
def keyed_tables(draw):
    labels = draw(st.lists(TEXT, min_size=1, max_size=4))
    columns = draw(st.lists(TEXT, min_size=1, max_size=4))
    origins = draw(st.lists(TEXT, max_size=3))
    tables = [
        (origin, draw(arrays(float, (len(labels), len(columns)), elements=FINITE)))
        for origin in origins
    ]
    return columns, labels, tables


@settings(FUZZ, max_examples=120)
@given(table=keyed_tables())
@example(table=(["k1_1"], ["", ","], [("", np.array([[-0.0], [5e-324]]))]))
@example(table=([""], ['"'], [("\r\n", np.array([[1e300]]))]))
def test_keyed_writer_matches_csv_writer(scratch, table):
    _same_bytes(scratch, _write_keyed_csv, ctrec.io._write_keyed_csv, *table)


@st.composite
def nrmse_tables(draw):
    levels = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    orders = tuple(draw(st.lists(st.integers(1, 24), min_size=1, max_size=3, unique=True)))
    candidates = draw(st.lists(TEXT, min_size=1, max_size=3, unique=True))
    cells = [(lv, c, k) for lv in levels for c in candidates for k in orders]
    values = {cell: draw(NUMBER) for cell in cells}
    baseline = draw(st.one_of(st.none(), st.sampled_from(candidates)))
    flagged = frozenset(cell for cell in cells if draw(st.booleans()))
    return NrmseTable(tuple(levels), orders, tuple(candidates), values, baseline, flagged)


@settings(FUZZ, max_examples=60)
@given(table=nrmse_tables())
def test_nrmse_writer_matches_csv_writer(scratch, table):
    _same_bytes(scratch, write_nrmse_csv, ctrec.io.write_nrmse_csv, table)


# the writer adds a rank and the half width: numbers whose sum cannot overflow
RANK = st.one_of(
    st.sampled_from([-0.0, 5e-324, 1e300]), st.floats(-1e6, 1e6),
    st.floats(-1e6, 1e6).map(np.float64), st.integers(-5, 5),
)
RANKS = st.dictionaries(
    st.integers(1, 24),
    st.builds(
        NemenyiResult,
        mean_ranks=st.dictionaries(TEXT, RANK, min_size=1, max_size=4),
        half_width=RANK, alpha=NUMBER, n_cases=COUNT, q_value=ANY_FLOAT,
    ),
    max_size=3,
)


@settings(FUZZ, max_examples=60)
@given(results=RANKS)
def test_ranks_writer_matches_csv_writer(scratch, results):
    _same_bytes(scratch, write_ranks_csv, ctrec.io.write_ranks_csv, results)


@settings(FUZZ, max_examples=60)
@given(rows=st.lists(st.tuples(TEXT, COUNT, NUMBER, NUMBER), max_size=6))
@example(rows=[("ite-tcs", 1, float("nan"), 1e-10), ("", 2, -0.0, float("nan"))])
def test_trace_writer_matches_csv_writer(scratch, rows):
    _same_bytes(scratch, write_trace_csv, ctrec.io.write_trace_csv, rows)


PERF_ROWS = st.lists(
    st.builds(
        PerfRow, method=TEXT, runs=COUNT, elapsed_median=NUMBER,
        elapsed_iqr=st.tuples(NUMBER, NUMBER), mem_median=NUMBER,
        mem_iqr=st.tuples(NUMBER, NUMBER),
    ),
    max_size=4,
)


@settings(FUZZ, max_examples=60)
@given(rows=PERF_ROWS)
def test_perf_writer_matches_csv_writer(scratch, rows):
    _same_bytes(scratch, write_perf_csv, ctrec.io.write_perf_csv, rows)
