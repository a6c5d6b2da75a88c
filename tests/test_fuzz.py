"""Property tests of the file boundary: any input either parses or raises
ValidationError (StructureError is one), never another exception.

Examples are derandomized so the suite stays deterministic.
"""

import csv
import io
from io import StringIO
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import ctrec.io
from ctrec.errors import ValidationError
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.io import (
    open_input,
    position_labels,
    read_blocks_csv,
    read_hierarchy_file,
    read_history_csv,
    read_residuals_csv,
)
from ctrec.reconcile import ForecastBlock

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
# and names the first faulty line.


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
    for lineno, row in enumerate(reader, start=2):
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
        for lineno, row in enumerate(reader, start=2):
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
