"""Property tests of the file boundary: any input either parses or raises
ValidationError (StructureError is one), never another exception.

Examples are derandomized so the suite stays deterministic.
"""

import csv
import io

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ctrec.errors import ValidationError
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.io import (
    position_labels,
    read_blocks_csv,
    read_hierarchy_file,
    read_history_csv,
    read_residuals_csv,
)

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
