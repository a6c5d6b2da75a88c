"""Tests for file formats: hierarchy specs, wide CSVs, reports."""

import csv
import errno
import json
import re
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest

from ctrec.covariance import ResidualSet
from ctrec.errors import ValidationError
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.io import (
    _write_csv,
    committing,
    open_output,
    position_labels,
    read_blocks_csv,
    read_hierarchy_file,
    read_history_csv,
    read_levels_csv,
    read_reports_jsonl,
    read_residuals_csv,
    report_dict,
    write_blocks_csv,
    write_hierarchy_file,
    write_history_csv,
    write_reports_jsonl,
    write_residuals_csv,
)
from ctrec.reconcile import ForecastBlock
from ctrec.simulate import pv324_structure, simulate_dataset
from ctrec.covariance import sigma_ols
from helpers import run_method, toy_ct


def test_position_labels_canonical_order():
    te = build_te([4, 2, 1])
    assert position_labels(te) == [
        "k4_1",
        "k2_1",
        "k2_2",
        "k1_1",
        "k1_2",
        "k1_3",
        "k1_4",
    ]


def test_hierarchy_file_round_trip(tmp_path):
    path = tmp_path / "hier.txt"
    path.write_text(
        "# three-level toy\n"
        "orders = 4, 2, 1\n"
        "total: a, b, c\n"
        "left: a, b\n"
    )
    agg, labels, orders = read_hierarchy_file(path)
    assert labels == ["total", "left", "a", "b", "c"]
    assert orders == [4, 2, 1]
    assert np.array_equal(agg, [[1, 1, 1], [1, 1, 0]])

    ct = build_ct(build_cs(agg, labels), build_te(orders))
    out = tmp_path / "rewritten.txt"
    write_hierarchy_file(out, ct)
    agg2, labels2, orders2 = read_hierarchy_file(out)
    assert np.array_equal(agg, agg2)
    assert labels == labels2
    assert orders == orders2


def _quadratic_hierarchy_reference(rows):
    """Bottom labels and weights as the parser defined them first: labels by
    list membership in first-appearance order, a repeated name adding 1."""
    labels = []
    for _, bottoms in rows:
        for b in bottoms:
            if b not in labels:
                labels.append(b)
    agg = np.zeros((len(rows), len(labels)))
    for r, (_, bottoms) in enumerate(rows):
        for b in bottoms:
            agg[r, labels.index(b)] += 1.0
    return labels, agg


@pytest.mark.parametrize("seed", range(8))
def test_hierarchy_file_matches_the_list_reference_on_random_hierarchies(tmp_path, seed):
    rng = np.random.default_rng(seed)
    pool = [f"b{i}" for i in rng.permutation(int(rng.integers(1, 60)))]
    rows = [
        (f"u{r}", list(rng.choice(pool, size=int(rng.integers(1, 12)))))  # repeats too
        for r in range(int(rng.integers(1, 15)))
    ]
    path = tmp_path / "hier.txt"
    path.write_text(
        "orders = 2,1\n" + "".join(f"{u}: {', '.join(b)}\n" for u, b in rows)
    )
    agg, labels, orders = read_hierarchy_file(path)
    expected_labels, expected_agg = _quadratic_hierarchy_reference(rows)
    assert labels == [u for u, _ in rows] + expected_labels
    assert np.array_equal(agg, expected_agg)
    assert orders == [2, 1]


def test_hierarchy_file_weight_matrix(tmp_path):
    (tmp_path / "w.csv").write_text("series,a,b\ntotal,1,1\nhalf,0.5,0\n")
    spec = tmp_path / "hier.txt"
    spec.write_text("orders = 2,1\nmatrix = w.csv\n")
    agg, labels, orders = read_hierarchy_file(spec)
    assert labels == ["total", "half", "a", "b"]
    assert np.array_equal(agg, [[1.0, 1.0], [0.5, 0.0]])


def test_hierarchy_file_non_integer_round_trip(tmp_path):
    # non-integer weights are written through the matrix fallback
    ct = build_ct(
        build_cs(np.array([[1.0, 1.0], [0.25, 0.0]]), ["total", "q", "a", "b"]),
        build_te([2, 1]),
    )
    out = tmp_path / "hier.txt"
    write_hierarchy_file(out, ct)
    agg, labels, orders = read_hierarchy_file(out)
    assert np.array_equal(agg, ct.cs.agg)
    assert labels == list(ct.cs.labels)
    assert orders == [2, 1]


@pytest.mark.parametrize("where", ["upper", "bottom"])
@pytest.mark.parametrize(
    "label", ["a,b", "c:d", "e#f", "g=h", "i\nj", "k\rl", "m\x0bn", ""], ids=repr
)
def test_hierarchy_file_round_trips_labels_the_row_grammar_cannot_carry(
    tmp_path, label, where
):
    # an integer hierarchy whose label holds a row-grammar separator or a line
    # break, or is empty, goes through the weight-matrix CSV instead
    labels = ["tot", "z1", "p", "q", "r"]
    labels[1 if where == "upper" else 2] = label
    agg = np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 2.0]])
    ct = build_ct(build_cs(agg, labels), build_te([2, 1]))
    out = tmp_path / "hier.txt"
    write_hierarchy_file(out, ct)
    assert "matrix = hier_weights.csv" in out.read_text()
    agg2, labels2, orders = read_hierarchy_file(out)
    assert np.array_equal(agg2, agg)
    assert labels2 == labels
    assert orders == [2, 1]


@pytest.mark.parametrize("label", [" p", "p\t", "\n"], ids=repr)
def test_hierarchy_file_rejects_labels_the_readers_would_strip(tmp_path, label):
    ct = build_ct(build_cs(np.ones((1, 2)), ["tot", label, "q"]), build_te([2, 1]))
    with pytest.raises(ValidationError, match=re.escape(f"series label {label!r}")):
        write_hierarchy_file(tmp_path / "hier.txt", ct)


def test_hierarchy_file_errors(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("total: a, b\n")  # no orders
    with pytest.raises(ValidationError):
        read_hierarchy_file(path)
    path.write_text("orders = 2,1\nwhatever\n")
    with pytest.raises(ValidationError):
        read_hierarchy_file(path)
    path.write_text("orders = 2,1\na: a\n")  # label on both sides
    with pytest.raises(ValidationError):
        read_hierarchy_file(path)


def test_blocks_csv_round_trip(tmp_path):
    ct = toy_ct((4, 2, 1))
    rng = np.random.default_rng(0)
    blocks = [
        ForecastBlock(rng.normal(size=(3, 7)), ct, f"{i:02d}") for i in range(3)
    ]
    path = tmp_path / "blocks.csv"
    write_blocks_csv(path, blocks)
    back = read_blocks_csv(path, ct)
    assert [b.origin_id for b in back] == ["00", "01", "02"]
    for a, b in zip(blocks, back):
        assert np.array_equal(a.values, b.values)  # repr round-trips exactly


def test_blocks_csv_errors_name_offender(tmp_path):
    ct = toy_ct((2, 1))
    path = tmp_path / "bad.csv"
    path.write_text("origin,series,k2_1,k1_1,k1_2\n0,mystery,1,2,3\n")
    with pytest.raises(ValidationError, match="mystery"):
        read_blocks_csv(path, ct)
    path.write_text("origin,series,k2_1,k1_1,k1_2\n0,u1,1,2\n")
    with pytest.raises(ValidationError, match="u1"):
        read_blocks_csv(path, ct)
    path.write_text("origin,series,k2_1,k1_1,k1_2\n0,u1,1,2,3\n0,b1,1,2,3\n")
    with pytest.raises(ValidationError, match="missing"):
        read_blocks_csv(path, ct)


def test_blocks_csv_rejects_duplicate_row_with_line(tmp_path):
    ct = toy_ct((2, 1))
    path = tmp_path / "dup.csv"
    path.write_text(
        "origin,series,k2_1,k1_1,k1_2\n"
        "0,u1,2,1,1\n0,b1,1,0.5,0.5\n0,b2,1,0.5,0.5\n0,b1,9,9,9\n"
    )
    with pytest.raises(ValidationError, match=r"dup\.csv:5: .*duplicate"):
        read_blocks_csv(path, ct)
    path.write_text("origin,series,k2_1,k1_1,k1_2\n0\n")
    with pytest.raises(ValidationError, match=r"dup\.csv:2"):
        read_blocks_csv(path, ct)


def test_residuals_csv_round_trip(tmp_path):
    ct = toy_ct((2, 1))
    rng = np.random.default_rng(1)
    rs = ResidualSet(rng.normal(size=(4, 3, 3)))
    path = tmp_path / "res.csv"
    write_residuals_csv(path, rs, ct)
    back = read_residuals_csv(path, ct)
    assert np.array_equal(back.blocks, rs.blocks)


def test_history_csv_round_trip(tmp_path):
    ct = toy_ct((2, 1))
    rng = np.random.default_rng(2)
    histories = rng.normal(size=(2, 2, 2))
    path = tmp_path / "hist.csv"
    write_history_csv(path, histories, ct)
    back = read_history_csv(path, ct)
    assert np.array_equal(back["0000"], histories[0])
    assert np.array_equal(back["0001"], histories[1])


def test_keyed_csvs_round_trip_labels_that_need_quoting(tmp_path):
    # the writer quotes these labels, so the reader takes its csv-module path
    cs = build_cs(np.array([[1.0, 1.0]]), ['to"t', "a,1", "b"])
    ct = build_ct(cs, build_te([2, 1]))
    rng = np.random.default_rng(3)
    blocks = [ForecastBlock(rng.normal(size=(3, 3)), ct, str(o)) for o in range(2)]
    path = tmp_path / "quoted.csv"
    write_blocks_csv(path, blocks)
    assert '"to""t"' in path.read_text() and '"a,1"' in path.read_text()
    back = read_blocks_csv(path, ct)
    assert [b.origin_id for b in back] == ["0", "1"]
    assert all(np.array_equal(b.values, a.values) for a, b in zip(blocks, back))
    histories = rng.normal(size=(2, 2, 2))
    write_history_csv(path, histories, ct)
    back = read_history_csv(path, ct)
    assert np.array_equal(back["0000"], histories[0])
    assert np.array_equal(back["0001"], histories[1])


@pytest.mark.parametrize("labels", [["t,ot", "a", "b"], ["tot", "a", "b"]])
def test_a_keyed_csv_is_split_once_and_its_numbers_parsed_from_that_split(
    tmp_path, labels
):
    # a label that needs quoting sends the file through the csv module, a
    # plain file never reaches it; either way a bad number is parsed from
    # the split that the key pass made
    ct = build_ct(build_cs(np.array([[1.0, 1.0]]), labels), build_te([2, 1]))
    path = tmp_path / "blocks.csv"
    write_blocks_csv(path, [ForecastBlock(np.ones((3, 3)), ct, str(o)) for o in range(2)])
    lines = path.read_text().split("\n")
    lines[2] = lines[2].replace("1.0", "x", 1)  # series a of origin 0
    path.write_text("\n".join(lines))
    with mock.patch.object(csv, "reader", wraps=csv.reader) as reader, \
            pytest.raises(ValidationError, match=r"blocks\.csv:3: bad number"):
        read_blocks_csv(path, ct)
    assert reader.call_count == (1 if "t,ot" in labels else 0)


def _keyed_lines(tmp_path, labels, origins=2):
    """A forecast file of ``origins`` all-ones blocks over one total (labelled
    ``labels[0]``) and two bottoms, as its lines, plus its structure."""
    ct = build_ct(build_cs(np.array([[1.0, 1.0]]), labels), build_te([2, 1]))
    path = tmp_path / "blocks.csv"
    write_blocks_csv(path, [ForecastBlock(np.ones((3, 3)), ct, str(o)) for o in range(origins)])
    return path, path.read_text().split("\n"), ct


@pytest.mark.parametrize("labels", [["t,ot", "a", "b"], ["tot", "a", "b"]])
def test_a_keyed_csv_names_its_first_faulty_line_however_it_is_split(tmp_path, labels):
    # a bad number on line 3 and a 200 000-digit cell on line 7: the quoted
    # file (csv module) and the plain one (str.split) both name line 3, then
    # line 7 once line 3 is mended
    path, lines, ct = _keyed_lines(tmp_path, labels, origins=3)
    lines[2] = lines[2].replace("1.0", "x", 1)
    lines[6] = lines[6].replace("1.0", "1" * 200_000, 1)
    path.write_text("\n".join(lines))
    with pytest.raises(ValidationError, match=r"blocks\.csv:3: bad number"):
        read_blocks_csv(path, ct)
    lines[2] = lines[2].replace("x", "1.0", 1)
    path.write_text("\n".join(lines))
    with pytest.raises(
        ValidationError, match=r"blocks\.csv:7: field larger than field limit \(131072\)$"
    ):
        read_blocks_csv(path, ct)


@pytest.mark.parametrize("labels", [["t,ot", "a", "b"], ["tot", "a", "b"]])
def test_the_field_limit_applies_to_every_cell_of_a_keyed_csv(tmp_path, labels):
    # numpy reads a 200 003-character 0.000...01 as a number; the csv module
    # refuses any cell over 131 072 characters, so both splits refuse it,
    # in a value, a key or the header, and both take a cell at the limit
    limit = csv.field_size_limit()
    path, lines, ct = _keyed_lines(tmp_path, labels)
    at_limit = "0." + "0" * (limit - 3) + "1"
    path.write_text("\n".join(lines).replace("1.0", at_limit, 1))
    assert read_blocks_csv(path, ct)[0].values[0, 0] == float(at_limit)
    over = "0." + "0" * 200_000 + "1"
    for line, text in [
        (4, "\n".join(lines[:3] + [lines[3].replace("1.0", over, 1)] + lines[4:])),
        (3, "\r\n".join(lines[:2] + ["0" * (limit + 1) + lines[2][1:]] + lines[3:])),
        (1, "\n".join([lines[0] + "1" * limit] + lines[1:])),
    ]:
        path.write_text(text, newline="")
        with pytest.raises(
            ValidationError, match=rf"blocks\.csv:{line}: field larger than field limit"
        ):
            read_blocks_csv(path, ct)


# A line ends at \n, \r\n or \r, and a record is named by the line it ends on.
TOT_A_B = build_ct(build_cs(np.array([[1.0, 1.0]]), ["tot", "a", "b"]), build_te([2, 1]))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=repr)
@pytest.mark.parametrize(
    "row, message",
    [
        ("b,x,1,1", "bad number"),
        ("b,1,1", "series 'b' has 2 values, expected 3"),
        ("c,1,1,1", "unknown series 'c'"),
        ("a,1,1,1", "duplicate row for origin '0\n', series 'a'"),
    ],
    ids=["number", "width", "series", "duplicate"],
)
def test_a_keyed_csv_names_the_line_after_quoted_line_breaks(tmp_path, newline, row, message):
    # each "0<line end>" origin spans two lines: the faulty row ends on line 7
    path = tmp_path / "ml.csv"
    rows = ["tot,1,1,1", "a,1,1,1", row]
    text = "origin,series,k2_1,k1_1,k1_2\n" + "".join(f'"0\n",{r}\n' for r in rows)
    path.write_text(text.replace("\n", newline), newline="")
    message = message.replace("\n", repr(newline)[1:-1])
    with pytest.raises(ValidationError, match=rf"^{re.escape(f'{path}:7: {message}')}"):
        read_blocks_csv(path, TOT_A_B)


def test_a_level_map_names_the_line_after_a_quoted_line_break(tmp_path):
    path = tmp_path / "lv.csv"
    path.write_text('series,level\n"tot",top\na,"bot\ntom"\nzz,b\n')
    with pytest.raises(ValidationError, match=r"lv\.csv:5: series 'zz' is not in the hierarchy"):
        read_levels_csv(path, TOT_A_B)
    # the first record is the optional header, whatever line it ends on
    path.write_text('series,"le\nvel"\ntot,top\na,"bot\ntom"\nb,bottom\n')
    assert read_levels_csv(path, TOT_A_B) == ("top", "bot\ntom", "bottom")


@pytest.mark.parametrize("char", "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", ids=repr)
def test_a_hierarchy_file_breaks_lines_only_at_line_ends(tmp_path, char):
    # str.splitlines() would break at each of these; the file does not
    path = tmp_path / "h.txt"
    path.write_text(f"orders = 2,1\ntot: a{char}x, b\nzz\n", newline="")
    with pytest.raises(ValidationError, match=r"h\.txt:3: unparsable line 'zz'$"):
        read_hierarchy_file(path)
    path.write_text(f"orders = 2,1\rtot: a{char}x, b\r", newline="")
    assert read_hierarchy_file(path)[1] == ["tot", f"a{char}x", "b"]


def test_a_weight_matrix_names_the_line_after_a_quoted_line_break(tmp_path):
    (tmp_path / "w.csv").write_text('series,a,b\n"to\ntal",1,1\nhalf,x,0\n')
    spec = tmp_path / "hier.txt"
    spec.write_text("orders = 2,1\nmatrix = w.csv\n")
    with pytest.raises(ValidationError, match=r"w\.csv:4: bad weight"):
        read_hierarchy_file(spec)
    (tmp_path / "w.csv").write_text('series,a,b\n"to\ntal",1,1\nhalf,0.5,0\n')
    assert read_hierarchy_file(spec)[1] == ["to\ntal", "half", "a", "b"]


def test_a_lowered_field_limit_splits_long_lines_and_names_long_cells_alike(tmp_path):
    # under a 40-character limit every line of this file is longer than the
    # limit and every cell shorter: the csv module splits it, to the same
    # array; a 50-character cell is named on its line in the plain file and
    # in its quoted twin alike
    rng = np.random.default_rng(8)
    values = rng.normal(size=(3, 3, 3))
    over = "0." + "0" * 47 + "1"
    outcomes = []
    for labels in (["tot", "a", "b"], ["t,ot", "a", "b"]):
        ct = build_ct(build_cs(np.array([[1.0, 1.0]]), labels), build_te([2, 1]))
        path = tmp_path / "blocks.csv"
        write_blocks_csv(path, [ForecastBlock(v, ct, str(o)) for o, v in enumerate(values)])
        default = [b.values for b in read_blocks_csv(path, ct)]
        limit = csv.field_size_limit(40)
        try:
            with mock.patch.object(csv, "reader", wraps=csv.reader) as reader:
                lowered = [b.values for b in read_blocks_csv(path, ct)]
            assert reader.call_count == 1
            assert np.array_equal(lowered, default)
            assert np.array_equal(default, values)
            lines = path.read_text().split("\n")
            cells = lines[5].split(",")  # origin 1, series a
            lines[5] = ",".join(cells[:3] + [over] + cells[4:])
            path.write_text("\n".join(lines))
            with pytest.raises(ValidationError) as caught:
                read_blocks_csv(path, ct)
            outcomes.append(str(caught.value))
        finally:
            csv.field_size_limit(limit)
        assert read_blocks_csv(path, ct)[1].values[1, 1] == float(over)
    assert outcomes == [f"{path}:6: field larger than field limit (40)"] * 2


def test_inputs_that_start_with_a_byte_order_mark_read_like_the_originals(tmp_path):
    ct = toy_ct((2, 1))
    rng = np.random.default_rng(9)
    blocks = [ForecastBlock(rng.normal(size=(3, 3)), ct, str(o)) for o in range(2)]
    write_blocks_csv(tmp_path / "base.csv", blocks)
    write_reports_jsonl(tmp_path / "reports.jsonl", [run_method("oct", blocks[0], sigma_ols(ct))])
    (tmp_path / "hier.txt").write_text("orders = 2,1\nu1: b1, b2\n")
    (tmp_path / "levels.csv").write_text("series,level\nu1,L0\nb1,L1\nb2,L1\n")
    readers = {
        "hier.txt": read_hierarchy_file,
        "base.csv": lambda path: [(b.origin_id, b.values.tolist()) for b in read_blocks_csv(path, ct)],
        "levels.csv": lambda path: read_levels_csv(path, ct),
        "reports.jsonl": read_reports_jsonl,
    }
    for name, read in readers.items():
        original = tmp_path / name
        assert not original.read_bytes().startswith(b"\xef\xbb\xbf")  # outputs carry none
        twin = tmp_path / f"bom-{name}"
        twin.write_bytes(b"\xef\xbb\xbf" + original.read_bytes())
        before, after = read(original), read(twin)
        if name == "hier.txt":
            assert np.array_equal(before[0], after[0]) and before[1:] == after[1:]
        else:
            assert before == after


def test_reading_residuals_peaks_below_2_6_times_the_file(tmp_path):
    # the text is dropped once split and the blocks go to ResidualSet as one
    # array, so the peak stays near twice the file (~2.4x)
    ct = pv324_structure()
    data = simulate_dataset(ct, n_origins=1, n_residual_origins=3, seed=1)
    path = tmp_path / "residuals.csv"
    write_residuals_csv(path, data.residuals, ct)
    size = path.stat().st_size
    assert size >= 1_000_000
    tracemalloc.start()
    try:
        back = read_residuals_csv(path, ct)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.array_equal(back.blocks, data.residuals.blocks)
    assert peak <= 2.6 * size


def test_csv_writer_matches_the_csv_module_on_numpy_scalars_and_a_lone_empty_cell(
    tmp_path,
):
    # under numpy 2 the csv module would write repr(np.float64(0.1)) as
    # "np.float64(0.1)"; the writer writes the float it holds. The csv module
    # quotes an empty cell only when it is the row's only one
    row = [np.float64(0.1), np.float32(0.1), np.int64(3), 7, -0.0, "", "a,b", 'q"', "x\ny"]
    expected = [0.1, float(np.float32(0.1)), 3, 7, -0.0, "", "a,b", 'q"', "x\ny"]
    _write_csv(tmp_path / "mine.csv", ["h1", ""], [row, [""]])
    with open(tmp_path / "module.csv", "w", newline="") as fh:
        csv.writer(fh).writerows([["h1", ""], expected, [""]])
    assert (tmp_path / "mine.csv").read_bytes() == (tmp_path / "module.csv").read_bytes()


def test_open_output_creates_directories_and_names_a_path_it_cannot_write(tmp_path):
    with open_output(tmp_path / "a" / "b" / "out.txt") as fh:
        fh.write("x\n")
    assert (tmp_path / "a" / "b" / "out.txt").read_bytes() == b"x\n"
    (tmp_path / "file").write_text("")
    for path in (tmp_path / "file" / "out.txt", tmp_path / "a", "nul\0.txt"):
        with pytest.raises(ValidationError, match=f"cannot write {re.escape(str(path))}: "):
            with open_output(path):
                pass
    # a failed write, as on a full disk
    with pytest.raises(ValidationError, match="out.txt: No space left on device"):
        with open_output(tmp_path / "out.txt"):
            raise OSError(errno.ENOSPC, "No space left on device")


def test_a_failed_write_leaves_the_target_as_it_was_and_no_temporary(tmp_path):
    def rows():
        yield ["a", 1.0]
        raise OSError(errno.ENOSPC, "No space left on device")

    old = tmp_path / "old.csv"
    old.write_bytes(b"previous\n")
    for path in (old, tmp_path / "new.csv"):
        message = f"cannot write {re.escape(str(path))}: No space"
        with pytest.raises(ValidationError, match=message):
            _write_csv(path, ["name", "value"], rows())
    # any other failure is re-raised as it is, and also leaves nothing behind
    with pytest.raises(KeyError):
        with open_output(old) as fh:
            fh.write("partial")
            raise KeyError("boom")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["old.csv"]
    assert old.read_bytes() == b"previous\n"


def test_committing_moves_every_output_into_place_together(tmp_path):
    first, second = tmp_path / "first.txt", tmp_path / "second.txt"
    first.write_text("old")
    with committing():
        for path in (first, second):
            with open_output(path) as fh:
                fh.write("new")
        assert first.read_text() == "old" and not second.exists()
        assert len(list(tmp_path.glob(".*.tmp"))) == 2
    assert first.read_text() == second.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.txt", "second.txt"]
    # an exception, or a target that is a directory, moves none of them
    second.unlink()
    with pytest.raises(RuntimeError):
        with committing():
            with open_output(first) as fh:
                fh.write("newer")
            raise RuntimeError
    second.mkdir()
    with pytest.raises(ValidationError, match=f"cannot write {re.escape(str(second))}: "):
        with committing():
            for path in (first, second):
                with open_output(path) as fh:
                    fh.write("newer")
    assert first.read_text() == "new"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["first.txt", "second.txt"]
    # outside a commit an output moves into place as soon as it is closed
    with open_output(first) as fh:
        fh.write("newest")
    assert first.read_text() == "newest"


def test_blocks_csv_with_every_value_blank_names_the_first_line(tmp_path):
    # one position per series: every value text is empty, and numpy would
    # only warn that the input holds no data
    ct = toy_ct((1,))
    path = tmp_path / "blank.csv"
    path.write_text("origin,series,k1_1\n0,u1,\n0,b1,\n0,b2,\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValidationError, match=r"blank\.csv:2: bad number"):
            read_blocks_csv(path, ct)
    assert not caught


def test_history_csv_reads_crlf_and_a_header_wider_than_m(tmp_path):
    ct = toy_ct((2, 1))  # m = 2; pers-bu uses the last two columns
    path = tmp_path / "hist.csv"
    path.write_bytes(
        b"origin,series,h1,h2,h3\r\n0,b2,4.0,5.0,6.0\r\n\r\n0,b1,1.0,2.0,3.0\r\n"
    )
    back = read_history_csv(path, ct)
    assert list(back) == ["0"]
    assert back["0"].tolist() == [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]]
    path.write_bytes(b"origin,series,h1,h2,h3\r\n0,b1,1.0,2.0\r\n")
    with pytest.raises(ValidationError, match=r"hist\.csv:2: .*2 values, expected 3"):
        read_history_csv(path, ct)


def test_history_csv_malformed_rows_name_line(tmp_path):
    ct = toy_ct((2, 1))
    path = tmp_path / "hist.csv"
    header = "origin,series,h1,h2\n"
    path.write_text(header + "0,b1,1.0,2.0\n0,b2,1.0,oops\n")
    with pytest.raises(ValidationError, match=r"hist\.csv:3: .*oops"):
        read_history_csv(path, ct)
    path.write_text(header + "0,b1,1.0,2.0\n0,b2,1.0\n")
    with pytest.raises(ValidationError, match=r"hist\.csv:3"):
        read_history_csv(path, ct)
    path.write_text(header + "0,b1,1.0,2.0\n0,b2,1.0,2.0\n0,b1,3.0,4.0\n")
    with pytest.raises(ValidationError, match=r"hist\.csv:4: .*duplicate"):
        read_history_csv(path, ct)


def test_reports_jsonl_round_trip_and_timings_toggle(tmp_path):
    ct = toy_ct((2, 1))
    block = ForecastBlock(np.arange(9.0).reshape(3, 3), ct)
    tracemalloc.start()  # a traced peak is there, but written only on request
    try:
        report = run_method("oct", block, sigma_ols(ct))
    finally:
        tracemalloc.stop()
    assert report.peak_mem > 0
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl(path, [report])
    (record,) = read_reports_jsonl(path)
    assert not {"elapsed", "prepare_s", "peak_mem", "prepare_peak_mem"} & set(record)
    assert record["method"] == "oct"
    assert record["iterations"] == 1
    write_reports_jsonl(path, [report], timings=True)
    (record,) = read_reports_jsonl(path)
    assert record["elapsed"] > 0 and record["prepare_s"] > 0
    assert "peak_mem" not in record and "prepare_peak_mem" not in record
    # stable key order for byte-identical streams
    line = path.read_text().strip()
    assert json.loads(line) == record


def test_reports_jsonl_rejects_a_non_json_line_naming_it(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text('{"method": "oct"}\n\nnot json\n')
    with pytest.raises(ValidationError, match=r"reports\.jsonl:3: .*JSON"):
        read_reports_jsonl(path)
    path.write_text('{"method": "oct"}\n[1, 2]\n')
    with pytest.raises(ValidationError, match=r"reports\.jsonl:2: expected a report"):
        read_reports_jsonl(path)


@pytest.mark.parametrize(
    "record, field, kind",
    [
        ('{"method": "x", "trace": ["abc"]}', "trace", "list of numbers"),
        ('{"method": "x", "trace": 5}', "trace", "list of numbers"),
        ('{"method": "x", "elapsed": "slow"}', "elapsed", "number"),
        ('{"method": "x", "delta": "a"}', "delta", "number"),
        ('{"method": 3}', "method", "str"),
        ('{"method": "x", "peak_mem": [1]}', "peak_mem", "int"),
        ('{"method": "x", "prepare_s": "slow"}', "prepare_s", "number"),
        ('{"method": "x", "prepare_peak_mem": 2.5}', "prepare_peak_mem", "int"),
        ('{"method": "x", "iterations": true}', "iterations", "int"),
        ('{"method": "x", "coherence": {"cs": 0.0}}', "coherence", "{cs, te} numbers"),
    ],
)
def test_reports_jsonl_rejects_a_field_of_the_wrong_type_naming_it(
    tmp_path, record, field, kind
):
    path = tmp_path / "reports.jsonl"
    path.write_text('{"method": "oct"}\n' + record + "\n")
    with pytest.raises(
        ValidationError,
        match=re.escape(f"reports.jsonl:2: field {field}: expected {kind}"),
    ):
        read_reports_jsonl(path)


def test_reports_jsonl_reads_nan_integers_as_numbers_and_ignores_unknown_keys(tmp_path):
    path = tmp_path / "reports.jsonl"
    path.write_text(
        '{"method": "x", "trace": [NaN, 1, 2.5], "delta": 1, "elapsed": 0,'
        ' "coherence": {"cs": 0, "te": -Infinity}, "extra": [null]}\n'
    )
    (record,) = read_reports_jsonl(path)
    assert np.isnan(record["trace"][0]) and record["extra"] == [None]


def test_reports_jsonl_rejects_a_line_nested_too_deeply_naming_it(tmp_path):
    # json.loads raises RecursionError, which used to end in a traceback
    path = tmp_path / "reports.jsonl"
    path.write_text('{"method": "oct"}\n' + "[" * 100_000 + "]" * 100_000 + "\n")
    with pytest.raises(ValidationError, match=r"reports\.jsonl:2: not valid JSON: "):
        read_reports_jsonl(path)


def test_report_dict_carries_delta_for_iterative():

    ct = toy_ct((2, 1))
    block = ForecastBlock(np.arange(9.0).reshape(3, 3), ct)
    sig = sigma_ols(ct)
    record = report_dict(run_method("ite-tcs", block, sig, sig, delta=1e-7))
    assert record["delta"] == 1e-7
    record = report_dict(run_method("oct", block, sig))
    assert "delta" not in record


def test_levels_csv_reads_levels_in_structure_order(tmp_path):
    ct = toy_ct()
    path = tmp_path / "levels.csv"
    # rows in any order, the header optional, blank lines skipped
    path.write_text("series,level\nb2,L1\n\nu1,L0\nb1,L1\n")
    assert read_levels_csv(path, ct) == ("L0", "L1", "L1")
    path.write_text("b1,L1\nu1,L0\nb2,L1\n")
    assert read_levels_csv(path, ct) == ("L0", "L1", "L1")


@pytest.mark.parametrize(
    "text, message",
    [
        ("series,level\nu1,L0\nb1\nb2,L1\n", "levels.csv:3: expected series,level"),
        ("series,level\nu1,L0\nb1,L1\nb2,L1\nb1,L2\n", "levels.csv:5: series 'b1'"),
        ("series,level\nu1,L0\nb1,L1\n", "levels.csv: level map is missing series"),
        (
            "series,level\nu1,L0\nb1,L1\nb2,L1\nzz,L9\n",
            "levels.csv:5: series 'zz' is not in the hierarchy",
        ),
    ],
    ids=["short-row", "duplicate", "missing", "unknown"],
)
def test_levels_csv_errors_name_the_file(tmp_path, text, message):
    path = tmp_path / "levels.csv"
    path.write_text(text)
    with pytest.raises(ValidationError, match=message):
        read_levels_csv(path, toy_ct())
