"""Tests for file formats: hierarchy specs, wide CSVs, reports."""

import json

import numpy as np
import pytest

from ctrec.covariance import ResidualSet
from ctrec.errors import ValidationError
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.io import (
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
from ctrec.reconcile import ForecastBlock, reconcile_oct
from ctrec.covariance import sigma_ols
from helpers import toy_ct


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
    report = reconcile_oct(block, sigma_ols(ct), measure_memory=True)
    path = tmp_path / "reports.jsonl"
    write_reports_jsonl(path, [report])
    (record,) = read_reports_jsonl(path)
    assert "elapsed" not in record and "peak_mem" not in record
    assert record["method"] == "oct"
    assert record["iterations"] == 1
    write_reports_jsonl(path, [report], timings=True)
    (record,) = read_reports_jsonl(path)
    assert record["elapsed"] > 0
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


def test_report_dict_carries_delta_for_iterative():
    from ctrec.reconcile import reconcile_iterative

    ct = toy_ct((2, 1))
    block = ForecastBlock(np.arange(9.0).reshape(3, 3), ct)
    sig = sigma_ols(ct)
    record = report_dict(reconcile_iterative(block, sig, sig, delta=1e-7))
    assert record["delta"] == 1e-7
    record = report_dict(reconcile_oct(block, sig))
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
