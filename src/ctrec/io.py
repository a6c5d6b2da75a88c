"""File formats: hierarchy spec files, wide forecast CSVs, residual CSVs,
series-to-level maps, JSON-lines reports, and the evaluation tables.

The wide forecast format mirrors the canonical layout so a row round-trips
to one series' temporal block: columns are labeled ``k{order}_{index}`` in
canonical order (coarsest first). Floats are written with ``repr`` so equal
runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import json
from contextlib import contextmanager
from io import StringIO
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .covariance import ResidualSet
from .errors import ValidationError
from .evaluate import NemenyiResult, NrmseTable, PerfRow
from .hierarchy import CrossTemporalStructure, TemporalStructure
from .reconcile import ForecastBlock, ReconcileReport


@contextmanager
def open_input(path):
    """Open an input file for reading; a missing, unreadable or undecodable
    file raises ValidationError naming it."""
    try:
        fh = open(path, newline="")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path}: {reason}")
    with fh:
        try:
            yield fh
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {path}: {exc}")


def _fmt(value: float) -> str:
    return repr(float(value))


def position_labels(te: TemporalStructure) -> list[str]:
    """Canonical column labels: k{order}_{index within the order}."""
    return [f"k{k}_{j + 1}" for k in te.orders for j in range(te.m // k)]


# -- hierarchy spec files ----------------------------------------------------


def read_hierarchy_file(path) -> tuple[np.ndarray, list[str], list[int]]:
    """Parse a hierarchy spec file.

    Grammar (one statement per line, '#' starts a comment):

        orders = 24,12,8,6,4,3,2,1
        total: plant1, plant2, plant3
        zone1: plant1, plant2

    Each ``upper: bottom[, bottom...]`` line adds one upper series summing
    the named bottoms (repeating a name increments its weight). Alternately
    a single ``matrix = weights.csv`` line (path relative to this file)
    loads an explicit weight matrix: header row names the bottom series,
    first column names the uppers. Bottom order is first appearance.

    Returns (aggregation weights, labels uppers-then-bottoms, orders).
    """
    path = Path(path)
    orders: list[int] | None = None
    agg_rows: list[tuple[str, list[str]]] = []
    matrix_path: Path | None = None
    with open_input(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and ":" not in line.split("=", 1)[0]:
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key == "orders":
                try:
                    orders = [int(tok) for tok in value.replace(",", " ").split()]
                except ValueError:
                    raise ValidationError(f"{path}:{lineno}: bad orders {value!r}")
            elif key == "matrix":
                matrix_path = path.parent / value.strip()
            else:
                raise ValidationError(f"{path}:{lineno}: unknown key {key!r}")
        elif ":" in line:
            upper, _, rest = line.partition(":")
            bottoms = [tok.strip() for tok in rest.split(",") if tok.strip()]
            if not upper.strip() or not bottoms:
                raise ValidationError(f"{path}:{lineno}: malformed aggregation row")
            agg_rows.append((upper.strip(), bottoms))
        else:
            raise ValidationError(f"{path}:{lineno}: unparsable line {line!r}")
    if orders is None:
        raise ValidationError(f"{path}: missing 'orders =' line")
    if matrix_path is not None and agg_rows:
        raise ValidationError(f"{path}: give either aggregation rows or a matrix, not both")

    if matrix_path is not None:
        uppers, bottom_labels, agg = _read_weight_matrix(matrix_path)
    else:
        if not agg_rows:
            raise ValidationError(f"{path}: no aggregation rows")
        column: dict[str, int] = {}  # bottom label -> column, first appearance first
        rows, columns = [], []
        for r, (_, bottoms) in enumerate(agg_rows):
            for b in bottoms:
                rows.append(r)
                columns.append(column.setdefault(b, len(column)))
        bottom_labels = list(column)
        uppers = [u for u, _ in agg_rows]
        agg = np.zeros((len(uppers), len(bottom_labels)))
        np.add.at(agg, (rows, columns), 1.0)  # a repeated name adds to its weight
    overlap = set(uppers) & set(bottom_labels)
    if overlap:
        raise ValidationError(f"{path}: labels on both sides: {sorted(overlap)}")
    return agg, uppers + bottom_labels, orders


def _read_weight_matrix(path: Path):
    with open_input(path) as fh:
        rows = list(csv.reader(fh))
    if len(rows) < 2 or len(rows[0]) < 2:
        raise ValidationError(f"{path}: weight matrix needs a header and rows")
    bottom_labels = [c.strip() for c in rows[0][1:]]
    uppers, weights = [], []
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or not any(cell.strip() for cell in row):
            continue
        if len(row) != len(bottom_labels) + 1:
            raise ValidationError(f"{path}:{lineno}: expected {len(bottom_labels) + 1} cells")
        uppers.append(row[0].strip())
        try:
            weights.append([float(cell) for cell in row[1:]])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad weight: {exc}")
    return uppers, bottom_labels, np.array(weights)


def write_hierarchy_file(path, ct: CrossTemporalStructure) -> None:
    """Write a hierarchy spec file that round-trips through the reader.

    Nonnegative-integer hierarchies use the row grammar; anything else falls
    back to an explicit weight-matrix CSV next to the file.
    """
    path = Path(path)
    cs = ct.cs
    lines = ["orders = " + ",".join(str(k) for k in ct.te.orders)]
    bottoms = cs.labels[cs.n_upper :]
    integral = bool(np.all((cs.agg >= 0) & (cs.agg == np.round(cs.agg))))
    if integral:
        for r in range(cs.n_upper):
            names = []
            for j, b in enumerate(bottoms):
                names.extend([b] * int(cs.agg[r, j]))
            lines.append(f"{cs.labels[r]}: " + ", ".join(names))
    else:
        weights_name = path.stem + "_weights.csv"
        with open(path.parent / weights_name, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["series"] + list(bottoms))
            for r in range(cs.n_upper):
                writer.writerow([cs.labels[r]] + [_fmt(v) for v in cs.agg[r]])
        lines.append(f"matrix = {weights_name}")
    path.write_text("\n".join(lines) + "\n")


# -- forecast and residual CSVs ----------------------------------------------


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


def write_blocks_csv(path, blocks: Sequence[ForecastBlock]) -> None:
    """Wide format, one row per (origin, series), canonical column order."""
    if not blocks:
        raise ValidationError("no blocks to write")
    ct = blocks[0].structure
    _write_keyed_csv(
        path, position_labels(ct.te), ct.cs.labels,
        ((b.origin_id, b.values) for b in blocks),
    )


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


def read_blocks_csv(path, ct: CrossTemporalStructure) -> list[ForecastBlock]:
    """Read the wide format back into per-origin blocks, sorted by origin.

    A well-formed file is parsed in one vectorized pass; anything irregular
    is read again line by line, which names the file and line at fault.
    """
    with open_input(path) as fh:
        text = fh.read()
    values = _parse_blocks(text, ct)
    if values is None:
        values = _read_block_rows(path, text, ct)
    blocks = [ForecastBlock(block, ct, origin) for origin, block in values]
    if not blocks:
        raise ValidationError(f"{path}: no data rows")
    return blocks


def _parse_blocks(text: str, ct: CrossTemporalStructure):
    """(origin, block) pairs sorted by origin from a well-formed file, or
    None when anything calls for the line reader: a quote, a bare carriage
    return, a non-ASCII character, a short, unknown, duplicate or missing
    row, or a cell numpy does not parse."""
    if '"' in text or "\0" in text or not text.isascii():
        return None
    if text.count("\r") != text.count("\r\n"):  # a bare carriage return
        return None
    # a CRLF line keeps its "\r" in the values, where numpy reads it as the end
    header, *lines = text.split("\n")
    expected = ["origin", "series"] + position_labels(ct.te)
    if header.removesuffix("\r").split(",") != expected:
        return None
    rows = [line.split(",", 2) for line in lines if line]
    if not rows or any(len(row) != 3 for row in rows):
        return None
    origins, series, cells = zip(*rows)
    if "" in cells or "\r" in cells:  # numpy would skip the line
        return None
    index = {label: i for i, label in enumerate(ct.cs.labels)}
    if not set(series) <= index.keys():
        return None
    names = sorted(set(origins))
    if len(rows) != len(names) * ct.n_series or len(set(zip(origins, series))) != len(rows):
        return None  # a duplicate row, or an origin missing a series
    try:
        numbers = np.loadtxt(cells, delimiter=",", comments=None, ndmin=2)
    except ValueError:
        return None
    if numbers.shape != (len(rows), ct.n_positions):
        return None
    slot = {name: o for o, name in enumerate(names)}
    out = np.empty((len(names), ct.n_series, ct.n_positions))
    out[[slot[o] for o in origins], [index[s] for s in series]] = numbers
    return list(zip(names, out))


def _read_block_rows(path, text: str, ct: CrossTemporalStructure):
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


def write_residuals_csv(path, residuals: ResidualSet, ct: CrossTemporalStructure) -> None:
    """One row per (origin, series); origins are insertion-numbered."""
    _write_keyed_csv(
        path, position_labels(ct.te), ct.cs.labels,
        ((f"{o:04d}", block) for o, block in enumerate(residuals.blocks)),
    )


def read_residuals_csv(path, ct: CrossTemporalStructure) -> ResidualSet:
    blocks = read_blocks_csv(path, ct)
    return ResidualSet(np.stack([b.values for b in blocks]))


def write_history_csv(path, histories: np.ndarray, ct: CrossTemporalStructure) -> None:
    """Previous-cycle bottom observations: one row per (origin, bottom series)."""
    _write_keyed_csv(
        path, [f"h{t + 1}" for t in range(ct.te.m)], ct.cs.labels[ct.cs.n_upper :],
        ((f"{o:04d}", hist) for o, hist in enumerate(histories)),
    )


def read_history_csv(path, ct: CrossTemporalStructure) -> dict[str, np.ndarray]:
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


# -- level maps ------------------------------------------------------------------


def read_levels_csv(path, ct: CrossTemporalStructure) -> tuple[str, ...]:
    """A ``series,level`` map (the header row is optional) as the level of
    each series in structure order. A short row, a series listed twice, a
    series the structure does not have or one of its series left out is an
    error naming the file."""
    known = set(ct.cs.labels)
    mapping: dict[str, str] = {}
    with open_input(path) as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0] == "series"):
                continue
            if len(row) < 2:
                raise ValidationError(f"{path}:{lineno}: expected series,level")
            if row[0] in mapping:
                raise ValidationError(f"{path}:{lineno}: series {row[0]!r} listed twice")
            if row[0] not in known:
                raise ValidationError(
                    f"{path}:{lineno}: series {row[0]!r} is not in the hierarchy"
                )
            mapping[row[0]] = row[1]
    missing = [s for s in ct.cs.labels if s not in mapping]
    if missing:
        raise ValidationError(f"{path}: level map is missing series {missing[:5]}")
    return tuple(mapping[s] for s in ct.cs.labels)


# -- reports -------------------------------------------------------------------


def report_dict(
    report: ReconcileReport, timings: bool = False, memory: bool = False
) -> dict:
    """JSON-ready view of a report. The wall time (``timings``) and peak
    memory (``memory``) fields are opt-in so equal configurations produce
    byte-identical streams."""
    out = {
        "origin": report.block.origin_id,
        "method": report.method,
        "covariance": report.covariance,
        "iterations": report.iterations,
        "converged": report.converged,
        "trace": [float(g) for g in report.trace],
        "coherence": {"cs": report.coherence[0], "te": report.coherence[1]},
        "flags": list(report.flags),
    }
    if report.delta is not None:
        out["delta"] = report.delta
    if timings:
        out["elapsed"] = report.elapsed
    if memory:
        out["peak_mem"] = report.peak_mem
    return out


def write_reports_jsonl(
    path,
    reports: Iterable[ReconcileReport],
    timings: bool = False,
    memory: bool = False,
) -> None:
    with open(path, "w") as fh:
        for report in reports:
            fh.write(json.dumps(report_dict(report, timings, memory), sort_keys=True))
            fh.write("\n")


def read_reports_jsonl(path) -> list[dict]:
    records = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: not valid JSON: {exc}")
            if not isinstance(record, dict) or "method" not in record:
                raise ValidationError(f"{path}:{lineno}: expected a report object")
            records.append(record)
    return records


# -- evaluation tables -----------------------------------------------------------


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
