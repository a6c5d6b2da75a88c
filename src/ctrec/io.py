"""File formats: hierarchy spec files, wide forecast CSVs, residual CSVs,
series-to-level maps, JSON-lines reports, and the evaluation tables.

The wide forecast format mirrors the canonical layout so a row round-trips
to one series' temporal block: columns are labeled ``k{order}_{index}`` in
canonical order (coarsest first). Floats are written with ``repr`` so equal
runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import errno
import json
import os
import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from io import StringIO
from itertools import chain
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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
        fh = open(path, newline="", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        reason = getattr(exc, "strerror", None) or exc
        raise ValidationError(f"cannot read {path}: {reason}")
    with fh:
        try:
            yield fh
        except (OSError, UnicodeDecodeError) as exc:
            raise ValidationError(f"cannot read {path}: {exc}")


def _csv_rows(path, lines):
    """The csv module's rows of ``lines``; a line it rejects (one holding a
    cell over its field size limit) raises ValidationError naming it."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise ValidationError(f"{path}:{reader.line_num}: {exc}")


# The finished outputs of the command in progress, as (temporary, target)
# pairs that committing() moves into place together; None outside it.
_PENDING: ContextVar[list | None] = ContextVar("ctrec_pending_outputs", default=None)


def _unwritable(path, exc: Exception) -> ValidationError:
    reason = getattr(exc, "strerror", None) or exc
    return ValidationError(f"cannot write {path}: {reason}")


@contextmanager
def open_output(path):
    """Open an output file for writing, creating its directory; a path that
    cannot be created or written raises ValidationError naming it.

    The text goes to a hidden temporary beside the target,
    ``.<name>.<pid>.tmp``. Once it is closed, the temporary replaces the
    target, or inside ``committing()`` waits for the command to end. It is
    removed on any failure, so the target never holds a partial file.
    """
    path = Path(path)
    temp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fh = open(temp, "w", newline="", encoding="utf-8")
    except (OSError, ValueError) as exc:  # ValueError: a NUL byte in the path
        raise _unwritable(path, exc)
    try:
        with fh:
            yield fh
        pending = _PENDING.get()
        if pending is None:
            _move_into_place([(temp, path)])
        else:
            pending.append((temp, path))
    except BaseException as exc:
        temp.unlink(missing_ok=True)
        if isinstance(exc, OSError):
            raise _unwritable(path, exc)
        raise


def _move_into_place(outputs: list[tuple[Path, Path]]) -> None:
    """Replace each target by its temporary, once no target is a directory."""
    for _, path in outputs:
        if path.is_dir():
            raise ValidationError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    for temp, path in outputs:
        try:
            os.replace(temp, path)
        except OSError as exc:
            raise _unwritable(path, exc)


@contextmanager
def committing():
    """Hold back every output that ``open_output`` finishes inside this
    block. When the block ends without an exception, move them all into
    place together; on an exception, or when a target is a directory,
    remove them all and leave every target as it was."""
    pending: list[tuple[Path, Path]] = []
    token = _PENDING.set(pending)
    try:
        yield
        _move_into_place(pending)
    finally:
        _PENDING.reset(token)
        for temp, _ in pending:  # a temporary moved into place is gone already
            temp.unlink(missing_ok=True)


def _write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write ``header`` and ``rows`` as ``csv.writer``'s default dialect does,
    one join per row: text quoted by the csv module's rules, floats as
    ``repr``, integers as ``str`` (numpy scalars as the Python numbers they
    hold) and CRLF line ends."""
    sink = StringIO()
    writer = csv.writer(sink)
    texts: dict[str, str] = {}

    def render(cell) -> str:
        if isinstance(cell, np.generic):
            cell = cell.item()
        if not isinstance(cell, str):
            return repr(cell) if isinstance(cell, float) else str(cell)
        if cell not in texts:  # beside a second cell: a lone empty cell is quoted
            writer.writerow((cell, ""))
            texts[cell] = sink.getvalue()[:-3]  # less ",\r\n"
            sink.seek(0)
            sink.truncate()
        return texts[cell]

    with open_output(path) as fh:
        for row in chain([header], rows):
            line = ",".join([repr(c) if type(c) is float else render(c) for c in row])
            fh.write((line if line or not row else '""') + "\r\n")  # [""] is quoted


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
    first column names the uppers. Bottom order is first appearance. A key
    given twice is an error naming the line that repeats it.

    Returns (aggregation weights, labels uppers-then-bottoms, orders).
    """
    path = Path(path)
    orders: list[int] | None = None
    agg_rows: list[tuple[str, list[str]]] = []
    matrix_path: Path | None = None
    keys: set[str] = set()
    with open_input(path) as fh:
        text = fh.read()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line and ":" not in line.split("=", 1)[0]:
            key, _, value = line.partition("=")
            key = key.strip().lower()
            if key in keys:
                raise ValidationError(f"{path}:{lineno}: repeated key {key!r}")
            keys.add(key)
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
        rows = list(_csv_rows(path, fh))
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

    Nonnegative-integer hierarchies whose labels are non-empty and free of
    ``,`` ``:`` ``#`` ``=`` and line breaks use the row grammar; anything
    else falls back to an explicit weight-matrix CSV next to the file.
    """
    path = Path(path)
    cs = ct.cs
    bad = [label for label in cs.labels if label != label.strip()]
    if bad:  # both readers strip labels
        raise ValidationError(f"series label {bad[0]!r} would lose its outer whitespace")
    lines = ["orders = " + ",".join(str(k) for k in ct.te.orders)]
    bottoms = cs.labels[cs.n_upper :]
    integral = bool(np.all((cs.agg >= 0) & (cs.agg == np.round(cs.agg))))
    # splitlines() == [label]: non-empty, and no line boundary
    plain = all(s.splitlines() == [s] and not set(s) & set(",:#=") for s in cs.labels)
    if integral and plain:
        for r in range(cs.n_upper):
            names = []
            for j, b in enumerate(bottoms):
                names.extend([b] * int(cs.agg[r, j]))
            lines.append(f"{cs.labels[r]}: " + ", ".join(names))
    else:
        weights_name = path.stem + "_weights.csv"
        _write_csv(path.parent / weights_name, ["series", *bottoms], (
            [cs.labels[r], *map(float, cs.agg[r])] for r in range(cs.n_upper)
        ))
        lines.append(f"matrix = {weights_name}")
    with open_output(path) as fh:
        fh.write("\n".join(lines) + "\n")


# -- forecast and residual CSVs ----------------------------------------------


def _write_keyed_csv(path, columns: list[str], labels, tables) -> None:
    """A wide CSV with one row per (origin, series): ``tables`` yields
    (origin, array) pairs whose row i holds series ``labels[i]``."""
    _write_csv(path, ["origin", "series", *columns], (
        [origin, label, *row.tolist()]
        for origin, table in tables
        for label, row in zip(labels, np.asarray(table, dtype=float))
    ))


def write_blocks_csv(path, blocks: Sequence[ForecastBlock]) -> None:
    """Wide format, one row per (origin, series), canonical column order."""
    if not blocks:
        raise ValidationError("no blocks to write")
    ct = blocks[0].structure
    _write_keyed_csv(
        path, position_labels(ct.te), ct.cs.labels,
        ((b.origin_id, b.values) for b in blocks),
    )


def _split_rows(lines):
    """Each line's key cells and value text, as the csv module splits a line
    with no quote. A CRLF end stays in the value text: numpy reads it as the
    end of the line."""
    for line in lines:
        row = line.split(",", 2)
        if len(row) < 3:  # a blank or short line: the line end is in a key
            line = line.removesuffix("\r")
            row = line.split(",") if line else []
        yield row


def _read_keyed_csv(path, labels: Sequence[str], check_columns) -> tuple[list, np.ndarray]:
    """The sorted origins and an (origins, len(labels), width) array from a
    wide CSV with one row per (origin, series), row i of each origin's table
    holding series ``labels[i]``. The header starts ``origin,series``;
    ``check_columns`` vets the rest of it. Blank lines are skipped. The first
    faulty row in file order is named as ``file:line``: a short row, a
    repeated (origin, series), an unknown series, any cell over the csv
    module's size limit, a wrong width or a bad number. An origin missing a
    series is an error naming the file. The text is split once: by the csv
    module when it holds a quote or a bare carriage return, otherwise by
    ``str.split``, which gives the same cells and faults.
    """
    with open_input(path) as fh:
        text = fh.read()
    lines = None if '"' in text else text.split("\n")
    # plain when every carriage return ends a line: one scan of the text
    plain = lines is not None and text.count("\r") == sum(
        line.endswith("\r") for line in lines[:-1]
    )
    limit = csv.field_size_limit()
    if plain:
        lines = iter(lines)  # exhausted, it frees the lines
        header, rows = next(lines).removesuffix("\r").split(","), _split_rows(lines)
        if max(map(len, header)) > limit:
            raise ValidationError(f"{path}:1: field larger than field limit ({limit})")
    else:
        rows = _csv_rows(path, StringIO(text, newline=""))
        header = next(rows, None)
    del text  # only its split is read from here on
    if header is None or header[:2] != ["origin", "series"]:
        raise ValidationError(f"{path}: expected header origin,series,...")
    check_columns(header[2:])
    width = len(header) - 2
    index = {label: i for i, label in enumerate(labels)}
    kept: dict[tuple[str, str], tuple[int, list[str]]] = {}  # key -> (line, row)
    fault = None
    try:  # the csv module raises at a line holding a cell over its limit
        for lineno, row in enumerate(rows, start=2):
            if not row:
                continue
            if plain and max(map(len, row)) > limit and max(  # split as the csv module does
                    map(len, ",".join(row).removesuffix("\r").split(","))) > limit:
                fault = f"field larger than field limit ({limit})"
            elif len(row) < 2:
                fault = "expected origin,series,values..."
            elif (row[0], row[1]) in kept:
                fault = f"duplicate row for origin {row[0]!r}, series {row[1]!r}"
            elif row[1] not in index:
                fault = f"unknown series {row[1]!r}"
            if fault:
                fault = f"{path}:{lineno}: {fault}"
                break
            kept[row[0], row[1]] = lineno, row
    except ValidationError as exc:
        fault = str(exc)
    # a bad width or number on a row before a faulty key is reported first
    numbers = _numbers(path, list(kept.values()), width, plain)
    if fault:
        raise ValidationError(fault)
    origins = sorted({origin for origin, _ in kept})
    if len(kept) < len(origins) * len(labels):  # an origin is missing a series
        for origin in origins:
            missing = set(labels) - {series for o, series in kept if o == origin}
            if missing:
                raise ValidationError(
                    f"{path}: origin {origin} is missing series {sorted(missing)[:5]}"
                )
    slot = {origin: o for o, origin in enumerate(origins)}
    tables = np.empty((len(origins), len(labels), width))
    tables[[slot[o] for o, _ in kept], [index[s] for _, s in kept]] = numbers
    return origins, tables


def _numbers(path, rows, width: int, plain: bool) -> np.ndarray:
    """The numbers of ``rows``, (line number, row) pairs: the csv module's
    cells, or in a plain file the two keys and the value text. A number is
    what ``float`` accepts. One ``np.loadtxt`` call parses a plain file's
    value texts; the rows are parsed with ``float``, in line order, when the
    csv module split them, when numpy rejects the texts or skips a blank
    one, and when they hold one of ``\\x1c``-``\\x1f``: blanks to numpy, not
    to float (over every code point, the only cells numpy accepts and float
    rejects)."""
    if plain and not any(c in row[-1] for _, row in rows for c in "\x1c\x1d\x1e\x1f"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # numpy warns when every line is blank
            try:
                texts = [row[2] if len(row) == 3 else "" for _, row in rows]
                numbers = np.loadtxt(texts, delimiter=",", comments=None, ndmin=2)
                if numbers.shape == (len(rows), width):
                    return numbers
            except (ValueError, UserWarning):
                pass
    numbers = []
    for lineno, row in rows:
        if plain:  # the csv module's cells
            row = ",".join(row).removesuffix("\r").split(",")
        if len(row) != width + 2:
            raise ValidationError(
                f"{path}:{lineno}: series {row[1]!r} has {len(row) - 2} values, "
                f"expected {width}"
            )
        try:
            numbers.append([float(v) for v in row[2:]])
        except ValueError as exc:
            raise ValidationError(f"{path}:{lineno}: bad number: {exc}")
    return np.array(numbers).reshape(len(rows), width)


def _read_forecast_csv(path, ct: CrossTemporalStructure) -> tuple[list, np.ndarray]:
    """The origins and (origins, series, positions) values of a wide CSV
    whose columns are the canonical positions."""
    expected = position_labels(ct.te)

    def check_columns(columns):
        if columns != expected:
            raise ValidationError(f"{path}: position columns {columns} != canonical {expected}")

    origins, tables = _read_keyed_csv(path, ct.cs.labels, check_columns)
    if not origins:
        raise ValidationError(f"{path}: no data rows")
    return origins, tables


def read_blocks_csv(path, ct: CrossTemporalStructure) -> list[ForecastBlock]:
    """Read the wide format back into per-origin blocks, sorted by origin."""
    return [ForecastBlock(t, ct, o) for o, t in zip(*_read_forecast_csv(path, ct))]


def write_residuals_csv(path, residuals: ResidualSet, ct: CrossTemporalStructure) -> None:
    """One row per (origin, series); origins are insertion-numbered."""
    _write_keyed_csv(
        path, position_labels(ct.te), ct.cs.labels,
        ((f"{o:04d}", block) for o, block in enumerate(residuals.blocks)),
    )


def read_residuals_csv(path, ct: CrossTemporalStructure) -> ResidualSet:
    return ResidualSet(_read_forecast_csv(path, ct)[1])


def write_history_csv(path, histories: np.ndarray, ct: CrossTemporalStructure) -> None:
    """Previous-cycle bottom observations: one row per (origin, bottom series)."""
    _write_keyed_csv(
        path, [f"h{t + 1}" for t in range(ct.te.m)], ct.cs.labels[ct.cs.n_upper :],
        ((f"{o:04d}", hist) for o, hist in enumerate(histories)),
    )


def read_history_csv(path, ct: CrossTemporalStructure) -> dict[str, np.ndarray]:
    """Histories keyed by origin id, rows in bottom-label order, with every
    column of the file (at least m; pers-bu uses the last m)."""

    def check_columns(columns):
        if len(columns) < ct.te.m:
            raise ValidationError(
                f"{path}: history has {len(columns)} columns, needs at least {ct.te.m}"
            )

    return dict(zip(*_read_keyed_csv(path, ct.cs.labels[ct.cs.n_upper :], check_columns)))


# -- level maps ------------------------------------------------------------------


def read_levels_csv(path, ct: CrossTemporalStructure) -> tuple[str, ...]:
    """A ``series,level`` map (the header row is optional) as the level of
    each series in structure order. A short row, a series listed twice, a
    series the structure does not have or one of its series left out is an
    error naming the file."""
    known = set(ct.cs.labels)
    mapping: dict[str, str] = {}
    with open_input(path) as fh:
        for lineno, row in enumerate(_csv_rows(path, fh), start=1):
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


# The fields of a reports.jsonl record: name -> (JSON type, when it is
# written, its value in a report). report_dict writes a record from this
# table, and read_reports_jsonl checks each record against it.
REPORT_FIELDS: dict[str, tuple[str, str, Callable[[ReconcileReport], object]]] = {
    "origin": ("str", "always", lambda r: r.block.origin_id),
    "method": ("str", "always", lambda r: r.method),
    "covariance": ("str", "always", lambda r: r.covariance),
    "iterations": ("int", "always", lambda r: r.iterations),
    "converged": ("bool", "always", lambda r: r.converged),
    "trace": ("list of numbers", "always", lambda r: [float(g) for g in r.trace]),
    "coherence": ("{cs, te} numbers", "always",
                  lambda r: {"cs": r.coherence[0], "te": r.coherence[1]}),
    "flags": ("list of str", "always", lambda r: list(r.flags)),
    "delta": ("number", "ite-*", lambda r: r.delta),
    "elapsed": ("number", "--timings", lambda r: r.elapsed),
    "prepare_s": ("number", "--timings", lambda r: r.prepare_s),
    "peak_mem": ("int", "--memory", lambda r: r.peak_mem),
    "prepare_peak_mem": ("int", "--memory", lambda r: r.prepare_peak_mem),
}


def _number(value) -> bool:
    """A JSON number: an integer or a float, NaN included; never a bool."""
    return type(value) in (int, float)


_JSON_TYPES: dict[str, Callable[[object], bool]] = {
    "str": lambda v: type(v) is str,
    "int": lambda v: type(v) is int,
    "bool": lambda v: type(v) is bool,
    "number": _number,
    "list of numbers": lambda v: type(v) is list and all(map(_number, v)),
    "list of str": lambda v: type(v) is list and all(type(s) is str for s in v),
    "{cs, te} numbers":
        lambda v: type(v) is dict and _number(v.get("cs")) and _number(v.get("te")),
}


def report_dict(
    report: ReconcileReport, timings: bool = False, memory: bool = False
) -> dict:
    """JSON-ready view of a report, one entry per field of REPORT_FIELDS
    that is written. ``delta`` is written for the alternating methods only.
    The wall time (``timings``) and peak memory (``memory``) fields are
    opt-in so equal configurations produce byte-identical streams."""
    written = {
        "always": True,
        "ite-*": report.delta is not None,
        "--timings": timings,
        "--memory": memory,
    }
    return {
        name: value(report)
        for name, (_, when, value) in REPORT_FIELDS.items()
        if written[when]
    }


def write_reports_jsonl(
    path,
    reports: Iterable[ReconcileReport],
    timings: bool = False,
    memory: bool = False,
) -> None:
    with open_output(path) as fh:
        for report in reports:
            fh.write(json.dumps(report_dict(report, timings, memory), sort_keys=True))
            fh.write("\n")


def read_reports_jsonl(path) -> list[dict]:
    """The records of a reports.jsonl stream. Each is an object with a
    ``method``; every field of REPORT_FIELDS that it has is of the field's
    type, and other keys are ignored. The first faulty line raises
    ValidationError as ``file:line``."""
    records = []
    with open_input(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, RecursionError) as exc:  # or nested too deeply
                raise ValidationError(f"{path}:{lineno}: not valid JSON: {exc}")
            if not isinstance(record, dict) or "method" not in record:
                raise ValidationError(f"{path}:{lineno}: expected a report object")
            for name, (kind, _, _) in REPORT_FIELDS.items():
                if name in record and not _JSON_TYPES[kind](record[name]):
                    raise ValidationError(f"{path}:{lineno}: field {name}: expected {kind}")
            records.append(record)
    return records


# -- evaluation tables -----------------------------------------------------------


def write_nrmse_csv(path, table: NrmseTable) -> None:
    header = ["level", "candidate"] + [f"k{k}" for k in table.orders]
    flag_orders = table.orders if table.baseline is not None else ()
    header += [f"worse_than_{table.baseline}_k{k}" for k in flag_orders]
    _write_csv(path, header, (
        [level, candidate, *map(float, values),
         *(int((level, candidate, k) in table.flagged) for k in flag_orders)]
        for level, candidate, values in table.rows()
    ))


def write_ranks_csv(path, results: Mapping[int, NemenyiResult]) -> None:
    """Mean-rank table per order, with the interval metadata per row."""
    rows = []
    for k in sorted(results, reverse=True):
        res = results[k]
        for name in res.ordered():
            numbers = (res.mean_ranks[name], *res.interval(name), res.half_width, res.alpha)
            rows.append([f"k{k}", name, *map(float, numbers), res.n_cases])
    header = ["order", "candidate", "mean_rank", "lo", "hi", "half_width", "alpha", "cases"]
    _write_csv(path, header, rows)


def write_trace_csv(path, rows: Iterable[tuple[str, int, float, float]]) -> None:
    """Plot-ready long format: method, iteration, gap, delta."""
    _write_csv(path, ["method", "iteration", "gap", "delta"], (
        (method, i, float(gap), float(delta)) for method, i, gap, delta in rows
    ))


def write_perf_csv(path, rows: Sequence[PerfRow]) -> None:
    header = ["method", "runs", "elapsed_median", "elapsed_q25", "elapsed_q75",
              "mem_median", "mem_q25", "mem_q75"]
    _write_csv(path, header, (
        [row.method, row.runs, *map(float, (row.elapsed_median, *row.elapsed_iqr)),
         *map(float, (row.mem_median, *row.mem_iqr))]
        for row in rows
    ))
