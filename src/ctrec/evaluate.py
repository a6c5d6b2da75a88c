"""Accuracy and significance evaluation of reconciled forecasts.

Covers the normalized RMSE (in percent of the mean actual), its per-level
summary table, convergence-gap traces against a one-shot reference, the
rank-based multiple-comparison test, and timing/memory summaries of
reconciliation reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ValidationError
from .hierarchy import CrossTemporalStructure
from .reconcile import ForecastBlock, ReconcileReport, frobenius_gap

DEFAULT_ALPHA = 0.05


@dataclass(frozen=True)
class EvalFrame:
    """Realized values and named candidate forecasts over shared origins.

    ``levels`` assigns each series to a cross-sectional level (for level-wise
    aggregation); defaults to "upper"/"bottom" from the structure.
    """

    structure: CrossTemporalStructure
    actuals: tuple[ForecastBlock, ...]
    candidates: dict[str, tuple[ForecastBlock, ...]]
    levels: tuple[str, ...] = ()

    def __post_init__(self):
        ct = self.structure
        actuals = tuple(self.actuals)
        if not actuals:
            raise ValidationError("no actuals given")
        origin_ids = [b.origin_id for b in actuals]
        candidates = {k: tuple(v) for k, v in self.candidates.items()}
        for name, blocks in candidates.items():
            if [b.origin_id for b in blocks] != origin_ids:
                raise ValidationError(
                    f"candidate {name!r} does not cover the actuals' origins"
                )
        levels = tuple(self.levels)
        if not levels:
            levels = ("upper",) * ct.cs.n_upper + ("bottom",) * ct.cs.n_bottom
        if len(levels) != ct.n_series:
            raise ValidationError(
                f"{len(levels)} level labels for {ct.n_series} series"
            )
        object.__setattr__(self, "actuals", actuals)
        object.__setattr__(self, "candidates", candidates)
        object.__setattr__(self, "levels", levels)

    def level_names(self) -> list[str]:
        """Level labels in order of first appearance."""
        seen = []
        for label in self.levels:
            if label not in seen:
                seen.append(label)
        return seen

    def series_index(self, series) -> int:
        if isinstance(series, str):
            try:
                return self.structure.cs.labels.index(series)
            except ValueError:
                raise ValidationError(f"unknown series {series!r}")
        return int(series)


def _stack(frame: EvalFrame, blocks, order: int) -> np.ndarray:
    """The order-k cells of ``blocks`` as one (series, origins, width) array:
    row i, flattened, pools series i's cells origin-major."""
    cols = frame.structure.te.order_slice(order)
    return np.stack([b.values[:, cols] for b in blocks], axis=1)


def _nrmse(actual: np.ndarray, forecast: np.ndarray) -> np.ndarray:
    """nRMSE of every series from (series, origins, width) stacks of one
    order; NaN where the pooled mean actual is zero. Each series' pool is
    one contiguous row, so each mean is the 1-d pool's ``np.mean``."""
    n = len(actual)
    denom = actual.reshape(n, -1).mean(axis=1)
    error = forecast - actual
    np.square(error, out=error)
    with np.errstate(divide="ignore", invalid="ignore"):
        cells = 100.0 * np.sqrt(error.reshape(n, -1).mean(axis=1)) / denom
    cells[denom == 0] = np.nan
    return cells


def nrmse(frame: EvalFrame, series, order: int, candidate: str) -> float:
    """Root mean squared error over the pooled order-k cells of one series,
    as a percentage of the pooled mean actual.

    Returns NaN (reported as missing) when the mean actual is zero.
    """
    i = frame.series_index(series)
    if candidate not in frame.candidates:
        raise ValidationError(f"unknown candidate {candidate!r}")
    actual = _stack(frame, frame.actuals, order)
    return float(_nrmse(actual, _stack(frame, frame.candidates[candidate], order))[i])


@dataclass(frozen=True)
class NrmseTable:
    """Per-level nRMSE summary: one row per (level, candidate), one column
    per aggregation order. ``flagged`` marks cells worse than the baseline."""

    levels: tuple[str, ...]
    orders: tuple[int, ...]
    candidates: tuple[str, ...]
    values: dict[tuple[str, str, int], float]
    baseline: str | None = None
    flagged: frozenset[tuple[str, str, int]] = frozenset()

    def rows(self):
        for level in self.levels:
            for candidate in self.candidates:
                yield level, candidate, [
                    self.values[(level, candidate, k)] for k in self.orders
                ]


def nrmse_table(frame: EvalFrame, baseline: str | None = None) -> NrmseTable:
    """Average per-series nRMSE over each level (unweighted mean, missing
    cells excluded), for every candidate and aggregation order."""
    if baseline is not None and baseline not in frame.candidates:
        raise ValidationError(f"baseline {baseline!r} is not a candidate")
    levels = frame.level_names()
    orders = frame.structure.te.orders
    names = tuple(frame.candidates)
    members = {lv: [i for i, lab in enumerate(frame.levels) if lab == lv] for lv in levels}
    values: dict[tuple[str, str, int], float] = {}
    for k in orders:
        actual = _stack(frame, frame.actuals, k)
        for candidate in names:
            cells = _nrmse(actual, _stack(frame, frame.candidates[candidate], k))
            for level in levels:
                arr = cells[members[level]]
                values[(level, candidate, k)] = (
                    float(np.nanmean(arr)) if np.any(np.isfinite(arr)) else float("nan")
                )
    flagged = {
        (level, candidate, k)
        for (level, candidate, k), v in values.items()
        if baseline not in (None, candidate) and v > values[(level, baseline, k)]
    }
    return NrmseTable(tuple(levels), orders, names, values, baseline, frozenset(flagged))


def frobenius_trace(
    iter_report: ReconcileReport, oct_report: ReconcileReport
) -> np.ndarray:
    """Frobenius distance of each cycle's iterate to the one-shot solution,
    one entry per cycle (``report.iterations``); the last iterate is the
    final result."""
    if iter_report.iterates is None:
        raise ValidationError(
            "the iterative report carries no iterates; rerun with keep_iterates=True"
        )
    target = oct_report.block.values
    if target.shape != iter_report.block.values.shape:
        raise ValidationError("reports cover different block shapes")
    return np.asarray([frobenius_gap(it, target) for it in iter_report.iterates])


@dataclass(frozen=True)
class NemenyiResult:
    """Mean ranks with a common critical-distance interval.

    Two candidates perform significantly differently at the test's level
    exactly when their intervals (mean rank ± half_width) do not overlap.
    """

    mean_ranks: dict[str, float]
    half_width: float
    alpha: float
    n_cases: int
    q_value: float

    def interval(self, name: str) -> tuple[float, float]:
        r = self.mean_ranks[name]
        return (r - self.half_width, r + self.half_width)

    def overlaps(self, a: str, b: str) -> bool:
        return abs(self.mean_ranks[a] - self.mean_ranks[b]) <= 2 * self.half_width

    def ordered(self) -> list[str]:
        return sorted(self.mean_ranks, key=self.mean_ranks.get)

    def worse_than_best(self) -> list[str]:
        """Candidates whose interval does not overlap the best one's."""
        best = self.ordered()[0]
        return [n for n in self.mean_ranks if n != best and not self.overlaps(best, n)]


def mcb_nemenyi(
    frame: EvalFrame,
    order: int,
    levels: Sequence[str] | None = None,
    alpha: float = DEFAULT_ALPHA,
) -> NemenyiResult:
    """Rank-based multiple comparison of the candidates at one order.

    A case is one (series, origin) pair; its error is the mean absolute
    error over that origin's order-k cells. Ranks use the average-tie
    convention; the critical distance comes from the studentized-range
    quantile at level alpha over J candidates and L cases, and each interval
    spans mean rank ± half the critical distance.
    """
    if not 0.0 < alpha < 1.0:
        raise ValidationError(f"alpha must lie in (0, 1), got {alpha}")
    from scipy.stats import rankdata, studentized_range  # slow import, only needed here

    names = list(frame.candidates)
    if len(names) < 2:
        raise ValidationError("the comparison needs at least two candidates")
    wanted = set(frame.levels if levels is None else levels)
    members = np.array([lab in wanted for lab in frame.levels])
    actual = _stack(frame, frame.actuals, order)
    # one case per (series, origin), series-major
    errors = np.column_stack([
        np.abs(_stack(frame, frame.candidates[c], order) - actual).mean(axis=2)[members].ravel()
        for c in names
    ])
    errors = errors[np.isfinite(errors).all(axis=1)]
    if len(errors) < 2:
        raise ValidationError("the comparison needs at least two cases")
    ranks = rankdata(errors, method="average", axis=1)
    mean_ranks = dict(zip(names, ranks.mean(axis=0)))
    n_cases, j = errors.shape
    q = float(studentized_range.ppf(1.0 - alpha, j, np.inf))
    critical_distance = q * np.sqrt(j * (j + 1) / (12.0 * n_cases))
    return NemenyiResult(
        mean_ranks={k: float(v) for k, v in mean_ranks.items()},
        half_width=float(critical_distance / 2.0),
        alpha=alpha,
        n_cases=n_cases,
        q_value=q,
    )


@dataclass(frozen=True)
class PerfRow:
    method: str
    runs: int
    elapsed_median: float
    elapsed_iqr: tuple[float, float]
    mem_median: float
    mem_iqr: tuple[float, float]


def perf_summary(records: Iterable[Mapping]) -> list[PerfRow]:
    """Median and interquartile range of wall time and peak allocation per
    method, over report records: ``io.report_dict(r, timings=True,
    memory=True)`` or ``io.read_reports_jsonl``. An absent ``elapsed`` or
    ``peak_mem`` reads as 0."""
    by_method: dict[str, list[Mapping]] = {}
    for record in records:
        by_method.setdefault(record["method"], []).append(record)
    rows = []
    for method, group in by_method.items():
        times = np.array([r.get("elapsed", 0.0) for r in group], dtype=float)
        mems = np.array([r.get("peak_mem", 0) for r in group], dtype=float)
        rows.append(
            PerfRow(
                method=method,
                runs=len(group),
                elapsed_median=float(np.median(times)),
                elapsed_iqr=(
                    float(np.quantile(times, 0.25)),
                    float(np.quantile(times, 0.75)),
                ),
                mem_median=float(np.median(mems)),
                mem_iqr=(
                    float(np.quantile(mems, 0.25)),
                    float(np.quantile(mems, 0.75)),
                ),
            )
        )
    return rows
