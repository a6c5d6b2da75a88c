"""The accuracy tables computed from stacked arrays against the per-cell
loops they replaced: every nRMSE cell, level mean, flag and mean rank must
match bit for bit, NaN cells included, and beyond the frame's own blocks
the tables may hold no more than three (origins, series, positions) arrays."""

import tracemalloc
from typing import Sequence

import numpy as np
import pytest

import ctrec.evaluate
from ctrec.errors import ValidationError
from ctrec.evaluate import DEFAULT_ALPHA, EvalFrame, NemenyiResult, NrmseTable
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.reconcile import ForecastBlock
from ctrec.simulate import pv324_structure, simulate_dataset

# The per-cell functions that the array computation replaced, kept verbatim
# as the byte oracle of the tests below.


def _pool(frame: EvalFrame, blocks, series: int, order: int) -> np.ndarray:
    cols = frame.structure.te.order_slice(order)
    return np.concatenate([b.values[series, cols] for b in blocks])


def nrmse(frame: EvalFrame, series, order: int, candidate: str) -> float:
    """Root mean squared error over the pooled order-k cells of one series,
    as a percentage of the pooled mean actual.

    Returns NaN (reported as missing) when the mean actual is zero.
    """
    i = frame.series_index(series)
    if candidate not in frame.candidates:
        raise ValidationError(f"unknown candidate {candidate!r}")
    actual = _pool(frame, frame.actuals, i, order)
    forecast = _pool(frame, frame.candidates[candidate], i, order)
    denom = actual.mean()
    if denom == 0:
        return float("nan")
    return float(100.0 * np.sqrt(np.mean((forecast - actual) ** 2)) / denom)


def nrmse_table(frame: EvalFrame, baseline: str | None = None) -> NrmseTable:
    """Average per-series nRMSE over each level (unweighted mean, missing
    cells excluded), for every candidate and aggregation order."""
    if baseline is not None and baseline not in frame.candidates:
        raise ValidationError(f"baseline {baseline!r} is not a candidate")
    ct = frame.structure
    levels = frame.level_names()
    orders = ct.te.orders
    names = tuple(frame.candidates)
    values: dict[tuple[str, str, int], float] = {}
    for level in levels:
        members = [i for i, lab in enumerate(frame.levels) if lab == level]
        for candidate in names:
            for k in orders:
                cells = [nrmse(frame, i, k, candidate) for i in members]
                arr = np.asarray(cells, dtype=float)
                values[(level, candidate, k)] = (
                    float(np.nanmean(arr)) if np.any(np.isfinite(arr)) else float("nan")
                )
    flagged = set()
    if baseline is not None:
        for level in levels:
            for candidate in names:
                if candidate == baseline:
                    continue
                for k in orders:
                    if values[(level, candidate, k)] > values[(level, baseline, k)]:
                        flagged.add((level, candidate, k))
    return NrmseTable(
        levels=tuple(levels),
        orders=orders,
        candidates=names,
        values=values,
        baseline=baseline,
        flagged=frozenset(flagged),
    )


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
    ct = frame.structure
    cols = ct.te.order_slice(order)
    if levels is None:
        members = range(ct.n_series)
    else:
        wanted = set(levels)
        members = [i for i, lab in enumerate(frame.levels) if lab in wanted]
    rows = []
    for i in members:
        for o, actual in enumerate(frame.actuals):
            target = actual.values[i, cols]
            row = [
                float(np.mean(np.abs(frame.candidates[c][o].values[i, cols] - target)))
                for c in names
            ]
            if np.all(np.isfinite(row)):
                rows.append(row)
    if len(rows) < 2:
        raise ValidationError("the comparison needs at least two cases")
    errors = np.asarray(rows)
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


# -- frames -------------------------------------------------------------------

# total, two zones and four plants; orders of a 12-step cycle: 28 positions
CT = build_ct(
    build_cs(np.vstack([np.ones(4), np.eye(2).repeat(2, axis=1)])),
    build_te([12, 6, 4, 3, 2, 1]),
)
# both zones and p4 have all-zero actuals: every cell of level "Z" is NaN,
# and p4 is a NaN cell beside finite ones in level "P"
LEVELS = ("T", "Z", "Z", "P", "P", "P", "P")
ZERO_MEAN = (1, 2, 6)


def gappy_frame(seed: int, origins: int = 24) -> EvalFrame:
    """Random actuals with three zero-mean series, and four candidates: two
    noisy ones, an exact copy of the first (tied errors) and one whose
    errors are small integers (ties within and across cases)."""
    rng = np.random.default_rng(seed)
    shape = (CT.n_series, CT.n_positions)
    actuals, candidates = [], {"noisy": [], "copy": [], "rough": [], "steps": []}
    for o in range(origins):
        actual = rng.uniform(1.0, 5.0, size=shape)
        actual[list(ZERO_MEAN)] = 0.0
        noisy = actual + rng.normal(size=shape)
        rows = {
            "noisy": noisy,
            "copy": noisy,
            "rough": actual + 3.0 * rng.normal(size=shape),
            "steps": actual + rng.integers(-2, 3, size=shape),
        }
        actuals.append(ForecastBlock(actual, CT, f"{o:03d}"))
        for name, values in rows.items():
            candidates[name].append(ForecastBlock(values, CT, f"{o:03d}"))
    return EvalFrame(CT, tuple(actuals), candidates, LEVELS)


def pv_frame(seed: int) -> EvalFrame:
    ct = pv324_structure()
    data = simulate_dataset(ct, n_origins=4, noise_sd=0.8, seed=seed)
    wide = simulate_dataset(ct, n_origins=4, noise_sd=2.0, seed=seed + 1)
    return EvalFrame(
        ct, data.actuals, {"base": data.bases, "wide": wide.bases, "truth": data.actuals}
    )


def bits(value) -> bytes:
    return np.asarray(value, dtype=float).tobytes()


def assert_same_table(new: NrmseTable, old: NrmseTable):
    assert (new.levels, new.orders, new.candidates) == (old.levels, old.orders, old.candidates)
    assert (new.baseline, new.flagged) == (old.baseline, old.flagged)
    assert new.values.keys() == old.values.keys()
    for key, value in old.values.items():
        assert bits(new.values[key]) == bits(value), key


def assert_same_ranks(new: NemenyiResult, old: NemenyiResult):
    assert list(new.mean_ranks) == list(old.mean_ranks)
    assert bits(list(new.mean_ranks.values())) == bits(list(old.mean_ranks.values()))
    assert bits([new.half_width, new.q_value]) == bits([old.half_width, old.q_value])
    assert (new.alpha, new.n_cases) == (old.alpha, old.n_cases)


# -- tests ----------------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_nrmse_cells_match_the_per_cell_oracle(seed):
    frame = gappy_frame(seed)
    for candidate in frame.candidates:
        for k in CT.te.orders:
            for i, label in enumerate(CT.cs.labels):
                new = ctrec.evaluate.nrmse(frame, label, k, candidate)
                assert bits(new) == bits(nrmse(frame, i, k, candidate)), (candidate, k, i)
                assert np.isnan(new) == (i in ZERO_MEAN)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("baseline", [None, "noisy", "copy", "steps"])
def test_nrmse_table_matches_the_oracle(seed, baseline):
    frame = gappy_frame(seed)
    new = ctrec.evaluate.nrmse_table(frame, baseline=baseline)
    assert_same_table(new, nrmse_table(frame, baseline=baseline))
    assert all(np.isnan(new.values[("Z", c, k)]) for c in new.candidates for k in new.orders)
    if baseline == "copy":  # equal cells are never worse
        assert not any(c == "noisy" for _, c, _ in new.flagged)


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("levels", [None, ["P"], ["T", "Z"], ["Z", "P", "absent"]])
def test_mcb_nemenyi_matches_the_oracle(seed, levels):
    frame = gappy_frame(seed)
    for k in (CT.te.m, 1):
        new = ctrec.evaluate.mcb_nemenyi(frame, k, levels=levels, alpha=0.1)
        assert_same_ranks(new, mcb_nemenyi(frame, k, levels=levels, alpha=0.1))
        assert new.mean_ranks["noisy"] == new.mean_ranks["copy"]


def test_pv324_tables_match_the_oracle():
    frame = pv_frame(seed=5)
    ct = frame.structure
    assert_same_table(ctrec.evaluate.nrmse_table(frame, "base"), nrmse_table(frame, "base"))
    for k in (ct.te.m, 1):
        assert_same_ranks(ctrec.evaluate.mcb_nemenyi(frame, k), mcb_nemenyi(frame, k))


def test_both_reject_bad_input_alike():
    frame = gappy_frame(0, origins=1)
    # one origin of one series: a single case
    for levels in (["T"], ["absent"]):
        for compare in (ctrec.evaluate.mcb_nemenyi, mcb_nemenyi):
            with pytest.raises(ValidationError, match="at least two cases"):
                compare(frame, 1, levels=levels)
    for compute in (ctrec.evaluate.nrmse, nrmse):
        with pytest.raises(ValidationError, match="unknown candidate"):
            compute(frame, 0, 1, "absent")
        with pytest.raises(ValidationError, match="not in"):
            compute(frame, 0, 5, "noisy")


def test_tables_hold_at_most_three_stacks_beyond_the_blocks():
    frame = gappy_frame(3, origins=60)
    origins, n, q = len(frame.actuals), CT.n_series, CT.n_positions

    def tables():
        ctrec.evaluate.nrmse_table(frame, baseline="noisy")
        for k in (CT.te.m, 1):
            ctrec.evaluate.mcb_nemenyi(frame, k)

    tables()  # scipy.stats loads, and its caches fill, outside the trace
    tracemalloc.start()
    try:
        tables()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * origins * n * q * 8
