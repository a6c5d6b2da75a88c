"""Tests for the evaluation metrics against hand computations and a
brute-force rank oracle."""

import numpy as np
import pytest

from ctrec.covariance import ResidualSet, sigma_ols, sigma_wlsv
from ctrec.errors import ValidationError
from ctrec.evaluate import (
    EvalFrame,
    frobenius_trace,
    mcb_nemenyi,
    nrmse,
    nrmse_table,
    perf_summary,
)
from ctrec.reconcile import ForecastBlock
from helpers import random_structure, run_method, toy_ct


def constant_frame(ct, actual_value, forecast_values, origins=1):
    """All-constant blocks: per-candidate constant forecast levels."""
    actuals = tuple(
        ForecastBlock(np.full((ct.n_series, ct.n_positions), actual_value), ct, f"{o}")
        for o in range(origins)
    )
    candidates = {
        name: tuple(
            ForecastBlock(np.full((ct.n_series, ct.n_positions), v), ct, f"{o}")
            for o in range(origins)
        )
        for name, v in forecast_values.items()
    }
    return EvalFrame(ct, actuals, candidates)


def test_nrmse_zero_for_perfect_forecasts():
    ct = toy_ct((2, 1))
    frame = constant_frame(ct, 2.0, {"exact": 2.0})
    assert nrmse(frame, 0, 1, "exact") == 0.0


def test_nrmse_constant_bias_case():
    # actuals 2, forecasts 3: RMSE 1 over mean 2 -> 50%
    ct = toy_ct((2, 1))
    frame = constant_frame(ct, 2.0, {"high": 3.0}, origins=3)
    assert abs(nrmse(frame, "u1", 1, "high") - 50.0) < 1e-12


def test_nrmse_two_point_hand_pool():
    # pool {(3,2),(1,2)}: RMSE = 1, mean = 2 -> 50%
    ct = toy_ct((2, 1))
    actual = np.full((3, 3), 2.0)
    forecast = np.full((3, 3), 2.0)
    forecast[0, 1] = 3.0
    forecast[0, 2] = 1.0
    frame = EvalFrame(
        ct,
        (ForecastBlock(actual, ct),),
        {"cand": (ForecastBlock(forecast, ct),)},
    )
    assert abs(nrmse(frame, 0, 1, "cand") - 50.0) < 1e-12


def test_nrmse_scale_invariance():
    rng = np.random.default_rng(0)
    ct = toy_ct((4, 2, 1))
    actual = rng.uniform(1.0, 2.0, size=(ct.n_series, ct.n_positions))
    forecast = actual + rng.normal(size=actual.shape)
    for c in (1.0, 3.5):
        frame = EvalFrame(
            ct,
            (ForecastBlock(c * actual, ct),),
            {"cand": (ForecastBlock(c * forecast, ct),)},
        )
        if c == 1.0:
            reference = nrmse(frame, 1, 2, "cand")
        else:
            assert abs(nrmse(frame, 1, 2, "cand") - reference) < 1e-9


def test_nrmse_zero_mean_actual_is_missing():
    ct = toy_ct((2, 1))
    frame = constant_frame(ct, 0.0, {"cand": 1.0})
    assert np.isnan(nrmse(frame, 0, 1, "cand"))


def test_nrmse_table_perfect_forecasts_all_zero():
    ct = toy_ct((2, 1))
    frame = constant_frame(ct, 2.0, {"exact": 2.0})
    table = nrmse_table(frame)
    assert all(v == 0.0 for v in table.values.values())
    assert table.levels == ("upper", "bottom")
    assert table.orders == (2, 1)


def test_nrmse_table_flags_dominated_candidate():
    ct = toy_ct((2, 1))
    frame = constant_frame(ct, 2.0, {"good": 2.1, "bad": 3.0})
    table = nrmse_table(frame, baseline="good")
    for level in table.levels:
        for k in table.orders:
            assert (level, "bad", k) in table.flagged
    # the baseline itself is never flagged
    assert not any(c == "good" for (_, c, _) in table.flagged)


def test_nrmse_table_level_means_average_series():
    ct = toy_ct((2, 1))
    actual = np.full((3, 3), 2.0)
    forecast = actual.copy()
    forecast[1] = 3.0  # only bottom series b1 is off
    frame = EvalFrame(
        ct,
        (ForecastBlock(actual, ct),),
        {"cand": (ForecastBlock(forecast, ct),)},
        levels=("L0", "L1", "L1"),
    )
    table = nrmse_table(frame)
    assert table.values[("L0", "cand", 1)] == 0.0
    # bottom level: mean of 50% and 0%
    assert abs(table.values[("L1", "cand", 1)] - 25.0) < 1e-12


# -- trace ---------------------------------------------------------------


def test_frobenius_trace_identical_inputs_all_zero():
    rng = np.random.default_rng(1)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    bottom = rng.normal(size=(ct.cs.n_bottom, ct.te.m))
    block = ForecastBlock(
        ct.from_bottom_hf(bottom) + rng.normal(size=(ct.n_series, ct.n_positions)), ct
    )
    sig = sigma_ols(ct)
    oct_report = run_method("oct", block, sig)
    ite = run_method("ite-tcs", block, sig, sig, keep_iterates=True)
    trace = frobenius_trace(ite, oct_report)
    # constant weights: single iteration already at the one-shot point
    assert len(trace) == 2
    assert trace.max() <= 1e-8 * max(1.0, np.linalg.norm(block.values))


def test_frobenius_trace_decreases_under_wlsv():
    rng = np.random.default_rng(2)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    bottom = rng.normal(size=(ct.cs.n_bottom, ct.te.m))
    block = ForecastBlock(
        ct.from_bottom_hf(bottom) + rng.normal(size=(ct.n_series, ct.n_positions)), ct
    )
    res = ResidualSet(rng.normal(size=(15, ct.n_series, ct.n_positions)) * rng.uniform(0.3, 2.0, size=(1, ct.n_series, 1)))
    sig = sigma_wlsv(ct, res)
    oct_report = run_method("oct", block, sig)
    ite = run_method(
        "ite-tcs", block, sig, sig, delta=1e-10, max_iter=5000, keep_iterates=True
    )
    trace = frobenius_trace(ite, oct_report)
    assert trace[-1] <= 1e-6 * max(1.0, np.linalg.norm(block.values))
    assert trace[-1] <= trace[0]


def test_frobenius_trace_requires_iterates():
    ct = toy_ct((2, 1))
    block = ForecastBlock(np.arange(9.0).reshape(3, 3), ct)
    sig = sigma_ols(ct)
    ite = run_method("ite-tcs", block, sig, sig)
    with pytest.raises(ValidationError):
        frobenius_trace(ite, run_method("oct", block, sig))


# -- rank test --------------------------------------------------------------


def rank_oracle(errors):
    """Brute-force average ranks: counts of strictly-smaller plus tie splits."""
    L, J = errors.shape
    ranks = np.zeros((L, J))
    for case in range(L):
        for j in range(J):
            smaller = np.sum(errors[case] < errors[case, j])
            ties = np.sum(errors[case] == errors[case, j])
            ranks[case, j] = smaller + (ties + 1) / 2.0
    return ranks.mean(axis=0)


def frame_from_errors(ct, errors):
    """One series, L origins; candidate j's error at origin l is errors[l, j]."""
    L, J = errors.shape
    actuals = tuple(
        ForecastBlock(np.zeros((ct.n_series, ct.n_positions)), ct, f"{l:02d}")
        for l in range(L)
    )
    candidates = {}
    for j in range(J):
        blocks = []
        for l in range(L):
            values = np.zeros((ct.n_series, ct.n_positions))
            values[0, :] = errors[l, j]
            blocks.append(ForecastBlock(values, ct, f"{l:02d}"))
        candidates[f"m{j}"] = tuple(blocks)
    return EvalFrame(ct, actuals, candidates, levels=("L0", "L1", "L1"))


def test_nemenyi_identical_candidates_tie():
    ct = toy_ct((2, 1))
    errors = np.tile(np.linspace(1.0, 2.0, 6)[:, None], (1, 2))
    frame = frame_from_errors(ct, errors)
    result = mcb_nemenyi(frame, order=1, levels=["L0"])
    assert result.mean_ranks["m0"] == result.mean_ranks["m1"] == 1.5
    assert result.overlaps("m0", "m1")


def test_nemenyi_strict_dominance():
    ct = toy_ct((2, 1))
    rng = np.random.default_rng(3)
    base = rng.uniform(1.0, 2.0, size=10)
    errors = np.column_stack([base, base + 1.0])
    frame = frame_from_errors(ct, errors)
    result = mcb_nemenyi(frame, order=1, levels=["L0"])
    assert result.mean_ranks["m0"] == 1.0
    assert result.mean_ranks["m1"] == 2.0
    assert result.ordered() == ["m0", "m1"]


def test_nemenyi_matches_rank_oracle_with_ties():
    ct = toy_ct((2, 1))
    rng = np.random.default_rng(4)
    errors = rng.integers(0, 4, size=(10, 3)).astype(float)  # forced ties
    frame = frame_from_errors(ct, errors)
    result = mcb_nemenyi(frame, order=1, levels=["L0"])
    expected = rank_oracle(errors)
    for j in range(3):
        assert result.mean_ranks[f"m{j}"] == pytest.approx(expected[j], abs=0)
    # per-case rank sums are exactly J(J+1)/2
    assert np.isclose(sum(result.mean_ranks.values()), 3 * 4 / 2)


def test_nemenyi_critical_distance_formula():
    ct = toy_ct((2, 1))
    rng = np.random.default_rng(5)
    errors = rng.uniform(size=(12, 4))
    frame = frame_from_errors(ct, errors)
    result = mcb_nemenyi(frame, order=1, levels=["L0"], alpha=0.05)
    expected = result.q_value * np.sqrt(4 * 5 / (12.0 * 12)) / 2.0
    assert result.half_width == pytest.approx(expected, rel=1e-12)
    assert result.n_cases == 12


def test_nemenyi_validates_inputs():
    ct = toy_ct((2, 1))
    frame = constant_frame(ct, 1.0, {"only": 1.0})
    with pytest.raises(ValidationError):
        mcb_nemenyi(frame, order=1)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0, -0.5, float("nan")])
def test_nemenyi_rejects_alpha_outside_the_unit_interval(alpha):
    # alpha 2 gave NaN intervals and alpha 0 infinite ones
    ct = toy_ct((2, 1))
    frame = frame_from_errors(ct, np.random.default_rng(6).uniform(size=(8, 3)))
    with pytest.raises(ValidationError, match="alpha"):
        mcb_nemenyi(frame, order=1, levels=["L0"], alpha=alpha)


def test_eval_frame_rejects_misaligned_candidates():
    ct = toy_ct((2, 1))
    actuals = (
        ForecastBlock(np.zeros((3, 3)), ct, "a"),
        ForecastBlock(np.zeros((3, 3)), ct, "b"),
    )
    shuffled = (actuals[1], actuals[0])
    with pytest.raises(ValidationError):
        EvalFrame(ct, actuals, {"cand": shuffled})
    with pytest.raises(ValidationError):
        EvalFrame(ct, actuals, {"cand": actuals}, levels=("L0",))


# -- perf -----------------------------------------------------------------


def _fake_report(method, elapsed, mem):
    ct = toy_ct((2, 1))
    block = ForecastBlock(np.zeros((3, 3)), ct)
    from ctrec.reconcile import ReconcileReport

    return ReconcileReport(
        block=block,
        method=method,
        covariance="ols",
        iterations=1,
        trace=(0.0,),
        coherence=(0.0, 0.0),
        elapsed=elapsed,
        peak_mem=mem,
    )


def test_perf_summary_single_method_passthrough():
    rows = perf_summary([_fake_report("oct", 1.0, 100)])
    assert len(rows) == 1
    assert rows[0].method == "oct"
    assert rows[0].elapsed_median == 1.0
    assert rows[0].mem_median == 100


def test_perf_summary_orders_preserved():
    reports = [_fake_report("fast", 0.1, 10) for _ in range(5)] + [
        _fake_report("slow", 0.9, 90) for _ in range(5)
    ]
    rows = {r.method: r for r in perf_summary(reports)}
    assert rows["fast"].elapsed_median < rows["slow"].elapsed_median
    assert rows["fast"].mem_median < rows["slow"].mem_median


def test_perf_summary_replication_shape_smoke():
    reports = [_fake_report("oct", 0.1 + 0.001 * i, 50 + i) for i in range(350)]
    rows = perf_summary(reports)
    assert rows[0].runs == 350
    lo, hi = rows[0].elapsed_iqr
    assert lo <= rows[0].elapsed_median <= hi
