"""Acceptance criteria, one test per criterion.

Each test prints a single PASS line on success (run with ``pytest -s`` to
see them); a failed assertion marks the criterion red. Tolerances are
pinned here and nowhere else.
"""

import time

import numpy as np

from ctrec.cli import main as cli_main
from ctrec.covariance import ResidualSet, sigma_ols, sigma_wlsv
from ctrec.evaluate import EvalFrame, mcb_nemenyi, nrmse
from ctrec.reconcile import ForecastBlock, sntz
from ctrec.reference import structural_projector
from ctrec.simulate import pv324_structure, simulate_dataset
from ctrec.verify import (
    check_alternating_convergence,
    check_coherence_profile,
    check_constant_weight_equivalence,
    check_dense_oracle,
    check_representation_equivalence,
    check_sntz,
)
from helpers import run_method, toy_ct


def _announce(number: int, result_line: str):
    print(f"CRITERION {number} {result_line}")


def test_criterion_1_constant_weight_equivalence():
    start = time.perf_counter()
    result = check_constant_weight_equivalence(seed=2024, instances=50, tol=1e-8)
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < 60.0, f"suite took {elapsed:.1f}s, budget is 60s"
    _announce(1, f"PASS equivalence under constant weights: {result.detail}, "
                 f"{elapsed:.1f}s")


def test_criterion_2_alternating_convergence():
    result = check_alternating_convergence(
        seed=2024, instances=20, deltas=(1e-5, 1e-6, 1e-10), n_origins=20
    )
    assert result.passed, result.detail
    _announce(2, f"PASS alternating-to-one-shot convergence: {result.detail}")


def test_criterion_3_representation_equivalence():
    result = check_representation_equivalence(seed=2024, draws=100, max_dim=200, tol=1e-8)
    assert result.passed, result.detail
    _announce(3, f"PASS structural vs constraint form: {result.detail}")


def test_criterion_4_coherence_grid():
    result = check_coherence_profile(seed=2024, tol=1e-8)
    assert result.passed, result.detail
    _announce(4, f"PASS coherence grid: {result.detail}")


def test_criterion_5_dense_oracle_equivalence():
    result = check_dense_oracle(seed=2024, instances=5, tol=1e-9)
    assert result.passed, result.detail

    # the averaging heuristic against its own materialized operator
    rng = np.random.default_rng(2024)
    ct = toy_ct((4, 2, 1))
    block = ForecastBlock(rng.normal(size=(ct.n_series, ct.n_positions)), ct)
    res = ResidualSet(rng.normal(size=(12, ct.n_series, ct.n_positions)))
    sigma = sigma_wlsv(ct, res)
    m_cs_full = structural_projector(ct.full_summing("cs"), sigma.diag).dense()
    m_te_bar = np.mean(
        [structural_projector(ct.te.summing_dense, row).dense() for row in sigma.cells()],
        axis=0,
    )
    dense = np.kron(np.eye(ct.n_series), m_te_bar) @ m_cs_full
    run = run_method("ka-cst", block, sigma, sigma)
    gap = np.linalg.norm(run.block.vector - dense @ block.vector)
    assert gap <= 1e-9 * max(1.0, np.linalg.norm(block.vector))
    _announce(5, f"PASS dense-oracle equivalence: {result.detail}; "
                 f"averaging heuristic gap {gap:.3e}")


def test_criterion_6_sntz():
    result = check_sntz(seed=2024)
    assert result.passed, result.detail
    # engineered negative bottom cells
    ct = toy_ct((2, 1))
    bottom = np.array([[1.0, -0.5], [2.0, 1.0]])
    block = ForecastBlock(ct.from_bottom_hf(bottom), ct)
    out = sntz(run_method("oct", block, sigma_ols(ct)))
    x = out.block.vector
    assert np.abs(ct.full_constraint("ct") @ x).max() <= 1e-10
    assert ct.bottom_hf(out.block.values).min() >= 0.0
    assert np.isclose(ct.bottom_hf(out.block.values)[0, 1], 0.0)
    _announce(6, f"PASS negative clamping: {result.detail}")


def test_criterion_7_performance_trend():
    start = time.perf_counter()
    ct = pv324_structure()  # 324 series, hourly grid: the benchmark shape
    data = simulate_dataset(ct, n_origins=3, n_residual_origins=20, noise_sd=0.5, seed=5)
    w = om = np.ones((ct.n_series, ct.n_positions))
    sigma = sigma_wlsv(ct, data.residuals)
    single, multi = [], []
    for block in data.bases:
        fast = run_method("ite-tcs", block, w, om)
        assert fast.iterations == 1
        single.append(fast.elapsed)
        slow = run_method("ite-tcs", block, sigma, sigma, max_iter=1000)
        assert slow.iterations > 1 and slow.converged
        multi.append(slow.elapsed)
    elapsed = time.perf_counter() - start
    assert np.median(single) < np.median(multi)
    assert elapsed < 600.0, f"benchmark took {elapsed:.0f}s, budget is 10 min"
    _announce(
        7,
        f"PASS performance trend at 324x{ct.n_positions}: single-cycle median "
        f"{np.median(single) * 1e3:.0f} ms < multi-cycle median "
        f"{np.median(multi) * 1e3:.0f} ms ({elapsed:.0f}s total)",
    )


def test_criterion_8_metric_correctness():
    ct = toy_ct((2, 1))
    actual = np.full((3, 3), 2.0)
    forecast = np.full((3, 3), 2.0)
    forecast[0, 1] = 3.0
    forecast[0, 2] = 1.0
    frame = EvalFrame(
        ct, (ForecastBlock(actual, ct),), {"cand": (ForecastBlock(forecast, ct),)}
    )
    value = nrmse(frame, 0, 1, "cand")
    assert abs(value - 50.0) <= 1e-12

    # brute-force rank oracle on a 10-case, 3-candidate fixture
    rng = np.random.default_rng(8)
    errors = rng.integers(0, 4, size=(10, 3)).astype(float)
    actuals, candidates = [], {f"m{j}": [] for j in range(3)}
    for case in range(10):
        actuals.append(ForecastBlock(np.zeros((3, 3)), ct, f"{case:02d}"))
        for j in range(3):
            values = np.zeros((3, 3))
            values[0, :] = errors[case, j]
            candidates[f"m{j}"].append(ForecastBlock(values, ct, f"{case:02d}"))
    frame = EvalFrame(
        ct, tuple(actuals), {k: tuple(v) for k, v in candidates.items()},
        levels=("L0", "L1", "L1"),
    )
    result = mcb_nemenyi(frame, order=1, levels=["L0"])
    expected = np.zeros(3)
    for case in range(10):
        for j in range(3):
            smaller = np.sum(errors[case] < errors[case, j])
            ties = np.sum(errors[case] == errors[case, j])
            expected[j] += smaller + (ties + 1) / 2.0
    expected /= 10
    for j in range(3):
        assert result.mean_ranks[f"m{j}"] == expected[j]  # exact
    _announce(8, f"PASS metrics: two-point nRMSE {value!r}%, "
                 f"mean ranks match the brute-force oracle exactly")


def test_criterion_9_determinism(tmp_path):
    hier = tmp_path / "hier.txt"
    hier.write_text("orders = 4,2,1\ntotal: p1, p2, p3, p4\nzone1: p1, p2\nzone2: p3, p4\n")

    def simulate(tag):
        out = tmp_path / f"sim-{tag}"
        assert cli_main([
            "simulate", "--hierarchy", str(hier), "--reps", "3", "--noise", "0.4",
            "--seed", "42", "--out", str(out),
        ]) == 0
        return out

    sim_a, sim_b = simulate("a"), simulate("b")
    names = ("actuals.csv", "base.csv", "residuals.csv", "history.csv")
    assert all((sim_a / n).read_bytes() == (sim_b / n).read_bytes() for n in names)

    def reconcile(tag, threads):
        out = tmp_path / f"rec-{tag}"
        assert cli_main([
            "reconcile", "--hierarchy", str(hier), "--input", str(sim_a / "base.csv"),
            "--residuals", str(sim_a / "residuals.csv"), "--method", "ite-tcs",
            "--cov", "wlsv", "--threads", str(threads), "--out", str(out),
        ]) == 0
        return (
            (out / "reconciled.csv").read_bytes(),
            (out / "reports.jsonl").read_bytes(),
        )

    first = reconcile("t1-a", 1)
    assert reconcile("t1-b", 1) == first
    assert reconcile("t8", 8) == first
    _announce(9, "PASS determinism: byte-identical outputs across reruns "
                 "and thread counts 1 and 8")
