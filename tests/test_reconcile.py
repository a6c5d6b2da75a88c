"""Tests for the reconciliation strategies, including the two equivalence
and convergence suites that the whole design hangs on."""

from dataclasses import replace

import numpy as np
import pytest

import ctrec.reconcile as reconcile
from ctrec.covariance import ResidualSet, sigma_ols, sigma_wlsv
from ctrec.errors import SingularSystemError, ValidationError
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.reconcile import (
    METHODS,
    ForecastBlock,
    baseline_pers_bu,
    frobenius_gap,
    prepare,
    run_batch,
    sntz,
)
from ctrec.reference import structural_projector, zero_projector
from ctrec.simulate import pv324_structure, simulate_dataset
from ctrec.verify import check_coherence_profile
from helpers import random_structure, run_method, toy_ct


def toy_block(values=None, orders=(2, 1)):
    ct = toy_ct(orders)
    if values is None:
        rng = np.random.default_rng(0)
        values = rng.normal(size=(ct.n_series, ct.n_positions))
    return ForecastBlock(np.asarray(values, float), ct)


def coherent_block(rng, ct, origin_id="0"):
    bottom = rng.normal(size=(ct.cs.n_bottom, ct.te.m))
    return ForecastBlock(ct.from_bottom_hf(bottom), ct, origin_id)


def random_block(rng, ct, origin_id="0", scale=1.0):
    base = coherent_block(rng, ct, origin_id).values
    noisy = base + scale * rng.normal(size=base.shape)
    return ForecastBlock(noisy, ct, origin_id)


def constant_weights(rng, ct):
    w = rng.uniform(0.5, 2.0, size=ct.n_series)
    om = rng.uniform(0.5, 2.0, size=ct.n_positions)
    return w, om


def cs_table(ct, w):
    """A cross-sectional weight vector shared by every temporal position."""
    return np.outer(w, np.ones(ct.n_positions))


def te_table(ct, om):
    """A temporal weight vector shared by every series."""
    return np.outer(np.ones(ct.n_series), om)


# -- one-shot methods ------------------------------------------------------


def test_reconcile_cs_keeps_coherent_input():
    ct = toy_ct((4, 2, 1))
    block = coherent_block(np.random.default_rng(1), ct)
    out = run_method("cs", block, sigma_ols(ct))
    assert frobenius_gap(out.block, block) < 1e-10
    assert out.iterations == 1


def test_reconcile_cs_projects_each_position():
    # every column (3, 1, 1) must become (8/3, 4/3, 4/3)
    ct = toy_ct((4, 2, 1))
    block = ForecastBlock(np.tile([[3.0], [1.0], [1.0]], ct.n_positions), ct)
    out = run_method("cs", block, sigma_ols(ct))
    expected = np.tile([[8 / 3], [4 / 3], [4 / 3]], ct.n_positions)
    assert np.allclose(out.block.values, expected, atol=1e-12)
    assert out.coherence[0] < 1e-12  # cross-sectionally coherent
    assert out.method == "cs"


def test_reconcile_cs_constant_weight_equals_matrix_oracle():
    rng = np.random.default_rng(2)
    ct = random_structure(rng, max_series=10, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    w = rng.uniform(0.5, 2.0, size=ct.n_series)
    M = structural_projector(ct.cs.summing_dense, w).dense()
    out = run_method("cs", block, cs_table(ct, w))
    assert np.allclose(out.block.values, M @ block.values, atol=1e-10)


def test_reconcile_te_mirrors_cs():
    rng = np.random.default_rng(3)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    om = rng.uniform(0.5, 2.0, size=ct.n_positions)
    M = structural_projector(ct.te.summing_dense, om).dense()
    out = run_method("te", block, te_table(ct, om))
    # right-multiplication by the transposed temporal projection
    assert np.allclose(out.block.values, block.values @ M.T, atol=1e-10)
    assert out.coherence[1] < 1e-10
    # coherent input is untouched
    cb = coherent_block(rng, ct)
    assert frobenius_gap(run_method("te", cb, te_table(ct, om)).block, cb) < 1e-10


def test_reconcile_oct_coherent_fixed_point_and_orthogonality():
    ct = toy_ct((2, 1))
    rng = np.random.default_rng(4)
    cb = coherent_block(rng, ct)
    assert frobenius_gap(run_method("oct", cb, sigma_ols(ct)).block, cb) < 1e-10
    # identity covariance: the adjustment is orthogonal to the coherent subspace
    block = random_block(rng, ct)
    out = run_method("oct", block, sigma_ols(ct))
    residual = block.vector - out.block.vector
    assert np.abs(ct.full_summing("ct").T @ residual).max() < 1e-10
    assert max(out.coherence) < 1e-10


def test_reconcile_oct_separable_sigma_is_two_sided_projection():
    rng = np.random.default_rng(5)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    w, om = constant_weights(rng, ct)
    out = run_method("oct", block, np.kron(w, om))
    m_cs = structural_projector(ct.cs.summing_dense, w).dense()
    m_te = structural_projector(ct.te.summing_dense, om).dense()
    assert np.allclose(out.block.values, m_cs @ block.values @ m_te.T, atol=1e-9)


def test_reconcile_oct_dense_and_sparse_paths_agree():
    rng = np.random.default_rng(6)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    diag = rng.uniform(0.5, 2.0, size=ct.dim)
    a = structural_projector(ct.full_summing("ct"), diag)(block.vector)
    b = zero_projector(ct.full_constraint("ct"), diag)(block.vector)
    out = run_method("oct", block, diag)
    assert np.allclose(out.block.vector, a, atol=1e-9)
    assert np.allclose(out.block.vector, b, atol=1e-9)


# -- sequential and averaged heuristics -------------------------------------


def test_seq_coherent_input_unchanged_for_both_orders():
    rng = np.random.default_rng(7)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    cb = coherent_block(rng, ct)
    sig = sigma_ols(ct)
    for order in ("cst", "tcs"):
        out = run_method(f"seq-{order}", cb, sig, sig)
        assert frobenius_gap(out.block, cb) < 1e-10


def test_seq_orders_differ_under_general_covariances():
    rng = np.random.default_rng(8)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    res = ResidualSet(rng.normal(size=(12, ct.n_series, ct.n_positions)) * rng.uniform(0.2, 3.0, size=(1, ct.n_series, 1)))
    sig = sigma_wlsv(ct, res)
    a = run_method("seq-cst", block, sig, sig)
    b = run_method("seq-tcs", block, sig, sig)
    assert frobenius_gap(a.block, b.block) > 1e-6


def test_frobenius_gap_is_the_norm_of_the_difference():
    a, b = np.random.default_rng(5).normal(size=(2, 30, 7)) * 1e4
    assert frobenius_gap(a, b) == pytest.approx(np.linalg.norm(a - b), rel=1e-14)
    assert frobenius_gap(a.T, b.T) == pytest.approx(np.linalg.norm(a - b), rel=1e-14)
    assert frobenius_gap(a, a) == 0.0


def test_ka_coherent_input_unchanged():
    rng = np.random.default_rng(9)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    cb = coherent_block(rng, ct)
    sig = sigma_ols(ct)
    for order in ("cst", "tcs"):
        out = run_method(f"ka-{order}", cb, sig, sig)
        assert frobenius_gap(out.block, cb) < 1e-10
        assert "ka-incoherent" not in out.flags


def test_ka_output_fully_coherent_and_differs_from_oct_under_wlsv():
    rng = np.random.default_rng(10)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    res = ResidualSet(rng.normal(size=(12, ct.n_series, ct.n_positions)) * rng.uniform(0.2, 3.0, size=(1, ct.n_series, 1)))
    sig = sigma_wlsv(ct, res)
    ka = run_method("ka-tcs", block, sig, sig)
    tol = 1e-8 * max(1.0, np.abs(ka.block.values).max())
    assert max(ka.coherence) <= tol
    oct_out = run_method("oct", block, sig)
    assert frobenius_gap(ka.block, oct_out.block) > 1e-6


# -- iterative heuristic ----------------------------------------------------


def test_iterative_single_cycle_under_constant_weights():
    rng = np.random.default_rng(11)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    w, om = constant_weights(rng, ct)
    w, om = cs_table(ct, w), te_table(ct, om)
    for order in ("cst", "tcs"):
        out = run_method(f"ite-{order}", block, w, om)
        assert out.iterations == 1
        assert out.converged
        # the fixed point really is fixed: one more uni-dimensional step moves nothing
        again = run_method("cs", out.block, w)
        assert frobenius_gap(again.block, out.block) < 1e-6


def test_iterative_fixed_point_on_reconciled_input():
    rng = np.random.default_rng(12)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    sig = sigma_ols(ct)
    first = run_method("oct", block, sig)
    out = run_method("ite-tcs", first.block, sig, sig)
    assert out.iterations == 1
    assert out.trace[0] < 1e-8


def test_iterative_converges_to_oct_under_wlsv():
    rng = np.random.default_rng(13)
    ct = random_structure(rng, max_series=10, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    res = ResidualSet(rng.normal(size=(20, ct.n_series, ct.n_positions)) * rng.uniform(0.2, 3.0, size=(1, ct.n_series, 1)))
    sig = sigma_wlsv(ct, res)
    target = run_method("oct", block, sig).block
    scale = max(1.0, np.linalg.norm(block.values))
    gaps = {}
    for delta in (1e-5, 1e-6, 1e-10):
        out = run_method("ite-tcs", block, sig, sig, delta=delta, max_iter=5000)
        assert out.converged
        gaps[delta] = frobenius_gap(out.block, target)
        assert gaps[delta] <= 10 * delta * scale
    assert gaps[1e-5] >= gaps[1e-6] >= gaps[1e-10]
    # both orders land on the same point
    a = run_method("ite-cst", block, sig, sig, delta=1e-10, max_iter=5000)
    b = run_method("ite-tcs", block, sig, sig, delta=1e-10, max_iter=5000)
    assert frobenius_gap(a.block, b.block) <= 1e-6 * scale


def test_iterative_flags_non_convergence_but_returns_result():
    rng = np.random.default_rng(14)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    res = ResidualSet(rng.normal(size=(8, ct.n_series, ct.n_positions)) * rng.uniform(0.2, 3.0, size=(1, ct.n_series, 1)))
    sig = sigma_wlsv(ct, res)
    out = run_method("ite-tcs", block, sig, sig, delta=1e-14, max_iter=2)
    assert not out.converged
    assert "non-converged" in out.flags
    assert out.iterations == 2
    assert np.all(np.isfinite(out.block.values))


def test_iterative_validates_arguments():
    block = toy_block()
    sig = sigma_ols(block.structure)
    with pytest.raises(ValidationError, match="unknown method 'ite-both'; choose from"):
        run_method("ite-both", block, sig, sig)
    for delta in (0.0, -1e-6, np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="positive and finite"):
            run_method("ite-tcs", block, sig, sig, delta=delta)
    with pytest.raises(ValidationError):
        run_method("ite-tcs", block, sig, sig, max_iter=0)


# -- equivalence suite (constant weights) ------------------------------------


@pytest.mark.parametrize("seed", range(6))
def test_constant_weight_equivalence_suite(seed):
    # all sequential, averaged and alternating variants collapse onto the
    # one-shot solution with the separable covariance
    rng = np.random.default_rng(100 + seed)
    ct = random_structure(rng, max_series=30, max_upper=8, m_choices=(4, 12))
    block = random_block(rng, ct)
    w, om = constant_weights(rng, ct)
    oct_weights = np.kron(w, om)
    w, om = cs_table(ct, w), te_table(ct, om)

    results = {
        "seq-cst": run_method("seq-cst", block, w, om),
        "seq-tcs": run_method("seq-tcs", block, w, om),
        "ka-cst": run_method("ka-cst", block, w, om),
        "ka-tcs": run_method("ka-tcs", block, w, om),
        "ite-cst": run_method("ite-cst", block, w, om),
        "ite-tcs": run_method("ite-tcs", block, w, om),
        "oct": run_method("oct", block, oct_weights),
    }
    assert results["ite-cst"].iterations == 1
    assert results["ite-tcs"].iterations == 1
    tol = 1e-8 * max(1.0, np.linalg.norm(block.values))
    blocks = [r.block for r in results.values()]
    for i in range(len(blocks)):
        for j in range(i + 1, len(blocks)):
            assert frobenius_gap(blocks[i], blocks[j]) <= tol


# -- the weight table ------------------------------------------------------------


def test_square_block_reads_the_table_one_way_only():
    # n == q: an (n, q) table is still cell weights, columns for the
    # cross-sectional step and rows for the temporal step
    ct = toy_ct((2, 1))
    assert ct.n_series == ct.n_positions == 3
    rng = np.random.default_rng(22)
    block = random_block(rng, ct)
    table = rng.uniform(0.2, 5.0, size=(3, 3))
    x = block.vector
    for method in ("cs", "te"):
        oracle = structural_projector(ct.full_summing(method), table.ravel()).dense()
        for weights in (table, table.ravel()):
            out = run_method(method, block, weights).block.vector
            assert np.linalg.norm(out - oracle @ x) <= 1e-9 * np.linalg.norm(x)


def test_weight_table_must_cover_every_cell():
    block = toy_block()
    for bad in (np.ones(3), np.ones((3, 3, 3)), np.ones((2, 3))):
        with pytest.raises(ValidationError):
            run_method("cs", block, bad)
    with pytest.raises(ValidationError):
        run_method("te", block, -np.ones((3, 3)))
    # every n·q-entry array that is not (n, q) or flat would be misread
    ct = toy_ct((4, 2, 1))
    block = random_block(np.random.default_rng(23), ct)
    n, q = ct.n_series, ct.n_positions
    for bad in (np.ones((q, n)), np.ones((n * q, 1)), np.ones((1, n * q))):
        for method in ("cs", "te", "oct"):
            with pytest.raises(ValidationError, match="cell table"):
                run_method(method, block, bad)


# -- coherence profile -------------------------------------------------------


def test_coherence_profile_matches_constraint_grid():
    # "yes" cells hold at reporting tolerance; "no" cells are genuinely
    # violated on a generic instance with order-varying weights
    rng = np.random.default_rng(16)
    ct = random_structure(rng, max_series=10, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct, scale=5.0)
    res = ResidualSet(rng.normal(size=(12, ct.n_series, ct.n_positions)) * rng.uniform(0.2, 3.0, size=(1, ct.n_series, 1)))
    sig = sigma_wlsv(ct, res)
    tol = lambda r: 1e-8 * max(1.0, np.abs(r.block.values).max())

    r = run_method("cs", block, sig)
    assert r.coherence[0] <= tol(r) and r.coherence[1] > 1e-3
    r = run_method("te", block, sig)
    assert r.coherence[1] <= tol(r) and r.coherence[0] > 1e-3
    r = run_method("seq-cst", block, sig, sig)
    assert r.coherence[1] <= tol(r) and r.coherence[0] > 1e-3
    r = run_method("seq-tcs", block, sig, sig)
    assert r.coherence[0] <= tol(r) and r.coherence[1] > 1e-3
    for r in (
        run_method("oct", block, sig),
        run_method("ka-cst", block, sig, sig),
        run_method("ka-tcs", block, sig, sig),
        run_method("ite-tcs", block, sig, sig, delta=1e-9, max_iter=5000),
    ):
        assert max(r.coherence) <= tol(r)


def test_verify_coherence_profile_covers_every_method():
    # the profile check walks METHODS, the one table of methods
    assert check_coherence_profile().passed


def test_ct_methods_idempotent_on_own_output():
    rng = np.random.default_rng(17)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct)
    sig = sigma_ols(ct)
    out = run_method("oct", block, sig)
    again = run_method("oct", out.block, sig)
    assert frobenius_gap(again.block, out.block) <= 1e-9 * max(
        1.0, np.linalg.norm(out.block.values)
    )


# -- sntz ---------------------------------------------------------------------


def test_sntz_nonnegative_input_unchanged():
    rng = np.random.default_rng(18)
    ct = toy_ct((2, 1))
    bottom = rng.uniform(0.5, 2.0, size=(ct.cs.n_bottom, ct.te.m))
    block = ForecastBlock(ct.from_bottom_hf(bottom), ct)
    report = run_method("oct", block, sigma_ols(ct))
    out = sntz(report)
    assert frobenius_gap(out.block, report.block) < 1e-12
    assert out.method.endswith("+sntz")


def test_sntz_clamps_and_reaggregates():
    ct = toy_ct((2, 1))
    bottom = np.array([[1.0, -0.5], [2.0, 1.0]])
    block = ForecastBlock(ct.from_bottom_hf(bottom), ct)
    report = run_method("oct", block, sigma_ols(ct))
    out = sntz(report)
    clamped = np.array([[1.0, 0.0], [2.0, 1.0]])
    assert np.allclose(ct.bottom_hf(out.block.values), clamped)
    # ancestors rebuilt by aggregation: total hf = (3, 1), total 2-hour = 4
    assert np.allclose(out.block.values[0], [4.0, 3.0, 1.0])


def test_sntz_output_coherent_and_nonnegative_at_bottom():
    rng = np.random.default_rng(19)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    block = random_block(rng, ct, scale=2.0)
    out = sntz(run_method("oct", block, sigma_ols(ct)))
    x = out.block.vector
    assert np.abs(ct.full_constraint("ct") @ x).max() <= 1e-10 * max(1, np.abs(x).max())
    assert ct.bottom_hf(out.block.values).min() >= 0.0


# -- baselines -----------------------------------------------------------------


def test_pers_bu_constant_history():
    ct = toy_ct((2, 1))
    history = np.full((2, 2), 3.0)
    fb = baseline_pers_bu(history, ct)
    # every bottom cell 3; the total's order-k cell is n_b * c * k
    assert np.allclose(ct.bottom_hf(fb.values), 3.0)
    assert np.isclose(fb.values[0, 0], 2 * 3.0 * 2)
    assert np.allclose(fb.values[0, 1:], 2 * 3.0)


def test_pers_bu_toy_hand_aggregation():
    # bottoms persist at 1 and 2; the 2-hour total is (1+2)*2
    ct = toy_ct((2, 1))
    history = np.array([[1.0, 1.0], [2.0, 2.0]])
    fb = baseline_pers_bu(history, ct)
    assert np.isclose(fb.values[0, 0], 6.0)
    assert ct.cs_residual(fb.values) < 1e-12
    assert ct.te_residual(fb.values) < 1e-12


def test_pers_bu_uses_trailing_cycle_and_validates():
    ct = toy_ct((2, 1))
    history = np.array([[9.0, 1.0, 1.0], [9.0, 2.0, 2.0]])  # 1.5 cycles
    fb = baseline_pers_bu(history, ct)
    assert np.allclose(ct.bottom_hf(fb.values), [[1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValidationError):
        baseline_pers_bu(np.ones((2, 1)), ct)


def test_baseline_bu_rebuilds_from_bottom():
    rng = np.random.default_rng(20)
    ct = toy_ct((2, 1))
    block = ForecastBlock(rng.normal(size=(3, 3)), ct)
    fb = prepare("bu", ct, None)(block).block
    assert np.allclose(ct.bottom_hf(fb.values), ct.bottom_hf(block.values))
    assert ct.cs_residual(fb.values) < 1e-12
    assert ct.te_residual(fb.values) < 1e-12


def test_prepare_bu_is_the_bottom_up_map_and_traces_its_change():
    rng = np.random.default_rng(25)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4, 12))
    block = random_block(rng, ct)
    report = prepare("bu", ct, None)(block)
    expected = ct.from_bottom_hf(ct.bottom_hf(block.values))
    assert np.array_equal(report.block.values, expected)
    assert report.trace == (frobenius_gap(report.block, block),)
    assert report.trace[0] > 0 and report.iterations == 1
    assert report.covariance == "none" and report.flags == ()
    assert report.delta is None and report.prepare_s > 0


def test_bottom_up_never_builds_the_cross_sectional_summing_matrix():
    # 2 uppers over 5 bottoms, as in the constraint-form test below
    ct = build_ct(build_cs(np.array([[1.0] * 5, [1.0, 1.0, 0, 0, 0]])), build_te([4, 2, 1]))
    data = simulate_dataset(ct, n_origins=2, seed=5)
    assert "summing_dense" not in ct.cs.__dict__
    report = prepare("bu", ct, sigma_ols(ct))(data.bases[0])
    assert "summing_dense" not in ct.cs.__dict__
    sntz(prepare("oct", ct, sigma_ols(ct))(data.bases[1]))
    assert "summing_dense" not in ct.cs.__dict__
    # the summing-matrix product adds in another order: equal to rounding
    expected = ct.cs.summing_dense @ ct.bottom_hf(data.bases[0].values) @ ct.te.summing_dense.T
    atol = 8 * np.finfo(float).eps * np.abs(expected).max()
    np.testing.assert_allclose(report.block.values, expected, rtol=0, atol=atol)


# -- batch runner ---------------------------------------------------------------


def test_run_batch_is_deterministic_across_worker_counts():
    rng = np.random.default_rng(21)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    blocks = [random_block(rng, ct, origin_id=f"{i:03d}") for i in range(6)]
    sig = sigma_ols(ct)
    strategy = lambda b: run_method("oct", b, sig)
    serial = run_batch(blocks, strategy, max_workers=1)
    threaded = run_batch(list(reversed(blocks)), strategy, max_workers=4)
    assert [r.block.origin_id for r in serial] == [r.block.origin_id for r in threaded]
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.block.values, b.block.values)


@pytest.mark.parametrize(
    "method, builds",
    [("oct", ["cross_temporal_projector"]), ("ite-tcs", ["batched_projector"] * 2)],
)
def test_prepare_builds_before_any_block_and_never_again(monkeypatch, method, builds):
    calls = []

    def counting(name):
        real = getattr(reconcile, name)
        return lambda *args: calls.append(name) or real(*args)

    for name in ("batched_projector", "cross_temporal_projector"):
        monkeypatch.setattr(reconcile, name, counting(name))
    rng = np.random.default_rng(24)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    blocks = [random_block(rng, ct, origin_id=str(i)) for i in range(3)]
    strategy = prepare(method, ct, rng.uniform(0.5, 2.0, size=(ct.n_series, ct.n_positions)))
    assert calls == builds
    for workers in (1, 2):
        reports = run_batch(blocks, strategy, max_workers=workers)
        assert calls == builds
        assert len({r.prepare_s for r in reports}) == 1 and reports[0].prepare_s > 0


def test_prepare_raises_a_weight_fault_before_any_block():
    ct = toy_ct((4, 2, 1))
    varying = np.ones((ct.n_series, ct.n_positions))
    varying[0, 1] = 2.0  # order 2's first position only
    with pytest.raises(ValidationError, match=(
        "the averaging heuristic needs one cross-sectional weight per order, "
        "but the weights vary within an order"
    )):
        prepare("ka-tcs", ct, varying)
    with pytest.raises(ValidationError, match="cell table"):
        prepare("oct", ct, np.ones((ct.n_series, ct.n_positions + 1)))
    singular = np.ones((ct.n_series, ct.n_positions))
    singular[0, -1] = 1e-20  # one finest cell dominates its series' temporal Gram
    with pytest.raises(SingularSystemError, match="temporal structural Gram matrix"):
        prepare("oct", ct, singular)


@pytest.mark.parametrize("bad", [0.0, -1.0, np.nan, np.inf])
def test_prepare_rejects_non_positive_weights_before_any_build(monkeypatch, bad):
    # prepare checks the tables once; the kernel takes them as given
    for name in ("batched_projector", "cross_temporal_projector"):
        monkeypatch.setattr(reconcile, name, lambda *a: pytest.fail("built"))
    ct = toy_ct((4, 2, 1))
    good = np.ones((ct.n_series, ct.n_positions))
    table = good.copy()
    table[1, 2] = bad
    for method in METHODS:
        if method == "bu":  # reads no weight, so checks none
            for weights in (table, table.ravel(), good.T):
                prepare(method, ct, weights)
            continue
        for weights in (table, table.ravel()):
            with pytest.raises(ValidationError, match="weights must be positive and finite"):
                prepare(method, ct, weights)
        with pytest.raises(ValidationError, match="cell table"):  # a (q, n) table
            prepare(method, ct, good.T)


def test_a_prepared_method_keeps_its_weights_when_the_callers_array_changes():
    # oct's apply divides by the weight table it was built for; a shared
    # caller array changed after prepare would mix two weightings
    block = toy_block()
    ct = block.structure
    W = np.random.default_rng(0).uniform(0.5, 2.0, size=(ct.n_series, ct.n_positions))
    run = prepare("oct", ct, W)
    before = run(block).block.values
    W *= 5
    W[0, 0] = 100.0
    assert np.array_equal(run(block).block.values, before)


@pytest.mark.parametrize("method", METHODS)
def test_prepare_checks_each_weight_it_reads_once(monkeypatch, method):
    calls = []
    real = reconcile._cells
    monkeypatch.setattr(reconcile, "_cells", lambda ct, s: calls.append(s) or real(ct, s))
    ct = toy_ct((4, 2, 1))
    good, bad = np.ones((ct.n_series, ct.n_positions)), np.zeros(7)
    if method in ("cs", "oct"):  # the unread temporal weight is never checked
        prepare(method, ct, good, bad)
        assert calls == [good]
    elif method == "te":  # nor the unread cross-sectional one
        prepare(method, ct, bad, good)
        assert calls == [good]
    elif method == "bu":  # nor either weight of bottom-up
        prepare(method, ct, bad, bad)
        assert calls == []
    else:
        prepare(method, ct, good, 2 * good)
        assert [c[0, 0] for c in calls] == [1.0, 2.0]


@pytest.mark.parametrize("method", ["oct", "cs", "seq-cst", "ka-tcs", "ite-tcs"])
def test_the_constraint_form_never_builds_the_cross_sectional_summing_matrix(method):
    # 2 uppers over 5 bottoms: every cross-sectional projection takes the
    # constraint form, which reads only the constraint matrix
    ct = build_ct(build_cs(np.array([[1.0] * 5, [1.0, 1.0, 0, 0, 0]])), build_te([4, 2, 1]))
    rng = np.random.default_rng(5)
    weights = np.repeat(rng.uniform(0.5, 2.0, size=(ct.n_series, 3)), [1, 2, 4], axis=1)
    prepare(method, ct, weights)(ForecastBlock(rng.normal(size=weights.shape), ct))
    assert "summing_dense" not in ct.cs.__dict__


def test_traced_peaks_exclude_an_outer_sessions_memory():
    import tracemalloc

    ct = pv324_structure()
    run = prepare("oct", ct, sigma_ols(ct))
    block = random_block(np.random.default_rng(6), ct)
    tracemalloc.start()
    try:
        held = np.ones(10_000_000)  # 80 MB traced before the origin runs
        report = run(block)
        assert tracemalloc.is_tracing()  # the session goes on
    finally:
        tracemalloc.stop()
    assert held.nbytes == 80_000_000
    assert 0 < report.peak_mem < 10_000_000


def test_a_meter_outside_any_session_reads_no_peak():
    with reconcile._Meter() as meter:
        np.ones(1_000_000)
    assert meter.peak == 0 and meter.elapsed > 0
    block = toy_block()
    report = run_method("ite-tcs", block, sigma_ols(block.structure))
    assert report.peak_mem == 0 and report.prepare_peak_mem == 0


def test_traced_origins_run_one_at_a_time_whatever_the_worker_count():
    # concurrent origins would reset each other's process-wide peak
    import tracemalloc

    ct = pv324_structure()
    data = simulate_dataset(ct, n_origins=12, seed=11)
    run = prepare("oct", ct, sigma_wlsv(ct, data.residuals))
    tracemalloc.start()
    try:
        run(data.bases[0])  # the first apply traces a few one-off bytes more
        serial = [r.peak_mem for r in run_batch(data.bases, run, max_workers=1)]
        pooled = [r.peak_mem for r in run_batch(data.bases, run, max_workers=4)]
    finally:
        tracemalloc.stop()
    assert all(peak > 0 for peak in serial)
    assert pooled == serial


def test_an_apply_traces_its_result_and_one_difference_at_most():
    # the gap squares its fresh difference in place: oct and bu hold their
    # result and that difference (2 n q cells), no third n x q array; the
    # 2 KiB cover the two array headers and numpy's reduction bookkeeping
    # (1 096 B at pv324)
    import tracemalloc

    ct = pv324_structure()
    data = simulate_dataset(ct, n_origins=3, seed=11)
    sig = sigma_wlsv(ct, data.residuals)
    runs = {m: prepare(m, ct, sig, delta=1e-10) for m in ("oct", "bu", "ite-tcs")}
    tracemalloc.start()
    try:
        peaks = {m: [run(b).peak_mem for b in data.bases] for m, run in runs.items()}
    finally:
        tracemalloc.stop()
    cells = ct.n_series * ct.n_positions * 8
    for method in ("oct", "bu"):
        assert all(peak <= 2 * cells + 2048 for peak in peaks[method][1:]), peaks
    assert all(peak < 779_448 for peak in peaks["ite-tcs"][1:]), peaks


@pytest.mark.parametrize("method", [*METHODS, "sntz"])
def test_a_report_stores_the_apply_result_frozen_and_unshared(method, monkeypatch):
    # a fresh result is stored without a copy, a view is copied; either way
    # the block is the apply's values, read-only, C-ordered and its own
    ct = build_ct(build_cs(np.array([[1.0] * 5, [1.0, 1.0, 0, 0, 0]])), build_te([4, 2, 1]))
    rng = np.random.default_rng(8)
    weights = np.repeat(rng.uniform(0.5, 2.0, size=(ct.n_series, 3)), [1, 2, 4], axis=1)
    results = []
    real = ForecastBlock._with_result

    def recording(self, values):
        results.append(np.array(values))
        return real(self, values)

    monkeypatch.setattr(ForecastBlock, "_with_result", recording)
    run = prepare("oct" if method == "sntz" else method, ct, weights)
    blocks = [random_block(rng, ct, origin_id=str(i)) for i in range(2)]
    reports = [sntz(run(b)) if method == "sntz" else run(b) for b in blocks]
    if method == "sntz":  # oct's result, then the clamp's
        results = results[1::2]
    for block, report, values in zip(blocks, reports, results):
        stored = report.block.values
        assert not stored.flags.writeable and stored.flags.c_contiguous
        assert not np.shares_memory(stored, block.values)
        assert np.array_equal(stored, values)
    assert not np.shares_memory(reports[0].block.values, reports[1].block.values)


@pytest.mark.parametrize("method", ["bu", "sntz"])
def test_a_non_finite_apply_result_names_its_origin(method):
    # finite bottoms whose sum overflows
    ct = toy_ct((2, 1))
    values = np.zeros((ct.n_series, ct.n_positions))
    values[ct.cs.n_upper :] = 1e308
    block = ForecastBlock(values, ct, "0042")
    run = prepare("bu", ct, None)
    overflow = np.errstate(over="ignore", invalid="ignore")
    with overflow, pytest.raises(ValidationError, match="origin 0042: non-finite"):
        if method == "bu":
            run(block)
        else:  # the clamp rebuilds the block from its bottoms
            sntz(replace(run(ForecastBlock(np.zeros_like(values), ct)), block=block))


def test_degenerate_single_order_grid():
    # one duplicated series, no temporal aggregation: projections are benign
    ct = build_ct(build_cs(np.array([[1.0]])), build_te([1]))
    coherent = ForecastBlock(np.array([[2.0], [2.0]]), ct)
    sig = sigma_ols(ct)
    for report in (
        run_method("oct", coherent, sig),
        run_method("te", coherent, sig),
        run_method("ite-tcs", coherent, sig, sig),
    ):
        assert frobenius_gap(report.block, coherent) < 1e-12
    # the temporal step is the identity even on incoherent input
    ragged = ForecastBlock(np.array([[3.0], [1.0]]), ct)
    assert frobenius_gap(run_method("te", ragged, sig).block, ragged) < 1e-12


def test_constant_residuals_floor_flag_surfaces_and_methods_still_work():
    ct = toy_ct((2, 1))
    res = ResidualSet(np.zeros((3, 3, 3)))  # zero variance everywhere
    sig = sigma_wlsv(ct, res)
    assert len(sig.floored) == ct.n_series * len(ct.te.orders)
    block = ForecastBlock(np.array([[4.0, 1.0, 2.0], [1.0, 0.5, 1.0], [2.0, 1.0, 0.5]]), ct)
    out = run_method("ite-tcs", block, sig, sig)
    # the floored covariance is a scaled identity: single-cycle convergence
    assert out.iterations == 1
    assert "variance-floor" in out.flags
    assert max(out.coherence) <= 1e-8 * max(1.0, np.abs(out.block.values).max())


def _floored_on_series_a():
    """tot = a + b at orders 2, 1 and a wlsv covariance from five residual
    origins in which series a is all zero, so its cells are floored."""
    ct = build_ct(build_cs(np.array([[1.0, 1.0]]), ["tot", "a", "b"]), build_te([2, 1]))
    residuals = np.random.default_rng(4).normal(size=(5, 3, 3))
    residuals[:, 1] = 0.0
    return ct, sigma_wlsv(ct, ResidualSet(residuals))


@pytest.mark.parametrize("method", METHODS)
def test_a_floored_covariance_flags_a_report_once(method):
    # one floored covariance weighs both steps: the flag is a fact about the
    # weights, not one entry per step
    ct, sig = _floored_on_series_a()
    assert sig.floored
    block = random_block(np.random.default_rng(5), ct)
    report = run_method(method, block, sig)
    if method == "bu":  # reads no weight, so no floored one
        assert "variance-floor" not in report.flags
        return
    assert report.flags.count("variance-floor") == 1
    assert report.flags[0] == "variance-floor"


def test_forecast_block_round_trip_and_validation():
    ct = toy_ct((2, 1))
    with pytest.raises(ValidationError):
        ForecastBlock(np.ones((2, 2)), ct)
    with pytest.raises(ValidationError):
        ForecastBlock(np.full((3, 3), np.nan), ct)
    block = toy_block()
    assert np.array_equal(block.vector, block.values.ravel())
