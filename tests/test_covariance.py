"""Tests for the named covariance constructions."""

import numpy as np
import pytest

from ctrec.covariance import (
    ResidualSet,
    build_sigma,
    sigma_ols,
    sigma_str,
    sigma_wlsv,
)
from ctrec.errors import ValidationError
from ctrec.hierarchy import build_cs, build_ct, build_te
from helpers import random_agg, run_method, toy_ct


def test_sigma_ols_is_identity():
    ct = toy_ct()
    sig = sigma_ols(ct)
    assert sig.diag.shape == (9,)
    assert np.array_equal(sig.diag, np.ones(9))
    # so is its cell table
    assert np.array_equal(sig.cells(), np.ones((3, 3)))


def test_sigma_str_row_sums():
    ct = build_ct(build_cs(np.array([[1.0, 1.0]])), build_te([4, 2, 1]))
    sig = sigma_str(ct)
    # cross-sectional factor (2,1,1), temporal factor (4,2,2,1,1,1,1)
    expected = np.kron([2.0, 1.0, 1.0], [4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0])
    assert np.array_equal(sig.diag, expected)
    # separability: elementwise product of the two one-sided variants
    cs_only = sigma_str(ct, variant="cs").diag
    te_only = sigma_str(ct, variant="te").diag
    assert np.array_equal(cs_only * te_only, sig.diag)


def test_sigma_str_one_sided_variants():
    ct = build_ct(build_cs(np.array([[1.0, 1.0]])), build_te([4, 2, 1]))
    assert np.array_equal(
        sigma_str(ct, variant="cs").diag, np.repeat([2.0, 1.0, 1.0], 7)
    )
    assert np.array_equal(
        sigma_str(ct, variant="te").diag,
        np.tile([4.0, 2.0, 2.0, 1.0, 1.0, 1.0, 1.0], 3),
    )


def test_wlsv_constant_residuals_all_floored_to_square():
    ct = toy_ct()
    # every residual equals c: zero-mean variance is c^2 in every cell
    c = 0.5
    res = ResidualSet(np.full((3, 3, 3), c))
    sig = sigma_wlsv(ct, res)
    assert np.allclose(sig.diag, c**2)
    assert sig.floored == ()


def test_wlsv_two_origin_hand_cell():
    ct = toy_ct()
    blocks = np.full((2, 3, 3), 2.0)  # keep other cells positive
    blocks[0, 0, 0] = 1.0  # series 0, the single order-2 position
    blocks[1, 0, 0] = -1.0
    sig = sigma_wlsv(ct, ResidualSet(blocks))
    assert np.isclose(sig.cells()[0, 0], 1.0)  # ((+1)^2 + (-1)^2) / 2


def test_wlsv_zero_cell_floored_and_flagged():
    ct = toy_ct()
    blocks = np.full((2, 3, 3), 2.0)
    blocks[:, 1, 0] = 0.0  # series 1, order 2: zero variance
    sig = sigma_wlsv(ct, ResidualSet(blocks))
    assert (1, 2) in sig.floored
    assert sig.cells()[1, 0] > 0


def test_wlsv_frameworks_coincide_through_layout():
    # the ct diagonal, the per-order cross-sectional weights, and the
    # per-series temporal weights describe one object: the cell table
    rng = np.random.default_rng(4)
    ct = build_ct(build_cs(random_agg(rng, 1, 2)), build_te([2, 1]))
    res = ResidualSet(rng.normal(size=(5, 3, 3)))
    sig = sigma_wlsv(ct, res)

    # the cell table is the diagonal in block shape: row i holds series i
    assert np.array_equal(sig.cells().ravel(), sig.diag)

    # position-major diagonal: one per-order W block per canonical position,
    # each order's weights read off the table at its first position
    w = {k: sig.cells()[:, ct.te.order_slice(k).start] for k in ct.te.orders}
    position_major = np.concatenate(
        [w[k] for k in ct.te.orders for _ in range(ct.te.m // k)]
    )
    assert np.allclose(position_major, sig.cells().T.ravel())


def test_residual_set_validation():
    with pytest.raises(ValidationError):
        ResidualSet(np.zeros((1, 2, 3)))  # too few origins
    with pytest.raises(ValidationError):
        ResidualSet(np.full((2, 2, 3), np.nan))


def test_wlsv_pools_squares_about_zero():
    ct = toy_ct()
    blocks = np.full((4, 3, 3), 0.1)  # keep other cells nonzero
    blocks[:, 0, 1] = [1.0, 1.0, 3.0, 3.0]  # series 0, an order-1 cell
    raw = sigma_wlsv(ct, ResidualSet(blocks))
    # zero-mean convention: the pooled squares, the mean not subtracted
    pool = np.concatenate([blocks[:, 0, 1], blocks[:, 0, 2]])
    assert np.isclose(raw.cells()[0, 1], np.mean(pool**2))


def test_build_sigma_dispatch():
    ct = toy_ct()
    assert build_sigma("ols", ct).name == "ols"
    assert build_sigma("str_te", ct).name == "str_te"
    with pytest.raises(ValidationError, match="unknown covariance"):
        build_sigma("mint", ct)
    with pytest.raises(ValidationError, match="residual"):
        build_sigma("wlsv", ct)  # missing residuals


def test_per_order_view_rejects_position_varying_diagonal():
    from ctrec.covariance import DiagonalSigma
    from ctrec.reconcile import ForecastBlock

    ct = toy_ct()
    diag = np.arange(1.0, 10.0)
    sig = DiagonalSigma(ct, diag, name="custom")
    block = ForecastBlock(np.ones((3, 3)), ct)
    # the averaging heuristic reads one cross-sectional weight per order
    with pytest.raises(ValidationError, match="per order"):
        run_method("ka-tcs", block, sig)
