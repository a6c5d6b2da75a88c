"""Tests for the aggregation structures and the canonical layout."""

import numpy as np
import pytest

from ctrec import hierarchy
from ctrec.errors import StructureError
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.simulate import random_structure


def toy_ct(orders=(2, 1)):
    cs = build_cs(np.array([[1.0, 1.0]]))
    te = build_te(orders)
    return build_ct(cs, te)


def random_agg(rng, n_u, n_b):
    """Total row plus random integer rows, none all-zero."""
    rows = [np.ones(n_b)]
    for _ in range(n_u - 1):
        row = rng.integers(0, 3, size=n_b)
        if not row.any():
            row[rng.integers(n_b)] = 1
        rows.append(row)
    return np.array(rows, dtype=float)


# -- cross-sectional -----------------------------------------------------


def test_build_cs_smallest_hierarchy():
    cs = build_cs(np.array([[1.0, 1.0]]))
    assert (cs.n_series, cs.n_upper, cs.n_bottom) == (3, 1, 2)
    assert np.array_equal(cs.summing_dense, [[1, 1], [1, 0], [0, 1]])
    assert np.array_equal(cs.constraint_dense, [[1, -1, -1]])


def test_build_cs_pv324_counts():
    zones = (27, 73, 101, 86, 31)
    rows = [np.ones(318)]
    start = 0
    for width in zones:
        row = np.zeros(318)
        row[start : start + width] = 1.0
        rows.append(row)
        start += width
    cs = build_cs(np.array(rows))
    assert (cs.n_series, cs.n_upper, cs.n_bottom) == (324, 6, 318)


def test_build_cs_degenerate_identity():
    cs = build_cs(np.eye(3))
    C, S = cs.constraint_dense, cs.summing_dense
    assert np.array_equal(C, np.hstack([np.eye(3), -np.eye(3)]))
    assert np.array_equal(C @ S, np.zeros((3, 3)))


def test_build_cs_rejects_bad_input():
    with pytest.raises(StructureError):
        build_cs(np.empty((0, 0)))
    with pytest.raises(StructureError):
        build_cs(np.array([[1.0, np.nan]]))
    with pytest.raises(StructureError):
        build_cs(np.array([[1.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(StructureError):
        build_cs(np.array([[1.0, 1.0]]), labels=["a", "b"])


# -- temporal -----------------------------------------------------------


def test_build_te_quarterly():
    te = build_te([4, 2, 1])
    assert te.m == 4
    assert te.k_star == 3
    expected_s = np.array(
        [
            [1, 1, 1, 1],
            [1, 1, 0, 0],
            [0, 0, 1, 1],
            [1, 0, 0, 0],
            [0, 1, 0, 0],
            [0, 0, 1, 0],
            [0, 0, 0, 1],
        ]
    )
    assert np.array_equal(te.summing_dense, expected_s)
    assert np.array_equal(te.row_sums, [4, 2, 2, 1, 1, 1, 1])


def test_build_te_hourly_grid():
    te = build_te([24, 12, 8, 6, 4, 3, 2, 1])
    # direct sum of m/k over the aggregated orders
    assert te.k_star == sum(24 // k for k in (24, 12, 8, 6, 4, 3, 2)) == 36
    assert te.n_positions == 60


def test_build_te_two_leaf():
    te = build_te([2, 1])
    assert np.array_equal(te.summing_dense, [[1, 1], [1, 0], [0, 1]])
    assert np.array_equal(te.constraint_dense @ te.summing_dense, [[0, 0]])


def test_build_te_adds_one_with_warning():
    with pytest.warns(UserWarning):
        te = build_te([4, 2])
    assert te.orders == (4, 2, 1)


def test_build_te_rejects_non_divisors():
    with pytest.raises(StructureError):
        build_te([4, 3, 1])


def test_te_position_bookkeeping():
    te = build_te([4, 2, 1])
    assert np.array_equal(te.position_orders, [4, 2, 2, 1, 1, 1, 1])
    assert te.order_slice(4) == slice(0, 1)
    assert te.order_slice(2) == slice(1, 3)
    assert te.order_slice(1) == slice(3, 7)
    assert te.hf_slice == slice(3, 7)
    # every finest column is covered exactly once per order block
    S = te.summing_dense
    for k in te.orders:
        block = S[te.order_slice(k), :]
        assert np.array_equal(block.sum(axis=0), np.ones(te.m))


# -- cross-temporal ------------------------------------------------------


def test_build_ct_toy_dimensions():
    ct = toy_ct()
    assert ct.dim == 9
    # summing factors are 3x2 each, so the combined map is 9 x (n_b * m) = 9 x 4
    assert ct.full_summing("ct").shape == (9, 4)
    # constraint rows: n_u * m cross-sectional at the finest grain + n * k_star temporal
    assert ct.full_constraint("ct").shape == (1 * 2 + 3 * 1, 9)


def test_build_ct_pv324_vector_length():
    zones = (27, 73, 101, 86, 31)
    rows = [np.ones(318)]
    start = 0
    for width in zones:
        row = np.zeros(318)
        row[start : start + width] = 1.0
        rows.append(row)
        start += width
    ct = build_ct(build_cs(np.array(rows)), build_te([24, 12, 8, 6, 4, 3, 2, 1]))
    assert ct.dim == 324 * 60 == 19440


def test_build_ct_size_cap(monkeypatch):
    cs = build_cs(np.ones((1, 100)))
    te = build_te([24, 12, 8, 6, 4, 3, 2, 1])
    built = build_ct(cs, te)
    monkeypatch.setattr(hierarchy, "DEFAULT_SIZE_CAP", 1000)
    with pytest.raises(StructureError, match="full vector length 6060 exceeds the size cap 1000"):
        build_ct(cs, te)
    monkeypatch.setattr(hierarchy, "DEFAULT_SIZE_CAP", 10**7)
    # the cap is checked, not stored: it does not tell two structures apart
    assert build_ct(cs, te) == built


def test_ct_summing_is_product_of_expanded_factors():
    # the combined map equals the cs expansion times the bottom-restricted te expansion
    ct = toy_ct(orders=(4, 2, 1))
    left = ct.full_summing("cs").toarray()
    right = np.kron(np.eye(ct.cs.n_bottom), ct.te.summing_dense)
    assert np.array_equal(left @ right, ct.full_summing("ct").toarray())


def test_constraint_times_summing_is_exactly_zero():
    # [I, -A] @ [A; I] has entries 1*a - a*1 plus products with zero, so it is
    # exactly zero for any finite weights: integer ones, and real ones of
    # either sign from 1e-300 to 1e300 (why build_ct checks no product)
    rng = np.random.default_rng(7)
    for case in range(40):
        n_u = int(rng.integers(1, 5))
        n_b = int(rng.integers(2, 8))
        m = int(rng.choice([4, 6, 12]))
        orders = tuple(k for k in (m, m // 2, 3, 2, 1) if k >= 1 and m % k == 0)
        agg = random_agg(rng, n_u, n_b)
        if case % 2:  # real weights in place of the integer ones
            sign = rng.choice([-1.0, 1.0], size=agg.shape)
            agg = sign * rng.uniform(1, 10, agg.shape) * 10.0 ** rng.integers(-300, 301, agg.shape)
        ct = build_ct(build_cs(agg), build_te(orders))
        for C, S in (
            (ct.cs.constraint_dense, ct.cs.summing_dense),
            (ct.te.constraint_dense, ct.te.summing_dense),
        ):
            assert np.array_equal(C @ S, np.zeros((len(C), S.shape[1])))
        for fw in ("cs", "te", "ct"):
            prod = (ct.full_constraint(fw) @ ct.full_summing(fw)).toarray()
            assert np.array_equal(prod, np.zeros_like(prod)), fw


def _ct_instances():
    rng = np.random.default_rng(11)
    cases = [random_structure(rng, 12, 4, m_choices=(1, 2, 4, 12)) for _ in range(12)]
    real = build_cs(rng.uniform(-2.0, 2.0, size=(3, 5)))  # non-integer weights
    cases += [build_ct(real, build_te(orders)) for orders in ([1], [6, 3, 2, 1])]
    return cases


@pytest.mark.parametrize("framework", ["cs", "te", "ct"])
def test_full_operators_are_kronecker_products_of_the_dense_factors(framework):
    # entry by entry, on random integer and non-integer structures: cs acts on
    # each position, te on each series, and the ct constraints stack the
    # cross-sectional ones on the m finest positions over the temporal ones
    for ct in _ct_instances():
        n, q, m, k = ct.n_series, ct.n_positions, ct.te.m, ct.te.k_star
        S_cs, C_cs = ct.cs.summing_dense, ct.cs.constraint_dense
        S_te, C_te = ct.te.summing_dense, ct.te.constraint_dense
        hf = np.zeros((m, ct.cs.n_upper, n, q))  # row (t, a), column (i, p)
        for t in range(m):
            hf[t, :, :, k + t] = C_cs
        summing, constraint = {
            "cs": (np.kron(S_cs, np.eye(q)), np.kron(C_cs, np.eye(q))),
            "te": (np.kron(np.eye(n), S_te), np.kron(np.eye(n), C_te)),
            "ct": (
                np.kron(S_cs, S_te),
                np.vstack([hf.reshape(-1, n * q), np.kron(np.eye(n), C_te)]),
            ),
        }[framework]
        assert np.array_equal(ct.full_summing(framework).toarray(), summing)
        assert np.array_equal(ct.full_constraint(framework).toarray(), constraint)


def test_ct_summing_rank_matches_dense_oracle():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n_b = int(rng.integers(2, 5))
        ct = build_ct(
            build_cs(random_agg(rng, int(rng.integers(1, 4)), n_b)),
            build_te([4, 2, 1]),
        )
        assert ct.dim <= 200
        K = ct.full_summing("ct").toarray()
        assert np.linalg.matrix_rank(K) == ct.te.m * ct.cs.n_bottom


def test_vectorize_round_trip():
    ct = toy_ct(orders=(4, 2, 1))
    rng = np.random.default_rng(0)
    X = rng.normal(size=(ct.n_series, ct.n_positions))
    assert np.array_equal(ct.vectorize(X).reshape(X.shape), X)
    # series-major: first block is series 1's full temporal run
    x = ct.vectorize(X)
    assert np.array_equal(x[: ct.n_positions], X[0])


@pytest.mark.parametrize("orders", [(1,), (2, 1), (12, 6, 4, 3, 2, 1), (24, 12, 8, 6, 4, 3, 2, 1)])
def test_te_residual_is_the_largest_temporal_constraint_violation(orders):
    ct = build_ct(build_cs(np.array([[1.0, 1.0, 1.0]])), build_te(orders))
    X = np.random.default_rng(2).normal(size=(ct.n_series, ct.n_positions)) * 1e3
    C = ct.te.constraint_dense
    expected = np.abs(X @ C.T).max() if len(C) else 0.0
    assert ct.te_residual(X) == pytest.approx(expected, rel=1e-12)
    assert ct.te_residual(np.asfortranarray(X)) == ct.te_residual(X)
    X[1, -1] = np.nan
    assert np.isnan(ct.te_residual(X)) == (len(C) > 0)


def test_bottom_up_round_trip_and_coherence():
    ct = toy_ct(orders=(4, 2, 1))
    rng = np.random.default_rng(1)
    bottom = rng.normal(size=(ct.cs.n_bottom, ct.te.m))
    X = ct.from_bottom_hf(bottom)
    assert np.allclose(ct.bottom_hf(X), bottom)
    assert ct.cs_residual(X) < 1e-12
    assert ct.te_residual(X) < 1e-12
    # aggregates are plain sums
    assert np.isclose(X[0, 0], bottom.sum())

