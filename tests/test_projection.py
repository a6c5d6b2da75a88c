"""Tests for the projection operators, against dense brute-force oracles."""

import warnings
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg as sla

import ctrec.projection as projection
from ctrec.errors import NotPositiveDefiniteError, SingularSystemError, ValidationError
from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.projection import batched_projector, cross_temporal_projector, sym_solver
from ctrec.reconcile import _mean_projection
from ctrec.reference import DENSE_SOLVE_CUTOFF, structural_projector, zero_projector
from ctrec.simulate import pv324_structure
from helpers import random_agg, random_spd, random_structure, run_method, toy_cs, toy_ct

S3 = np.array([[1.0, 1.0], [1.0, 0.0], [0.0, 1.0]])
H3 = np.array([[1.0, -1.0, -1.0]])


def oracle_structural(K, Sigma):
    """Brute-force K (Kᵀ Σ⁻¹ K)⁻¹ Kᵀ Σ⁻¹ with explicit inverses."""
    Si = np.linalg.inv(Sigma)
    return K @ np.linalg.inv(K.T @ Si @ K) @ K.T @ Si


def oracle_zero(H, Sigma):
    """Brute-force I − Σ Hᵀ (H Σ Hᵀ)⁻¹ H with explicit inverses."""
    dim = H.shape[1]
    return np.eye(dim) - Sigma @ H.T @ np.linalg.inv(H @ Sigma @ H.T) @ H


def test_structural_fixed_point_on_coherent_input():
    proj = structural_projector(S3, np.ones(3))
    coherent = np.array([2.0, 1.0, 1.0])
    assert np.allclose(proj(coherent), coherent, atol=1e-12)


def test_structural_ols_hand_example():
    # normal equations by hand: SᵀS = [[2,1],[1,2]], Sᵀx = (4,4) -> b = (4/3,4/3)
    proj = structural_projector(S3, np.ones(3))
    out = proj(np.array([3.0, 1.0, 1.0]))
    assert np.allclose(out, [8 / 3, 4 / 3, 4 / 3], atol=1e-12)


def test_structural_scaled_sigma_matches_dense_oracle():
    sigma = np.diag([2.0, 1.0, 1.0])
    expected = oracle_structural(S3, sigma) @ np.array([3.0, 1.0, 1.0])
    out = structural_projector(S3, np.array([2.0, 1.0, 1.0]))(
        np.array([3.0, 1.0, 1.0])
    )
    assert np.allclose(out, expected, atol=1e-12)


def test_zero_fixed_point_when_constraints_hold():
    proj = zero_projector(H3, np.ones(3))
    coherent = np.array([2.0, 1.0, 1.0])
    assert np.allclose(proj(coherent), coherent, atol=1e-12)


def test_zero_equals_structural_on_hand_example():
    out = zero_projector(H3, np.ones(3))(np.array([3.0, 1.0, 1.0]))
    assert np.allclose(out, [8 / 3, 4 / 3, 4 / 3], atol=1e-12)


def test_zero_ct_toy_coherence():
    ct = toy_ct()
    H = ct.full_constraint("ct")
    rng = np.random.default_rng(0)
    out = zero_projector(H, np.ones(ct.dim))(rng.normal(size=ct.dim))
    assert np.abs(H @ out).max() < 1e-12


@pytest.mark.parametrize("framework", ["cs", "te", "ct"])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_structural_and_zero_forms_agree(framework, seed):
    rng = np.random.default_rng(seed)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    K = ct.full_summing(framework)
    H = ct.full_constraint(framework)
    for sigma in (rng.uniform(0.5, 2.0, size=ct.dim), random_spd(rng, ct.dim)):
        x = rng.normal(size=ct.dim)
        a = structural_projector(K, sigma)(x)
        b = zero_projector(H, sigma)(x)
        assert np.linalg.norm(a - b) <= 1e-8 * np.linalg.norm(x)


@pytest.mark.parametrize("seed", [3, 4])
def test_projector_invariants(seed):
    rng = np.random.default_rng(seed)
    ct = random_structure(rng, max_series=8, max_upper=3, m_choices=(4,))
    K = ct.full_summing("ct")
    H = ct.full_constraint("ct")
    sigma = rng.uniform(0.5, 2.0, size=ct.dim)
    proj = structural_projector(K, sigma)
    x = rng.normal(size=ct.dim)
    y = proj(x)
    # idempotency
    assert np.linalg.norm(proj(y) - y) <= 1e-9 * max(1.0, np.linalg.norm(y))
    # range coherence
    assert np.abs(H @ y).max() <= 1e-8 * np.linalg.norm(x)
    # fixes the whole coherent subspace, columnwise
    KM = proj(K.toarray())
    assert np.allclose(KM, K.toarray(), atol=1e-9 * max(1, np.abs(K).max()))


def test_whitened_projection_is_symmetric_idempotent():
    rng = np.random.default_rng(9)
    ct = random_structure(rng, max_series=6, max_upper=2, m_choices=(4,))
    assert ct.dim <= 200
    sigma = random_spd(rng, ct.dim)
    M = structural_projector(ct.full_summing("ct"), sigma).dense()
    # Σ⁻¹ = QᵀQ with Q upper triangular; the whitened operator is orthogonal
    Q = sla.cholesky(np.linalg.inv(sigma), lower=False)
    T = Q @ M @ np.linalg.inv(Q)
    assert np.allclose(T, T.T, atol=1e-8)
    assert np.allclose(T @ T, T, atol=1e-8)


def test_dense_matches_oracle():
    rng = np.random.default_rng(11)
    ct = random_structure(rng, max_series=6, max_upper=2, m_choices=(4,))
    sigma = random_spd(rng, ct.dim)
    K = ct.full_summing("ct").toarray()
    assert np.allclose(
        structural_projector(K, sigma).dense(), oracle_structural(K, sigma), atol=1e-9
    )
    H = ct.full_constraint("ct").toarray()
    assert np.allclose(
        zero_projector(H, sigma).dense(), oracle_zero(H, sigma), atol=1e-9
    )
    # the diagonal fast path materializes identically
    diag = rng.uniform(0.5, 2.0, size=ct.dim)
    assert np.allclose(
        zero_projector(H, diag).dense(), oracle_zero(H, np.diag(diag)), atol=1e-9
    )


def test_structural_rejects_non_spd_sigma():
    bad = np.array([[1.0, 2.0], [2.0, 1.0]])  # indefinite
    K = np.array([[1.0], [1.0]])
    with pytest.raises(NotPositiveDefiniteError):
        structural_projector(K, bad)
    with pytest.raises(NotPositiveDefiniteError):
        structural_projector(S3, np.array([1.0, -1.0, 1.0]))


def test_structural_singular_gram_reports_condition():
    K = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 0.0]])  # rank 1
    with pytest.raises(SingularSystemError) as err:
        structural_projector(K, np.ones(3))
    assert err.value.condition is None or err.value.condition > 1e12


def test_zero_rank_deficient_constraints_report_deficiency():
    H = np.array([[1.0, -1.0, -1.0], [2.0, -2.0, -2.0]])  # duplicated row
    with pytest.raises(SingularSystemError) as err:
        zero_projector(H, np.ones(3))
    assert err.value.deficiency == 1


# -- batched kernel ---------------------------------------------------------


@pytest.mark.parametrize(
    "structure,form",
    [
        (build_cs(random_agg(np.random.default_rng(0), 2, 7)), "constraint"),
        (build_cs(random_agg(np.random.default_rng(1), 6, 3)), "structural"),
        (build_cs(random_agg(np.random.default_rng(2), 3, 3)), "structural"),
        (build_te([4, 2, 1]), "constraint"),
        (build_te([12, 6, 4, 3, 2, 1]), "structural"),
    ],
)
def test_batched_projector_matches_dense_oracle_in_both_forms(
    structure, form, monkeypatch
):
    # fewer constraints than free series picks the constraint Gram, else the
    # structural one; either way every column matches its own dense
    # projection, and the steps apply the factored inverse stack itself
    gram_sizes = []

    def recording_solver(A, context):
        gram_sizes.append(A.shape)
        solver = sym_solver(A, context)
        return SimpleNamespace(inverse=solver.inverse) if A.ndim == 3 else solver

    monkeypatch.setattr(projection, "sym_solver", recording_solver)
    rng = np.random.default_rng(3)
    S = structure.summing_dense
    r, c = S.shape
    W = rng.uniform(0.2, 5.0, size=(r, 9))
    X = rng.normal(size=(r, 9)) * 10
    out = batched_projector(structure, W)(X)
    g = r - c if form == "constraint" else c
    assert gram_sizes == [(9, g, g)]
    for j in range(9):
        expected = structural_projector(S, W[:, j]).dense() @ X[:, j]
        assert np.linalg.norm(out[:, j] - expected) <= 1e-9 * np.linalg.norm(X[:, j])
    # several vectors per column share that column's weight: an (r, b, s) array
    stacked = batched_projector(structure, W)(np.stack([X, 2 * X, -X], axis=2))
    assert stacked.shape == (r, 9, 3)
    for t, scale in enumerate((1, 2, -1)):
        assert np.allclose(
            stacked[:, :, t], scale * out, rtol=0, atol=1e-9 * np.abs(X).max()
        )
    # a weight shared by every column factors a single Gram matrix, a stack of one
    gram_sizes.clear()
    shared = batched_projector(structure, np.repeat(W[:, :1], 9, axis=1))
    assert gram_sizes == [(1, g, g)]
    expected = structural_projector(S, W[:, 0]).dense() @ X
    assert np.linalg.norm(shared(X) - expected) <= 1e-9 * np.linalg.norm(X)
    expected = np.stack([expected, 2 * expected], axis=2)
    stacked = shared(np.stack([X, 2 * X], axis=2))
    assert np.linalg.norm(stacked - expected) <= 1e-9 * np.linalg.norm(expected)


@pytest.mark.parametrize(
    "g, r, b", [(7, 5, 2), (5, 9, 3), (6, 11, 1), (24, 60, 40), (3, 4, 5)]
)
def test_grams_match_the_scaled_copy_product_in_every_blocking(g, r, b):
    # one product per block of Gram rows (uneven last blocks included) gives
    # the same stack as the batched product of scaled copies of M
    rng = np.random.default_rng(g * r * b)
    M = rng.integers(-1, 2, size=(g, r)).astype(float)
    W = rng.uniform(0.2, 5.0, size=(r, b))
    expected = np.matmul(M * W.T[:, None, :], M.T)
    assert np.allclose(projection._grams(M, W), expected, rtol=1e-13, atol=1e-13)


@pytest.mark.parametrize("n_upper, n_bottom", [(200, 300), (300, 200)])
def test_batched_projector_memory_stays_linear_in_the_structure(n_upper, n_bottom):
    # a Gram of 200 x 200 in either form: building the step must not
    # allocate one g x g outer product per row (r·g² doubles, 160 MB here);
    # the (b, g, r) scaled copies of the summing or constraint matrix bound it
    import tracemalloc

    cs = build_cs(random_agg(np.random.default_rng(5), n_upper, n_bottom))
    r, g, b = cs.n_series, 200, 4
    cs.summing_dense, cs.constraint_dense  # cached before tracing
    rng = np.random.default_rng(6)
    W = rng.uniform(0.2, 5.0, size=(r, b))
    X = rng.normal(size=(r, b))
    tracemalloc.start()
    try:
        out = batched_projector(cs, W)(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * b * g * r * 8
    expected = zero_projector(cs.constraint_dense, W[:, 1])(X[:, 1])
    assert np.linalg.norm(out[:, 1] - expected) <= 1e-9 * np.linalg.norm(X[:, 1])


def test_batched_projector_without_constraints_is_identity():
    X = np.arange(6.0).reshape(1, 6)
    assert np.array_equal(batched_projector(build_te([1]), np.ones((1, 6)))(X), X)


def test_sym_solver_stack_solves_each_member():
    rng = np.random.default_rng(4)
    A = np.stack([random_spd(rng, 5) for _ in range(7)])
    b = rng.normal(size=(7, 5, 2))
    assert np.allclose(sym_solver(A, "stack")(b), np.linalg.solve(A, b), atol=1e-12)


def test_sym_solver_stack_pairs_members_strictly():
    A = np.stack([np.eye(2)] * 3)
    for count in (2, 4):
        with pytest.raises(ValidationError, match="right-hand sides"):
            sym_solver(A, "stack")(np.ones((count, 2, 1)))


def test_sym_solver_stack_names_failing_member():
    good = np.eye(2)
    with pytest.raises(NotPositiveDefiniteError, match="column 1"):
        sym_solver(np.stack([good, np.array([[1.0, 2.0], [2.0, 1.0]]), good]), "stack")
    # exactly singular: the batched Cholesky fails, the member path names it
    with pytest.raises(SingularSystemError, match="column 2"):
        sym_solver(np.stack([good, good, np.ones((2, 2))]), "stack")
    # numerically singular: Cholesky succeeds, the condition vetting rejects it
    nearly = np.array([[1.0, 1.0], [1.0, 1.0 + 1e-15]])
    with pytest.raises(SingularSystemError, match="column 0"):
        sym_solver(np.stack([nearly, good]), "stack")


def test_sym_solver_names_a_singular_member_that_passes_cholesky():
    # round-off lets Cholesky through [[2, 2], [2, 2]] (last pivot ~2e-8);
    # its inverse does not exist, and the member is named
    singular = np.full((2, 2), 2.0)
    np.linalg.cholesky(singular)
    with pytest.raises(SingularSystemError, match="column 1"):
        sym_solver(np.stack([np.eye(2), singular, np.eye(2)]), "stack")
    with pytest.raises(SingularSystemError) as err:
        sym_solver(singular, "Gram")
    assert err.value.condition is None or err.value.condition > 1e12


def relative_gap(x, reference):
    """‖x − reference‖ / ‖reference‖ in the Frobenius norm."""
    return np.linalg.norm(x - reference) / np.linalg.norm(reference)


@pytest.mark.parametrize("r", [1, 2, 3, 5, 7, 24, 25, 33])  # odd sizes take the padding
def test_sym_solver_stack_matches_numpy_inverse_and_solve(r):
    rng = np.random.default_rng(r)
    A = np.stack([random_spd(rng, r, spread) for spread in (2.0, 1e2, 1e4)])
    b = rng.normal(size=(3, r, 2))
    x = sym_solver(A, "stack")(b)
    inverses = sym_solver(A, "stack")(np.broadcast_to(np.eye(r), A.shape))
    for j in range(3):
        assert relative_gap(x[j], np.linalg.solve(A[j], b[j])) <= 1e-12
        assert relative_gap(inverses[j], np.linalg.inv(A[j])) <= 1e-12


@pytest.mark.parametrize("r", [144, projection.INVERSE_CUTOFF])
def test_sym_solver_lone_matrix_matches_numpy_inverse_and_solve(r):
    rng = np.random.default_rng(r)
    A = random_spd(rng, r, 1e4)
    b = rng.normal(size=(r, 2))
    assert relative_gap(sym_solver(A, "Gram")(b), np.linalg.solve(A, b)) <= 1e-12
    inverse = sym_solver(A, "Gram")(np.eye(r))
    assert relative_gap(inverse, np.linalg.inv(A)) <= 1e-12


def test_sym_solver_factors_each_gram_once_without_lu(monkeypatch):
    rng = np.random.default_rng(5)
    stack = np.stack([random_spd(rng, 24, 1e3) for _ in range(4)])
    lone = random_spd(rng, 144, 1e3)
    b_stack, b_lone = rng.normal(size=(4, 24, 3)), rng.normal(size=(144, 3))
    expected = np.linalg.solve(stack, b_stack), np.linalg.solve(lone, b_lone)

    def refuse(*args, **kwargs):
        raise AssertionError("a Gram was factored a second time")

    monkeypatch.setattr(np.linalg, "inv", refuse)
    monkeypatch.setattr(np.linalg, "solve", refuse)
    assert relative_gap(sym_solver(stack, "stack")(b_stack), expected[0]) <= 1e-12
    assert relative_gap(sym_solver(lone, "Gram")(b_lone), expected[1]) <= 1e-12


def test_sym_solver_rejects_an_overflowing_inverse_without_a_warning():
    # Cholesky passes diag(1, 1e-320) (last pivot ~1e-160), but its inverse
    # overflows; the member is named, and no RuntimeWarning escapes
    tiny = np.diag([1.0, 1e-320])
    np.linalg.cholesky(tiny)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SingularSystemError, match="column 1"):
            sym_solver(np.stack([np.eye(2), tiny, np.eye(2)]), "stack")
        with pytest.raises(SingularSystemError, match="Gram"):
            sym_solver(tiny, "Gram")


@pytest.fixture
def cholesky_branches(monkeypatch):
    """The shapes of the matrices that take the Cholesky-factor branch."""
    branches = []
    real = projection._cholesky_solver

    def recording(A, context):
        branches.append(A.shape)
        return real(A, context)

    monkeypatch.setattr(projection, "_cholesky_solver", recording)
    return branches


def test_sym_solver_cholesky_branch_matches_the_inverse_just_above_the_cutoff(
    cholesky_branches, monkeypatch
):
    r = projection.INVERSE_CUTOFF + 1
    rng = np.random.default_rng(8)
    X = rng.normal(size=(r, 2 * r))
    A = X @ X.T / r + np.eye(r)
    b = rng.normal(size=(r, 3))
    by_factor = sym_solver(A, "large Gram")(b)
    assert cholesky_branches == [(r, r)]
    monkeypatch.setattr(projection, "INVERSE_CUTOFF", r)
    by_inverse = sym_solver(A, "large Gram")(b)
    assert cholesky_branches == [(r, r)]
    assert np.linalg.norm(by_factor - by_inverse) <= 1e-12 * np.linalg.norm(by_inverse)


@pytest.mark.parametrize(
    "kind, error",
    [("indefinite", NotPositiveDefiniteError), ("singular", SingularSystemError)],
)
def test_sym_solver_cholesky_branch_raises_on_failure(kind, error, cholesky_branches):
    r = projection.INVERSE_CUTOFF + 1
    rng = np.random.default_rng(9)
    X = rng.normal(size=(r, r - 1))
    A = X @ X.T / r  # rank r - 1
    if kind == "indefinite":
        A += np.eye(r)
        A[0, 0] = -1.0
    with pytest.raises(error, match="large Gram"):
        sym_solver(A, "large Gram")
    assert cholesky_branches == [(r, r)]


# -- averaged projectors ---------------------------------------------------


def test_averaged_cs_identical_weights_collapse():
    cs = toy_cs()
    w = np.array([2.0, 1.0, 1.0])
    M = structural_projector(cs.summing_dense, w).dense()
    avg = _mean_projection(cs, np.column_stack([w, w, w]))
    assert np.allclose(avg, M, atol=1e-12)
    assert np.allclose(avg @ avg, avg, atol=1e-10)


def test_averaged_cs_mixing_breaks_idempotency():
    # degenerate second projection (identity) mixed in: M̄ = (M + I)/2
    cs = toy_cs()
    M1 = structural_projector(cs.summing_dense, np.array([2.0, 1.0, 1.0])).dense()
    avg = (M1 + np.eye(3)) / 2
    assert not np.allclose(avg @ avg, avg, atol=1e-8)


def test_averaged_te_identical_weights_collapse():
    te = build_te([2, 1])
    om = np.array([2.0, 1.0, 1.0])
    M = structural_projector(te.summing_dense, om).dense()
    avg = _mean_projection(te, np.column_stack([om, om, om]))
    assert np.allclose(avg, M, atol=1e-12)


def test_averaged_pv324_shape_smoke():
    from helpers import pv324_agg

    agg, labels = pv324_agg()
    cs = build_cs(agg, labels)
    rng = np.random.default_rng(1)
    weights = rng.uniform(0.5, 2.0, size=(cs.n_series, 3))
    avg = _mean_projection(cs, weights)
    assert avg.shape == (324, 324)


def _recording_splu(monkeypatch):
    """Patch splu to record (Gram nnz, factor nnz) of every sparse factorization."""
    import scipy.sparse.linalg as spla  # projection imports it when it factors

    fills = []
    real_splu = spla.splu

    def splu(G, **kwargs):
        lu = real_splu(G, **kwargs)
        fills.append((G.nnz, lu.L.nnz + lu.U.nnz))
        return lu

    monkeypatch.setattr(spla, "splu", splu)
    return fills


def test_zero_projector_sparse_gram_matches_dense_oracle(monkeypatch):
    # 30 series x 60 positions: the 1 200-row combined constraint Gram is past
    # DENSE_SOLVE_CUTOFF, so it is factored sparsely; the symmetric ordering
    # keeps the factor within a few times the Gram's nnz (a column ordering
    # fills this one ~13x)
    fills = _recording_splu(monkeypatch)
    cs = build_cs(random_agg(np.random.default_rng(1), 5, 25))
    ct = build_ct(cs, build_te([24, 12, 8, 6, 4, 3, 2, 1]))
    H = ct.full_constraint("ct")
    assert H.shape[0] > DENSE_SOLVE_CUTOFF
    rng = np.random.default_rng(4)
    w = rng.uniform(0.2, 5.0, ct.dim)
    X = rng.normal(size=(ct.dim, 8)) * 10
    out = zero_projector(H, w)(X)
    [(gram_nnz, factor_nnz)] = fills
    assert factor_nnz <= 5 * gram_nnz
    expected = structural_projector(ct.full_summing("ct"), w).dense() @ X
    assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)


def test_pv324_constraint_gram_factor_fill_stays_small(monkeypatch):
    # 11 808-row Gram: the symmetric ordering fills it ~1.5x, a column
    # ordering ~20x
    fills = _recording_splu(monkeypatch)
    ct = pv324_structure()
    w = np.random.default_rng(5).uniform(0.2, 5.0, ct.dim)
    x = np.random.default_rng(6).normal(size=ct.dim)
    y = zero_projector(ct.full_constraint("ct"), w)(x)
    [(gram_nnz, factor_nnz)] = fills
    assert factor_nnz <= 2 * gram_nnz
    assert np.abs(ct.full_constraint("ct") @ y).max() <= 1e-9 * np.abs(x).max()


# -- cross-temporal block elimination ------------------------------------------


def _zero_reference(ct, W, X):
    """The combined zero-constrained projection of block X under weight table W."""
    out = zero_projector(ct.full_constraint("ct"), W.ravel())(X.ravel())
    return out.reshape(X.shape)


def _ct_cases():
    rng = np.random.default_rng(30)
    cases = [random_structure(rng, 16, 5, m_choices=(1, 2, 4, 12)) for _ in range(30)]
    cases += [toy_ct((1,)), toy_ct((2, 1))]
    # non-integer cross-sectional weights
    agg = random_agg(rng, 3, 6) * rng.uniform(0.3, 2.5, size=(3, 6))
    cases.append(build_ct(build_cs(agg), build_te([6, 3, 2, 1])))
    # many uppers: as many constraints as bottoms, a 240-row Schur system
    cases.append(build_ct(build_cs(random_agg(rng, 40, 40)), build_te([6, 3, 2, 1])))
    return cases


@pytest.mark.parametrize("ct", _ct_cases(), ids=lambda ct: f"{ct.n_series}x{ct.te.orders}")
def test_cross_temporal_projector_matches_zero_constrained_reference(ct, monkeypatch):
    # one stack of n temporal Grams (m x m) and one Schur system of
    # n_upper·m rows are the only factorizations; the temporal stack is used
    # through its inverses, never solved against (no identity solve)
    shapes = []

    def recording_solver(A, context):
        shapes.append(A.shape)
        solver = sym_solver(A, context)
        return SimpleNamespace(inverse=solver.inverse) if A.ndim == 3 else solver

    monkeypatch.setattr(projection, "sym_solver", recording_solver)
    rng = np.random.default_rng(ct.dim)
    n, q, m, u = ct.n_series, ct.n_positions, ct.te.m, ct.cs.n_upper
    W = rng.uniform(0.2, 5.0, size=(n, q))
    X = rng.normal(size=(n, q)) * 10
    out = cross_temporal_projector(ct.cs, ct.te, W)(X)
    assert shapes == [(n, m, m), (u * m, u * m)]
    expected = _zero_reference(ct, W, X)
    assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)
    # a temporal weight row shared by every series needs one temporal Gram
    shapes.clear()
    shared = np.repeat(W[:1], n, axis=0)
    out = cross_temporal_projector(ct.cs, ct.te, shared)(X)
    assert shapes == [(1, m, m), (u * m, u * m)]
    expected = _zero_reference(ct, shared, X)
    assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)


def test_cross_temporal_projector_with_floored_variances_matches_reference():
    # pv324 under wlsv with 20 bottom series whose residuals are all zero:
    # their 160 (series, order) variances sit at the floor, 1e-12 of the
    # largest, so those weights are ~1e12 times smaller than the rest
    from ctrec.covariance import ResidualSet, sigma_wlsv
    from ctrec.reconcile import ForecastBlock

    ct = pv324_structure()
    rng = np.random.default_rng(12)
    residuals = rng.normal(size=(4, ct.n_series, ct.n_positions))
    residuals[:, ct.cs.n_upper : ct.cs.n_upper + 20] = 0.0
    sigma = sigma_wlsv(ct, ResidualSet(residuals))
    assert len(sigma.floored) >= 100
    block = ForecastBlock(rng.normal(size=(ct.n_series, ct.n_positions)) * 10, ct)
    out = run_method("oct", block, sigma).block.values
    expected = _zero_reference(ct, sigma.cells(), block.values)
    assert np.linalg.norm(out - expected) <= 1e-9 * np.linalg.norm(expected)
    # the alternating heuristic still converges to the same point
    scale = max(1.0, np.linalg.norm(block.values))
    ite = run_method("ite-tcs", block, sigma, delta=1e-10, max_iter=5000)
    assert ite.converged and "variance-floor" in ite.flags
    assert np.linalg.norm(ite.block.values - out) <= 10 * 1e-10 * scale


def test_cross_temporal_projector_memory_scales_with_the_block_not_the_gram():
    # pv324: the combined constraint Gram has 11 808 rows and 339k nonzeros,
    # and sparse LU adds ~500k more outside the traced heap; block
    # elimination holds the (n, m, q) scaled copies of the temporal summing
    # matrix and the n Grams of m x m at most
    import tracemalloc

    ct = pv324_structure()
    n, q, m = ct.n_series, ct.n_positions, ct.te.m
    ct.te.summing_dense, ct.cs.constraint_dense  # cached before tracing
    rng = np.random.default_rng(7)
    W = rng.uniform(0.2, 5.0, size=(n, q))
    X = rng.normal(size=(n, q)) * 100
    tracemalloc.start()
    try:
        out = cross_temporal_projector(ct.cs, ct.te, W)(X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2 * n * m * q * 8
    assert max(ct.coherence_residuals(out)) <= 1e-9 * np.abs(out).max()
