"""Reconciliation projections in structural and constraint form.

Both forms realize the same oblique projection onto the coherent subspace;
which is cheaper depends on whether the summing map or the constraint set
is smaller. ``structural_projector`` and ``zero_projector`` build one
operator over a whole vector; ``batched_projector`` projects many short
vectors at once, each under its own diagonal weight, and picks the smaller
form itself. ``cross_temporal_projector`` solves the combined projection by
block elimination on top of the batched Gram stack. Small Gram systems
(every stack, and any matrix of up to ``INVERSE_CUTOFF`` rows) are applied
through explicit inverses, with numpy alone; larger ones keep a Cholesky
factor. Dense materialization exists for test oracles and debugging only.

``structural_projector``, ``zero_projector`` and ``_gram_solver`` take
sparse operators; they are the reference path that ``verify`` and the
tests check the batched kernel against, and they import ``scipy.sparse``
when called, so that the reconcile path loads numpy only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NotPositiveDefiniteError, SingularSystemError, ValidationError
from .hierarchy import CrossSectionalStructure, TemporalStructure

# Above this size a Gram system is factored sparsely instead of densely.
DENSE_SOLVE_CUTOFF = 800
# Refuse dense materialization beyond this dimension.
DENSE_MATERIALIZE_CAP = 2048
# Cholesky fallback: accept a pivoted factorization when the most negative
# eigenvalue is within this relative tolerance of zero.
PIVOT_FALLBACK_TOL = 1e-10
# A 2-d system of more rows than this keeps a Cholesky factor (scipy's
# potrf/pocon/potrs) instead of an explicit inverse. The inverse takes
# 3-5x as long: measured on a 2-vCPU host, 0.47 vs 0.15 ms at 144 rows,
# 75 vs 15 ms at 1 200 rows and 2.8 vs 0.57 s at 4 800 rows. Up to here its
# extra cost stays below the ~0.15 s of importing scipy.linalg it avoids.
INVERSE_CUTOFF = 1000


def sigma_diagonal(sigma) -> np.ndarray | None:
    """Return the diagonal of a covariance, or None when it is genuinely dense.

    Accepts a 1-d array (the diagonal itself), a 2-d array, or any object
    carrying a ``diag`` attribute (the package's named diagonal covariances).
    """
    diag = getattr(sigma, "diag", sigma)
    diag = np.asarray(diag, dtype=float)
    if diag.ndim == 1:
        return diag
    if diag.ndim == 2:
        return None
    raise ValidationError(f"covariance must be 1-d or 2-d, got ndim={diag.ndim}")


# Treat a factored system as singular below this reciprocal condition number.
RCOND_FLOOR = 1e-14


def _raise_singular(A: np.ndarray, context: str, rcond: float):
    eigs = np.linalg.eigvalsh(A)
    scale = max(abs(eigs[0]), abs(eigs[-1]), 1.0)
    raise SingularSystemError(
        f"{context} is singular to working precision",
        deficiency=int(np.sum(eigs <= PIVOT_FALLBACK_TOL * scale)),
        condition=float(1.0 / rcond) if rcond > 0 else np.inf,
    )


def _check_semidefinite(A: np.ndarray, context: str) -> None:
    """Raise for a matrix whose Cholesky failed, unless it misses positive
    definiteness by less than PIVOT_FALLBACK_TOL and is not singular."""
    eigs = np.linalg.eigvalsh(A)
    scale = max(abs(eigs[0]), abs(eigs[-1]), 1.0)
    if eigs[0] < -PIVOT_FALLBACK_TOL * scale:
        raise NotPositiveDefiniteError(
            f"{context} is not positive definite (min eigenvalue {eigs[0]:.3e})"
        )
    if eigs[0] <= np.finfo(float).eps * scale:
        _raise_singular(A, context, float(eigs[0] / scale))


def sym_solver(A: np.ndarray, context: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor a symmetric matrix, or a (b, r, r) stack of them, preferring Cholesky.

    A stack, or a matrix of up to INVERSE_CUTOFF rows, is checked by one
    batched Cholesky and inverted by one batched call; the solve is one
    matrix product, and a stack's takes a (b, r, s) right-hand side, one
    member per matrix. Every member is vetted by its exact 1-norm
    reciprocal condition 1/(‖A‖₁‖A⁻¹‖₁) against RCOND_FLOOR. A larger
    matrix keeps a Cholesky factor, vetted by LAPACK's condition estimate.
    A matrix that misses positive definiteness by less than
    PIVOT_FALLBACK_TOL (near-singular variance-scaled systems) is solved by
    a pivoted LU; otherwise a failure raises, with a condition estimate and
    rank deficiency count, naming the stack member as "column j".
    """
    if A.ndim == 2:
        if A.shape[0] > INVERSE_CUTOFF:
            return _cholesky_solver(A, context)
        inverse = _inverses(A[None], [context])[0]
        return lambda b: inverse @ b
    inverses = _inverses(A, [f"{context} (column {j})" for j in range(len(A))])

    def solve(b):
        if len(b) != len(inverses):
            raise ValidationError(
                f"{len(b)} right-hand sides for a stack of {len(inverses)} matrices"
            )
        return np.matmul(inverses, b)

    return solve


def _inverses(A: np.ndarray, names: list[str]) -> np.ndarray:
    """Invert a (b, r, r) stack of symmetric matrices, ``names[j]`` naming
    member j in errors."""
    try:
        np.linalg.cholesky(A)
        inverses = np.linalg.inv(A)
    except np.linalg.LinAlgError:
        if len(A) > 1:  # find the member at fault; the others go through alone
            return np.stack([_inverses(a[None], [name])[0] for a, name in zip(A, names)])
        # Cholesky failed, or succeeded on an exactly singular matrix
        (a,), (name,) = A, names
        _check_semidefinite(a, name)
        try:
            return np.linalg.solve(a, np.eye(len(a)))[None]  # pivoted LU
        except np.linalg.LinAlgError:
            _raise_singular(a, name, 0.0)
    rcond = 1.0 / (_norm1(A) * _norm1(inverses))
    bad = np.flatnonzero(~(rcond >= RCOND_FLOOR))  # NaN fails too
    if bad.size:
        _raise_singular(A[bad[0]], names[bad[0]], float(rcond[bad[0]]))
    return inverses


def _norm1(A: np.ndarray) -> np.ndarray:
    """The 1-norm (largest absolute column sum) of every member of a stack."""
    return np.abs(A).sum(axis=1).max(axis=1)


def _cholesky_solver(A: np.ndarray, context: str) -> Callable[[np.ndarray], np.ndarray]:
    import scipy.linalg as sla  # large systems only: keeps it off the import path

    try:
        c = sla.cho_factor(A, check_finite=False)
    except sla.LinAlgError:
        _check_semidefinite(A, context)
        lu = sla.lu_factor(A, check_finite=False)
        return lambda b: sla.lu_solve(lu, b, check_finite=False)
    # Cholesky can succeed on a numerically singular matrix; vet the factor.
    pocon, potrs = sla.get_lapack_funcs(("pocon", "potrs"), (A,))
    rcond, _ = pocon(c[0], np.linalg.norm(A, 1), uplo=b"L" if c[1] else b"U")
    if rcond < RCOND_FLOOR:
        _raise_singular(A, context, float(rcond))
    return lambda b: potrs(c[0], b, lower=c[1])[0]


def _gram_solver(G, context: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor a (possibly sparse) Gram matrix once and return its solve.

    A large sparse Gram is factored under a symmetric minimum-degree
    ordering of G + Gᵀ: the Gram is symmetric positive definite, and the
    default column ordering fills the pv324 constraint Gram ~13× more.
    """
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    r = G.shape[0]
    if sp.issparse(G):
        if r <= DENSE_SOLVE_CUTOFF:
            return sym_solver(G.toarray(), context)
        try:
            lu = spla.splu(
                G.tocsc(),
                permc_spec="MMD_AT_PLUS_A",
                options=dict(SymmetricMode=True),
            )
        except RuntimeError as exc:
            raise SingularSystemError(f"{context} could not be factored: {exc}")
        return lu.solve
    return sym_solver(np.asarray(G, dtype=float), context)


@dataclass
class Projector:
    """An oblique projection onto a coherent subspace, applied matrix-free.

    Idempotent up to round-off; fixes every already-coherent vector; its
    range satisfies the zero constraints.
    """

    dim: int
    _apply: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    def apply(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[0] != self.dim:
            raise ValidationError(f"vector length {x.shape[0]} != {self.dim}")
        return self._apply(x)

    __call__ = apply

    def dense(self) -> np.ndarray:
        """Materialize the projection matrix column by column (oracle/debug only)."""
        if self.dim > DENSE_MATERIALIZE_CAP:
            raise ValidationError(
                f"refusing to materialize a {self.dim}x{self.dim} operator"
            )
        return self._apply(np.eye(self.dim))


def structural_projector(K, sigma) -> Projector:
    """Projection built from a summing map: K (Kᵀ Σ⁻¹ K)⁻¹ Kᵀ Σ⁻¹.

    Args:
        K: summing matrix (sparse or dense), full column rank.
        sigma: covariance — 1-d diagonal, 2-d symmetric positive definite,
            or a named diagonal covariance object.

    The operator performs two linear solves per application (covariance and
    Gram); with a diagonal covariance the first solve is elementwise.
    """
    import scipy.sparse as sp

    diag = sigma_diagonal(sigma)
    if diag is not None:
        if K.shape[0] != diag.shape[0]:
            raise ValidationError(
                f"covariance dimension {diag.shape[0]} != operator rows {K.shape[0]}"
            )
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            raise NotPositiveDefiniteError("diagonal covariance must be positive")
        Ks = sp.csr_matrix(K)
        B = (Ks.T @ sp.diags(1.0 / diag)).tocsr()  # Kᵀ Σ⁻¹
        solve = _gram_solver((B @ Ks).tocsc(), "structural Gram matrix")

        def apply(x):
            return Ks @ solve(B @ x)

    else:
        S = np.asarray(getattr(sigma, "diag", sigma), dtype=float)
        Kd = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
        if Kd.shape[0] != S.shape[0]:
            raise ValidationError(
                f"covariance dimension {S.shape[0]} != operator rows {Kd.shape[0]}"
            )
        B = sym_solver(S, "covariance")(Kd)  # Σ⁻¹ K
        solve = sym_solver(Kd.T @ B, "structural Gram matrix")

        def apply(x):
            return Kd @ solve(B.T @ x)

    return Projector(dim=K.shape[0], _apply=apply)


def zero_projector(H, sigma) -> Projector:
    """Projection built from zero constraints: I − Σ Hᵀ (H Σ Hᵀ)⁻¹ H.

    H must have full row rank; a rank-deficient constraint Gram raises with
    the deficiency count when it can be computed cheaply.
    """
    import scipy.sparse as sp

    diag = sigma_diagonal(sigma)
    Hs = sp.csr_matrix(H)
    dim = Hs.shape[1]
    if Hs.shape[0] == 0:  # no constraints: everything is already coherent
        return Projector(dim=dim, _apply=lambda x: np.asarray(x, dtype=float).copy())
    if diag is not None:
        if diag.shape[0] != dim:
            raise ValidationError(
                f"covariance dimension {diag.shape[0]} != operator size {dim}"
            )
        if np.any(diag <= 0) or not np.all(np.isfinite(diag)):
            raise NotPositiveDefiniteError("diagonal covariance must be positive")
        HSig = (Hs @ sp.diags(diag)).tocsr()
        solve = _gram_solver((HSig @ Hs.T).tocsc(), "constraint Gram matrix")

        def apply(x):
            y = Hs.T @ solve(Hs @ x)
            return x - (y.T * diag).T  # row-scale works for vector and matrix

    else:
        S = np.asarray(getattr(sigma, "diag", sigma), dtype=float)
        if S.shape[0] != dim:
            raise ValidationError(
                f"covariance dimension {S.shape[0]} != operator size {dim}"
            )
        HSig = Hs @ S
        solve = sym_solver(HSig @ Hs.T.toarray(), "constraint Gram matrix")

        def apply(x):
            return x - S @ (Hs.T @ solve(Hs @ x))

    return Projector(dim=dim, _apply=apply)


def batched_projector(
    structure: CrossSectionalStructure | TemporalStructure, weights: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Project every column of an (r, b) array under its own diagonal weight.

    Column j maps to S (Sᵀ W⁻¹ S)⁻¹ Sᵀ W⁻¹ x = x − W Hᵀ (H W Hᵀ)⁻¹ H x with
    W = diag(weights[:, j]), S the structure's summing matrix and H its
    zero constraints. All b Gram matrices are factored once, as one stack,
    in the smaller form: constraint (k × k) when the k constraints are
    fewer than the c free series, structural (c × c) otherwise; a weight
    shared by every column (constant weights) needs only one. The returned
    function also takes an (r, b, s) array: s vectors per column, all
    projected under that column's weight.
    """
    S = structure.summing_dense
    H = structure.constraint_dense
    W = np.asarray(weights, dtype=float)
    if W.ndim != 2 or W.shape[0] != S.shape[0]:
        raise ValidationError(f"weights of shape {W.shape} need {S.shape[0]} rows")
    if not np.all(np.isfinite(W)) or np.any(W <= 0):
        raise ValidationError("weights must be positive and finite")
    if H.shape[0] == 0:  # no constraints: everything is already coherent
        return lambda X: np.array(X, dtype=float)
    if np.all(W == W[:, :1]):  # one weight shared by every column: one Gram
        W = W[:, :1]
    if H.shape[0] < S.shape[1]:
        solve = _gram_stack_solver(H, W, "constraint Gram matrix")

        def project(X):  # X is (r, b, s)
            lam = solve(np.moveaxis(np.tensordot(H, X, 1), 1, 0))
            return X - W[:, :, None] * np.tensordot(H.T, np.moveaxis(lam, 0, 1), 1)

    else:
        solve = _gram_stack_solver(S.T, 1.0 / W, "structural Gram matrix")

        def project(X):
            beta = solve(np.moveaxis(np.tensordot(S.T, X / W[:, :, None], 1), 1, 0))
            return np.tensordot(S, np.moveaxis(beta, 0, 1), 1)

    def apply(X):
        X = np.asarray(X, dtype=float)
        return project(X.reshape(X.shape[0], X.shape[1], -1)).reshape(X.shape)

    return apply


def cross_temporal_projector(
    cs: CrossSectionalStructure, te: TemporalStructure, weights: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Project an (n, q) block onto the cross-temporally coherent subspace
    under the diagonal weight W = ``weights`` (an (n, q) cell table).

    The same projection as ``zero_projector`` on the combined constraints,
    solved by block elimination instead of one sparse factorization. A
    coherent block has rows x_i = S b_i (S the temporal summing matrix,
    b_i series i's m finest values) whose finest values meet the
    cross-sectional constraints, H B = 0 with h_i column i of H. Each
    series' temporal structural Gram G_i = Sᵀ W_i⁻¹ S (m × m) is factored
    once, as one stack, and inverted; the multipliers μ (n_upper × m) of
    the cross-sectional constraints solve one Schur system
    T = Σ_i (h_i h_iᵀ) ⊗ G_i⁻¹ of n_upper·m rows. Per block:

        r_i = Sᵀ W_i⁻¹ x_i,   b̃_i = G_i⁻¹ r_i   (the temporal step)
        T vec(μ) = vec(H B̃),  b_i = G_i⁻¹ (r_i − μᵀ h_i),   x̂_i = S b_i.
    """
    S = te.summing_dense
    H = cs.constraint_dense
    W = np.asarray(weights, dtype=float)
    n, m, u = cs.n_series, te.m, cs.n_upper
    if W.shape != (n, te.n_positions):
        raise ValidationError(f"weights of shape {W.shape} need {(n, te.n_positions)}")
    if not np.all(np.isfinite(W)) or np.any(W <= 0):
        raise ValidationError("weights must be positive and finite")
    Wt = W.T[:, :1] if np.all(W == W[:1]) else W.T  # one row shared: one Gram
    solve = _gram_stack_solver(S.T, 1.0 / Wt, "temporal structural Gram matrix")
    G_inv = solve(np.broadcast_to(np.eye(m), (Wt.shape[1], m, m)))
    # T[(a, s), (c, t)] = Σ_i H[a, i] H[c, i] G_i⁻¹[s, t], as one matrix product
    # (one expression, so each temporary is freed as soon as it is used)
    T = (
        (H[:, None, :] * H[None, :, :]).reshape(u * u, n)
        @ np.broadcast_to(G_inv.reshape(-1, m * m), (n, m * m))
    ).reshape(u, u, m, m).transpose(0, 2, 1, 3).reshape(u * m, u * m)
    solve_schur = sym_solver(T, "cross-sectional Schur complement")

    def project(X):
        R = (np.asarray(X, dtype=float) / W) @ S
        B = np.matmul(G_inv, R[:, :, None])[:, :, 0]
        mu = solve_schur((H @ B).ravel()).reshape(u, m)
        B = np.matmul(G_inv, (R - H.T @ mu)[:, :, None])[:, :, 0]
        return B @ S.T

    return project


def _gram_stack_solver(M: np.ndarray, W: np.ndarray, context: str):
    """Factor M diag(W[:, j]) Mᵀ for every column j of W and solve a (b, g, s)
    right-hand side against it; a one-column W serves every member.

    The Grams come from one batched product whose largest temporary is the
    (b, g, r) stack of scaled copies of M.
    """
    grams = np.matmul(M * W.T[:, None, :], M.T)
    if W.shape[1] > 1:
        return sym_solver(grams, context)
    solve = sym_solver(grams[0], context)

    def shared(b):  # every member's right-hand sides side by side, one solve
        g = b.shape[1]
        return solve(np.moveaxis(b, 1, 0).reshape(g, -1)).reshape(
            g, len(b), -1
        ).transpose(1, 0, 2)

    return shared
