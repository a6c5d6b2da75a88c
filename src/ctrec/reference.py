"""The general sparse reference projections.

``structural_projector`` and ``zero_projector`` build the oblique
projection onto the coherent subspace over a whole canonical vector, from
any summing map or constraint set (sparse or dense) and any covariance: a
diagonal, a dense symmetric positive definite matrix, or a named diagonal
covariance. No reconcile path calls them. ``verify`` and the tests check
the batched kernel in ``projection`` against them, and against the
matrices that ``Projector.dense`` materializes. They import
``scipy.sparse`` when called.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import NotPositiveDefiniteError, SingularSystemError, ValidationError
from .projection import sym_solver

# Above this size a Gram system is factored sparsely instead of densely.
DENSE_SOLVE_CUTOFF = 800
# Refuse dense materialization beyond this dimension.
DENSE_MATERIALIZE_CAP = 2048


def _covariance(sigma, dim: int) -> tuple[np.ndarray, bool]:
    """A covariance of ``dim`` rows as an array, and whether it is diagonal:
    a 1-d diagonal (positive and finite), a 2-d matrix, or any object with a
    ``diag`` attribute (the package's named diagonal covariances)."""
    S = np.asarray(getattr(sigma, "diag", sigma), dtype=float)
    if S.ndim not in (1, 2):
        raise ValidationError(f"covariance must be 1-d or 2-d, got ndim={S.ndim}")
    if S.shape[0] != dim:
        raise ValidationError(f"covariance dimension {S.shape[0]} != operator size {dim}")
    diagonal = S.ndim == 1
    if diagonal and (np.any(S <= 0) or not np.all(np.isfinite(S))):
        raise NotPositiveDefiniteError("diagonal covariance must be positive")
    return S, diagonal


def _gram_solver(G, context: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor a sparse (CSC) Gram matrix once and return its solve.

    A large sparse Gram is factored under a symmetric minimum-degree
    ordering of G + Gᵀ: the Gram is symmetric positive definite, and the
    default column ordering fills the pv324 constraint Gram ~13× more.
    """
    import scipy.sparse.linalg as spla

    if G.shape[0] <= DENSE_SOLVE_CUTOFF:
        return sym_solver(G.toarray(), context)
    try:
        lu = spla.splu(G, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True))
    except RuntimeError as exc:
        raise SingularSystemError(f"{context} could not be factored: {exc}")
    return lu.solve


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

    S, diagonal = _covariance(sigma, K.shape[0])
    if diagonal:
        Ks = sp.csr_matrix(K)
        B = (Ks.T @ sp.diags(1.0 / S)).tocsr()  # Kᵀ Σ⁻¹
        solve = _gram_solver((B @ Ks).tocsc(), "structural Gram matrix")

        def apply(x):
            return Ks @ solve(B @ x)

    else:
        Kd = K.toarray() if sp.issparse(K) else np.asarray(K, dtype=float)
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

    Hs = sp.csr_matrix(H)
    dim = Hs.shape[1]
    S, diagonal = _covariance(sigma, dim)
    if Hs.shape[0] == 0:  # no constraints: everything is already coherent
        return Projector(dim=dim, _apply=lambda x: np.asarray(x, dtype=float).copy())
    if diagonal:
        HSig = (Hs @ sp.diags(S)).tocsr()
        solve = _gram_solver((HSig @ Hs.T).tocsc(), "constraint Gram matrix")

        def apply(x):
            y = Hs.T @ solve(Hs @ x)
            return x - (y.T * S).T  # row-scale works for vector and matrix

    else:
        solve = sym_solver(Hs @ S @ Hs.T.toarray(), "constraint Gram matrix")

        def apply(x):
            return x - S @ (Hs.T @ solve(Hs @ x))

    return Projector(dim=dim, _apply=apply)
