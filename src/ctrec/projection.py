"""The reconciliation kernel: projections onto the coherent subspace under
diagonal weights, on the block layout.

``batched_projector`` projects many short vectors at once, each under its
own diagonal weight, and picks the smaller of the structural and
constraint forms itself. ``cross_temporal_projector`` solves the combined
projection by block elimination on top of the batched Gram stack. Small
Gram systems (every stack, and any matrix of up to ``INVERSE_CUTOFF`` rows)
are factored once by a batched Cholesky and applied through the inverse
built from that factor, with numpy alone; larger ones keep a Cholesky
factor and solve with it.

The constructors take their weight tables as given, positive and finite
in the shape each states: ``reconcile.prepare`` checks every table once.

The general sparse projections that the kernel is checked against live in
``ctrec.reference``; nothing here imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import NotPositiveDefiniteError, SingularSystemError, ValidationError
from .hierarchy import CrossSectionalStructure, TemporalStructure

# A matrix that fails its Cholesky factorization is reported as not
# positive definite when its smallest eigenvalue is below -PIVOT_FALLBACK_TOL
# times its scale, and as singular otherwise.
PIVOT_FALLBACK_TOL = 1e-10
# A 2-d system of more rows than this keeps a Cholesky factor (scipy's
# potrf/pocon/potrs) instead of an explicit inverse. The inverse built
# from numpy's Cholesky factor takes 2-3.5x as long as that factor and its
# estimate: measured on a 2-vCPU host, 0.58 vs 0.25 ms at 144 rows, 52 vs
# 21 ms at 1 000 rows, 94 vs 30 ms at 1 200 rows and 3.4 vs 1.0 s at 4 800
# rows. Up to here its extra cost stays below the ~0.2 s of importing
# scipy.linalg it avoids.
INVERSE_CUTOFF = 1000
# Treat a factored system as singular below this reciprocal condition number.
RCOND_FLOOR = 1e-14


def _raise_failed(A: np.ndarray, context: str, rcond: float | None = None):
    """Raise for a matrix that failed its factorization or its condition
    vetting: NotPositiveDefiniteError when its smallest eigenvalue is below
    −PIVOT_FALLBACK_TOL·scale, SingularSystemError otherwise, with the rank
    deficiency count and the condition (1/``rcond``, else from the
    eigenvalues)."""
    eigs = np.linalg.eigvalsh(A)
    scale = max(abs(eigs[0]), abs(eigs[-1]), 1.0)
    if eigs[0] < -PIVOT_FALLBACK_TOL * scale:
        raise NotPositiveDefiniteError(
            f"{context} is not positive definite (min eigenvalue {eigs[0]:.3e})"
        )
    if rcond is None:
        rcond = float(eigs[0] / scale)
    raise SingularSystemError(
        f"{context} is singular to working precision",
        deficiency=int(np.sum(eigs <= PIVOT_FALLBACK_TOL * scale)),
        condition=float(1.0 / rcond) if rcond > 0 else np.inf,
    )


def sym_solver(A: np.ndarray, context: str) -> Callable[[np.ndarray], np.ndarray]:
    """Factor a symmetric matrix, or a (b, r, r) stack of them, preferring Cholesky.

    A stack, or a matrix of up to INVERSE_CUTOFF rows, is factored once by
    one batched Cholesky, A = LLᵀ, and inverted from that factor (see
    ``_inverses``); the returned ``InverseSolver`` solves by one matrix
    product and hands the inverse itself to callers that apply it on their
    own layout. Every member is vetted by its exact 1-norm reciprocal
    condition 1/(‖A‖₁‖A⁻¹‖₁) against RCOND_FLOOR. A larger matrix keeps a
    Cholesky factor, vetted by LAPACK's condition estimate.
    A failed factorization or vetting raises (see ``_raise_failed``),
    naming the stack member as "column j".
    """
    if A.ndim == 2:
        if A.shape[0] > INVERSE_CUTOFF:
            return _cholesky_solver(A, context)
        return InverseSolver(_inverses(A[None], lambda j: context)[0])
    return InverseSolver(_inverses(A, lambda j: f"{context} (column {j})"))


@dataclass(frozen=True)
class InverseSolver:
    """The solve of a factored matrix, or of a (b, r, r) stack of them, as
    one product with ``inverse``; a stack's solve takes a (b, r, s)
    right-hand side, one member per matrix."""

    inverse: np.ndarray

    def __call__(self, b: np.ndarray) -> np.ndarray:
        if self.inverse.ndim == 3 and len(b) != len(self.inverse):
            raise ValidationError(
                f"{len(b)} right-hand sides for a stack of {len(self.inverse)} matrices"
            )
        return np.matmul(self.inverse, b)


def _inverses(A: np.ndarray, name: Callable[[int], str]) -> np.ndarray:
    """Invert a (b, r, r) stack of symmetric positive definite matrices,
    ``name(j)`` naming member j in errors.

    One batched Cholesky, A = LLᵀ, is both the positive-definiteness test
    and the only factorization: A⁻¹ = L⁻ᵀL⁻¹, with L⁻¹ from
    ``_invert_lower``. A pivot so small that the inverse overflows leaves
    an inf or NaN, which fails the condition vetting without a warning.
    """
    try:
        L = np.linalg.cholesky(A)
    except np.linalg.LinAlgError:
        if len(A) > 1:  # find the member at fault
            return np.concatenate(
                [_inverses(A[j : j + 1], lambda _, j=j: name(j)) for j in range(len(A))]
            )
        _raise_failed(A[0], name(0))
    with np.errstate(all="ignore"):
        _invert_lower(L)
        inverses = np.matmul(np.swapaxes(L, 1, 2), L)
        del L  # so that the vetting's |A⁻¹| temporary does not raise the peak
        rcond = 1.0 / (_norm1(A) * _norm1(inverses))
    bad = np.flatnonzero(~(rcond >= RCOND_FLOOR))  # NaN fails too
    if bad.size:
        j = bad[0]
        _raise_failed(A[j], name(j), float(rcond[j]))
    return inverses


def _invert_lower(L: np.ndarray) -> None:
    """Invert a (b, r, r) stack of lower-triangular matrices in place, by
    halving: [[A, 0], [C, D]]⁻¹ = [[A⁻¹, 0], [−D⁻¹CA⁻¹, D⁻¹]].

    Both diagonal halves of every member are inverted together, as one
    (2b, h, h) stack, so the number of numpy calls grows with log r. An odd
    size pads the lower half with a unit pivot, whose inverse is itself.
    """
    b, r, _ = L.shape
    if r <= 1:
        np.reciprocal(L, out=L)
        return
    h = (r + 1) // 2
    k = r - h
    halves = np.zeros((2 * b, h, h))
    halves[:b] = L[:, :h, :h]
    halves[b:, :k, :k] = L[:, h:, h:]
    if k < h:
        halves[b:, k, k] = 1.0
    _invert_lower(halves)
    A_inv, D_inv = halves[:b], halves[b:, :k, :k]
    C = L[:, h:, :h]
    DC = np.matmul(D_inv, C)
    np.negative(DC, out=DC)
    np.matmul(DC, A_inv, out=C)
    L[:, :h, :h] = A_inv
    L[:, h:, h:] = D_inv


def _norm1(A: np.ndarray) -> np.ndarray:
    """The 1-norm (largest absolute column sum) of every member of a stack;
    the column sums are one product with a ones vector, ~4x faster than a
    strided ``sum(axis=1)`` on a stack of small matrices."""
    return np.matmul(np.ones(A.shape[1]), np.abs(A)).max(axis=1)


def _cholesky_solver(A: np.ndarray, context: str) -> Callable[[np.ndarray], np.ndarray]:
    import scipy.linalg as sla  # large systems only: keeps it off the import path

    try:
        c = sla.cho_factor(A, check_finite=False)
    except sla.LinAlgError:
        _raise_failed(A, context)
    # Cholesky can succeed on a numerically singular matrix; vet the factor.
    pocon, potrs = sla.get_lapack_funcs(("pocon", "potrs"), (A,))
    rcond, _ = pocon(c[0], np.linalg.norm(A, 1), uplo=b"L" if c[1] else b"U")
    if rcond < RCOND_FLOOR:
        _raise_failed(A, context, float(rcond))
    return lambda b: potrs(c[0], b, lower=c[1])[0]


def batched_projector(
    structure: CrossSectionalStructure | TemporalStructure, weights: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Project every column of an (r, b) float array under its own diagonal
    weight, column j of the (r, b) positive finite table ``weights``.

    Column j maps to S (Sᵀ W⁻¹ S)⁻¹ Sᵀ W⁻¹ x = x − W Hᵀ (H W Hᵀ)⁻¹ H x with
    W = diag(weights[:, j]), S the structure's summing matrix and H its
    zero constraints. All b Gram matrices are factored once, as one stack,
    in the smaller form: constraint (k × k) when the k constraints are
    fewer than the c = r − k free series, structural (c × c) otherwise; a
    weight shared by every column (constant weights) needs only one. Only
    the structural form reads S, so the constraint form never builds it.
    The returned function also takes an (r, b, s) array: s vectors per
    column, all projected under that column's weight.

    Either form is three matrix products on the array's own layout, the
    middle one applying the inverse Grams: the constraint form takes the
    columns, x − W Hᵀ G⁻¹ (H x); the structural form takes the rows of the
    transpose, ((xᵀ / W) S) G⁻¹ Sᵀ, so that the transpose of a row-major
    block (the temporal step's) is projected without a copy.
    """
    H = structure.constraint_dense
    k, r = H.shape
    c = r - k
    W = weights
    if k == 0:  # no constraints: everything is already coherent
        return lambda X: np.array(X, dtype=float)
    if np.all(W == W[:, :1]):  # one weight shared by every column: one Gram
        W = W[:, :1]
    if k < c:
        inverse = _gram_stack_inverse(H, W, "constraint Gram matrix")

        def project(X):  # X is (r, b, s)
            lam = _per_member(inverse, (H @ X.reshape(r, -1)).reshape(k, *X.shape[1:]))
            Y = (H.T @ lam.reshape(k, -1)).reshape(X.shape)
            Y *= W[:, :, None]
            return np.subtract(X, Y, out=Y)

    else:
        S = structure.summing_dense
        inverse = _gram_stack_inverse(S.T, 1.0 / W, "structural Gram matrix")

        def project(X):
            R = (X / W[:, :, None]).reshape(r, -1).T @ S
            beta = _per_member(inverse, R.T.reshape(c, *X.shape[1:]))
            del R  # so that the output does not stack on it
            return (beta.reshape(c, -1).T @ S.T).T.reshape(X.shape)

    def apply(X):
        return project(X.reshape(X.shape[0], X.shape[1], -1)).reshape(X.shape)

    return apply


def _per_member(inverse: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Apply member j of a (b, g, g) inverse stack to Y[:, j, :] for every j
    of a (g, b, s) array; a stack of one serves every member in one product."""
    if len(inverse) == 1:
        return (inverse[0] @ Y.reshape(len(Y), -1)).reshape(Y.shape)
    return np.matmul(inverse, Y.transpose(1, 0, 2)).transpose(1, 0, 2)


def cross_temporal_projector(
    cs: CrossSectionalStructure, te: TemporalStructure, weights: np.ndarray
) -> Callable[[np.ndarray], np.ndarray]:
    """Project an (n, q) block onto the cross-temporally coherent subspace
    under the diagonal weight W = ``weights``, an (n, q) cell table of
    positive finite entries (not checked here).

    The same projection as ``reference.zero_projector`` on the combined
    constraints, solved by block elimination instead of one sparse
    factorization. A coherent block has rows x_i = S b_i (S the temporal
    summing matrix, b_i series i's m finest values) whose finest values
    meet the cross-sectional constraints, H B = 0 with h_i column i of H. Each
    series' temporal structural Gram G_i = Sᵀ W_i⁻¹ S (m × m) is factored
    once, as one stack, and inverted; the multipliers μ (n_upper × m) of
    the cross-sectional constraints solve one Schur system
    T = Σ_i (h_i h_iᵀ) ⊗ G_i⁻¹ of n_upper·m rows. Per block:

        r_i = Sᵀ W_i⁻¹ x_i,   b̃_i = G_i⁻¹ r_i   (the temporal step)
        T vec(μ) = vec(H B̃),  b_i = G_i⁻¹ (r_i − μᵀ h_i),   x̂_i = S b_i.
    """
    S = te.summing_dense
    H = cs.constraint_dense
    W = weights
    n, m, u = cs.n_series, te.m, cs.n_upper
    Wt = W.T[:, :1] if np.all(W == W[:1]) else W.T  # one row shared: one Gram
    G_inv = _gram_stack_inverse(S.T, 1.0 / Wt, "temporal structural Gram matrix")
    # T[(a, s), (c, t)] = Σ_i H[a, i] H[c, i] G_i⁻¹[s, t], as one matrix product
    # (one expression, so each temporary is freed as soon as it is used)
    T = (
        (H[:, None, :] * H[None, :, :]).reshape(u * u, n)
        @ np.broadcast_to(G_inv.reshape(-1, m * m), (n, m * m))
    ).reshape(u, u, m, m).transpose(0, 2, 1, 3).reshape(u * m, u * m)
    solve_schur = sym_solver(T, "cross-sectional Schur complement")

    def project(X):
        R = (X / W) @ S
        B = np.matmul(G_inv, R[:, :, None])[:, :, 0]
        mu = solve_schur((H @ B).ravel()).reshape(u, m)
        R -= H.T @ mu
        B = np.matmul(G_inv, R[:, :, None])[:, :, 0]
        return B @ S.T

    return project


def _gram_stack_inverse(M: np.ndarray, W: np.ndarray, context: str) -> np.ndarray:
    """The inverses of M diag(W[:, j]) Mᵀ for every column j of W, as one
    (b, g, g) stack factored by one ``sym_solver`` call; a one-column W gives
    a stack of one that serves every member."""
    return sym_solver(_grams(M, W), context).inverse


def _grams(M: np.ndarray, W: np.ndarray) -> np.ndarray:
    """M diag(W[:, j]) Mᵀ for every column j of W, as a (b, g, g) stack.

    G_j = Σ_p W[p, j] m_p m_pᵀ over the columns m_p of M: the weight table
    times the table of the columns' outer products, one matrix product per
    block of Gram rows: the fewest equal blocks of at most b rows, so that
    the block of outer products (its largest temporary, rows × g × r) stays
    within b·g·r.
    """
    g, r = M.shape
    b = W.shape[1]
    if b == 1:  # one weight: its scaled copy of M fits the budget in one product
        return ((M * W.T) @ M.T)[None]
    rows = -(-g // -(-g // b))  # ⌈g / ⌈g / b⌉⌉
    grams = np.empty((b, g * g))
    outer = np.empty((rows, g, r))
    for a in range(0, g, rows):
        block = outer[: min(rows, g - a)]
        np.einsum("ip,jp->ijp", M[a : a + len(block)], M, out=block)
        np.matmul(W.T, block.reshape(-1, r).T, out=grams[:, a * g : (a + len(block)) * g])
    return grams.reshape(b, g, g)


def __getattr__(name):
    # ``HOOKS`` in perfbench/child.py patches these reference constructors
    # here. Resolved on demand, so that the kernel never loads
    # ``ctrec.reference``; they go with those hooks (ROADMAP item 1).
    if name in ("structural_projector", "zero_projector"):
        from . import reference

        return getattr(reference, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
