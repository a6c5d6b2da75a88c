"""Error covariance constructions used by the reconciliation strategies.

Every named rule (identity, structural scaling in three flavors, and
per-series/per-order variance scaling) produces a diagonal matrix. The
diagonal is stored once, in the canonical series-major layout; its (n, q)
cell table is the weight table every strategy reads — by column in the
cross-sectional step, by row in the temporal step. Both dimensions reading
one table is exactly the premise under which the alternating heuristic
converges to the one-shot solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .hierarchy import CrossTemporalStructure

COVARIANCE_NAMES = ("ols", "str", "str_cs", "str_te", "wlsv")

# Variance floor for degenerate residual cells, relative to the largest cell.
DEFAULT_VARIANCE_FLOOR = 1e-12


@dataclass(frozen=True)
class ResidualSet:
    """In-sample one-step-ahead forecast errors from N forecast origins.

    ``blocks`` is (N, n, k_star + m): one error block per origin, laid out
    like a forecast block.
    """

    blocks: np.ndarray

    def __post_init__(self):
        blocks = np.asarray(self.blocks, dtype=float)
        if blocks.ndim != 3:
            raise ValidationError(f"residuals must be (N, n, q), got {blocks.shape}")
        if blocks.shape[0] < 2:
            raise ValidationError(
                f"variance estimation needs at least 2 origins, got {blocks.shape[0]}"
            )
        if not np.all(np.isfinite(blocks)):
            raise ValidationError("residuals contain non-finite entries")
        blocks = blocks.copy()
        blocks.setflags(write=False)
        object.__setattr__(self, "blocks", blocks)

    @property
    def n_origins(self) -> int:
        return self.blocks.shape[0]


@dataclass(frozen=True)
class DiagonalSigma:
    """A diagonal covariance in the canonical layout, with its cell-table view.

    ``floored`` records (series index, order) cells whose estimated variance
    was lifted to the floor; reconciliation reports surface the flag.
    """

    structure: CrossTemporalStructure
    diag: np.ndarray
    name: str
    floored: tuple[tuple[int, int], ...] = ()

    def __post_init__(self):
        diag = np.asarray(self.diag, dtype=float)
        if diag.shape != (self.structure.dim,):
            raise ValidationError(
                f"diagonal length {diag.shape} != ({self.structure.dim},)"
            )
        if not np.all(np.isfinite(diag)) or np.any(diag <= 0):
            raise ValidationError("covariance diagonal must be finite and positive")
        diag = diag.copy()
        diag.setflags(write=False)
        object.__setattr__(self, "diag", diag)

    def cells(self) -> np.ndarray:
        """The diagonal as an (n, q) array mirroring a forecast block."""
        ct = self.structure
        return self.diag.reshape(ct.n_series, ct.n_positions)


def sigma_ols(ct: CrossTemporalStructure) -> DiagonalSigma:
    """Identity covariance: plain least squares in every dimension."""
    return DiagonalSigma(ct, np.ones(ct.dim), name="ols")


def sigma_str(ct: CrossTemporalStructure, variant: str = "ct") -> DiagonalSigma:
    """Structural scaling: row sums of the summing matrices.

    variant "ct" scales by both factors (the row sums of the combined map),
    "cs" by the cross-sectional factor only, "te" by the temporal one only.
    """
    cs_part = ct.cs.row_sums
    te_part = ct.te.row_sums
    if variant == "ct":
        diag = np.kron(cs_part, te_part)
        name = "str"
    elif variant == "cs":
        diag = np.kron(cs_part, np.ones(ct.n_positions))
        name = "str_cs"
    elif variant == "te":
        diag = np.kron(np.ones(ct.n_series), te_part)
        name = "str_te"
    else:
        raise ValidationError(f"unknown structural variant {variant!r}")
    return DiagonalSigma(ct, diag, name=name)


def sigma_wlsv(ct: CrossTemporalStructure, residuals: ResidualSet) -> DiagonalSigma:
    """Series variance scaling: pooled per-(series, order) residual variances.

    For each series and each aggregation order, the variance pools the
    squared residuals over all origins and all positions of that order,
    dividing by the count (zero-mean convention). Degenerate cells are
    lifted to DEFAULT_VARIANCE_FLOOR times the largest cell and flagged.
    """
    blocks = residuals.blocks
    if blocks.shape[1:] != (ct.n_series, ct.n_positions):
        raise ValidationError(
            f"residual blocks {blocks.shape[1:]} do not match the structure "
            f"({ct.n_series}, {ct.n_positions})"
        )
    cells = np.empty((ct.n_series, ct.n_positions))
    floored = []
    by_order = {
        k: (blocks[:, :, ct.te.order_slice(k)] ** 2).mean(axis=(0, 2))
        for k in ct.te.orders
    }
    top = max(v.max() for v in by_order.values())
    eps = DEFAULT_VARIANCE_FLOOR * (top if top > 0 else 1.0)
    for k, variances in by_order.items():
        low = variances < eps
        if low.any():
            floored.extend((int(i), k) for i in np.flatnonzero(low))
            variances = np.where(low, eps, variances)
        cells[:, ct.te.order_slice(k)] = variances[:, None]
    return DiagonalSigma(
        ct,
        cells.ravel(),
        name="wlsv",
        floored=tuple(floored),
    )


def build_sigma(
    name: str,
    ct: CrossTemporalStructure,
    residuals: ResidualSet | None = None,
) -> DiagonalSigma:
    """Build a named covariance; wlsv requires residuals."""
    if name == "ols":
        return sigma_ols(ct)
    if name in ("str", "str_cs", "str_te"):
        variant = "ct" if name == "str" else name.split("_")[1]
        return sigma_str(ct, variant=variant)
    if name == "wlsv":
        if residuals is None:
            raise ValidationError("wlsv needs a residual set")
        return sigma_wlsv(ct, residuals)
    raise ValidationError(f"unknown covariance {name!r}; choose from {COVARIANCE_NAMES}")

