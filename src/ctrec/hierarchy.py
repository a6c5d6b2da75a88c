"""Aggregation structures for coherent multi-level, multi-granularity forecasts.

A cross-sectional structure ties upper series to weighted sums of bottom
series. A temporal structure ties low-frequency values to sums of
high-frequency ones within one seasonal cycle. Their combination fixes the
canonical layout used everywhere in this package:

* a forecast block is an ``n x (k_star + m)`` array ``X`` with one row per
  series (uppers first, then bottoms) and one column per temporal position,
  ordered by descending aggregation order (the single coarsest value first,
  the ``m`` finest values last);
* its canonical vector is ``x = X.ravel()`` (row-major), i.e. series-major
  with each series' temporal block in the column order above.

Summing and constraint matrices are built exactly, and each factor's
``constraint @ summing`` is [I, −A]·[A; I], every entry 1·a − a·1: exactly
zero in floating point for any finite weights, integer or not. Each
structure keeps them in one dense form (``summing_dense``,
``constraint_dense``); only the expanded matrices of the full vector are
sparse, for the reference projections, and import ``scipy.sparse``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .errors import StructureError

if TYPE_CHECKING:
    import scipy.sparse as sp

# build_ct fails fast before allocating vectors longer than this.
DEFAULT_SIZE_CAP = 1_000_000


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class CrossSectionalStructure:
    """Linear aggregation constraints among the series of a hierarchy.

    ``agg`` holds one row per upper series with the weights applied to the
    bottom series. ``labels`` lists every series, uppers first, bottoms last.
    Immutable after construction; safe to share across workers.
    """

    agg: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "agg", _readonly(self.agg))

    @property
    def n_upper(self) -> int:
        return self.agg.shape[0]

    @property
    def n_bottom(self) -> int:
        return self.agg.shape[1]

    @property
    def n_series(self) -> int:
        return self.n_upper + self.n_bottom

    @cached_property
    def summing_dense(self) -> np.ndarray:
        """Map bottom values to all series: aggregation rows stacked over the identity."""
        return _readonly(np.vstack([self.agg, np.eye(self.n_bottom)]))

    @cached_property
    def constraint_dense(self) -> np.ndarray:
        """Zero constraints: each upper value minus its weighted bottom sum."""
        return _readonly(np.hstack([np.eye(self.n_upper), -self.agg]))

    @property
    def row_sums(self) -> np.ndarray:
        """Row sums of the summing matrix (structural scaling weights)."""
        return np.concatenate([self.agg.sum(axis=1), np.ones(self.n_bottom)])


@dataclass(frozen=True)
class TemporalStructure:
    """The grid of temporal aggregation orders within one seasonal cycle.

    ``orders`` is strictly descending and ends with 1 (the observation
    frequency); every order divides the largest one, ``m``. The cycle spans
    ``n_positions = k_star + m`` positions: ``m/k`` aggregated values for
    each order ``k > 1`` followed by the ``m`` finest values. The layout is
    worked out once, here, and a grid that breaks these rules raises
    ``StructureError`` (``build_te`` normalises a grid before building one).
    """

    orders: tuple[int, ...]
    m: int = field(init=False, repr=False, compare=False)
    k_star: int = field(init=False, repr=False, compare=False)
    n_positions: int = field(init=False, repr=False, compare=False)
    hf_slice: slice = field(init=False, repr=False, compare=False)
    _slices: dict[int, slice] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        orders = self.orders
        if not orders or orders[-1] != 1:
            raise StructureError(f"temporal orders {orders} do not end in 1")
        if any(a <= b for a, b in zip(orders, orders[1:])):
            raise StructureError(f"temporal orders {orders} are not strictly descending")
        m = orders[0]
        bad = [k for k in orders if m % k != 0]
        if bad:
            raise StructureError(f"orders {bad} do not divide the largest order {m}")
        slices, start = {}, 0
        for k in orders:
            slices[k] = slice(start, start + m // k)
            start += m // k
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "k_star", start - m)
        object.__setattr__(self, "n_positions", start)
        object.__setattr__(self, "hf_slice", slices[1])
        object.__setattr__(self, "_slices", slices)

    @cached_property
    def position_orders(self) -> np.ndarray:
        """Aggregation order of each temporal position, in canonical column order."""
        out = np.repeat(self.orders, [self.m // k for k in self.orders])
        out.setflags(write=False)
        return out

    def order_slice(self, k: int) -> slice:
        """Column range occupied by order ``k`` in the canonical layout."""
        if k not in self._slices:
            raise StructureError(f"order {k} not in {self.orders}")
        return self._slices[k]

    @cached_property
    def summing_dense(self) -> np.ndarray:
        """Map one cycle of finest values to all positions, coarsest block first."""
        blocks = [np.kron(np.eye(self.m // k), np.ones((1, k))) for k in self.orders[:-1]]
        return _readonly(np.vstack(blocks + [np.eye(self.m)]))

    @cached_property
    def constraint_dense(self) -> np.ndarray:
        """Zero constraints: each aggregated value minus its finest-value sum."""
        k = self.k_star
        return _readonly(np.hstack([np.eye(k), -self.summing_dense[:k]]))

    @property
    def row_sums(self) -> np.ndarray:
        """Row sums of the temporal summing matrix: the order of each position."""
        return self.position_orders.astype(float)


@dataclass(frozen=True)
class CrossTemporalStructure:
    """A cross-sectional and a temporal structure plus the canonical layout.

    Exposes the expanded summing/constraint matrices of all three frameworks.
    Kronecker products are kept as factor pairs (the ``cs``/``te`` members)
    and only materialized into sparse form on request.
    """

    cs: CrossSectionalStructure
    te: TemporalStructure

    @property
    def n_series(self) -> int:
        return self.cs.n_series

    @property
    def n_positions(self) -> int:
        return self.te.n_positions

    @property
    def dim(self) -> int:
        return self.n_series * self.n_positions

    # -- canonical vectorization ------------------------------------------

    def vectorize(self, X: np.ndarray) -> np.ndarray:
        """Flatten a block to its canonical series-major vector."""
        X = np.asarray(X, dtype=float)
        if X.shape != (self.n_series, self.n_positions):
            raise StructureError(
                f"block shape {X.shape} != ({self.n_series}, {self.n_positions})"
            )
        return X.ravel()

    # -- expanded matrices --------------------------------------------------

    def full_summing(self, framework: str = "ct") -> sp.csr_matrix:
        """Summing matrix acting on canonical vectors for one framework.

        cs: bottom-series blocks to all series; te: per-series finest values
        to all positions; ct: finest bottom values to everything.
        """
        import scipy.sparse as sp

        S_cs, S_te = self.cs.summing_dense, self.te.summing_dense
        if framework == "cs":
            return sp.kron(S_cs, sp.identity(self.n_positions), format="csr")
        if framework == "te":
            return sp.kron(sp.identity(self.n_series), S_te, format="csr")
        if framework == "ct":
            return sp.kron(S_cs, S_te, format="csr")
        raise StructureError(f"unknown framework {framework!r}")

    def full_constraint(self, framework: str = "ct") -> sp.csr_matrix:
        """Zero-constraint matrix acting on canonical vectors for one framework.

        The ct form stacks the cross-sectional constraints applied to the
        highest-frequency slice over the per-series temporal constraints;
        together they imply coherence at every order.
        """
        import scipy.sparse as sp

        C_cs, C_te = self.cs.constraint_dense, self.te.constraint_dense
        if framework == "cs":
            return sp.kron(C_cs, sp.identity(self.n_positions), format="csr")
        if framework == "te":
            return sp.kron(sp.identity(self.n_series), C_te, format="csr")
        if framework == "ct":
            top = sp.kron(sp.identity(self.te.m), C_cs, format="csr")
            top = top @ self._hf_selector()
            return sp.vstack([top, self.full_constraint("te")], format="csr")
        raise StructureError(f"unknown framework {framework!r}")

    def _hf_selector(self) -> sp.csr_matrix:
        """Select highest-frequency entries of a canonical vector, position-major."""
        import scipy.sparse as sp

        n, q, m = self.n_series, self.n_positions, self.te.m
        rows = np.arange(n * m)
        t, i = rows // n, rows % n
        cols = i * q + self.te.k_star + t
        return sp.csr_matrix(
            (np.ones(n * m), (rows, cols)), shape=(n * m, n * q)
        )

    # -- coherence checks ----------------------------------------------------

    def cs_residual(self, X: np.ndarray) -> float:
        """Largest absolute cross-sectional constraint violation of a block."""
        violations = self.cs.constraint_dense @ X
        return float(np.abs(violations, out=violations).max())

    def te_residual(self, X: np.ndarray) -> float:
        """Largest absolute temporal constraint violation of a block: each
        aggregated value against the sum of its k finest values, summed in
        place rather than through ``te.constraint_dense``, whose product
        OpenBLAS would split over its threads (see ``reconcile._frobenius``).
        Each order's sums land in their rows of one (k_star, n) table, which
        then takes the violations and their magnitudes in place."""
        te = self.te
        if te.k_star == 0:  # single-order grid: nothing to violate
            return 0.0
        X = np.asarray(X)
        finest = X[:, te.hf_slice].T.copy()  # position-major: each sum adds whole rows
        table = np.empty_like(finest, shape=(te.k_star, finest.shape[1]))
        for k in te.orders[:-1]:
            sums = table[te.order_slice(k)]
            np.add.reduce(finest.reshape(te.m // k, k, -1), axis=1, out=sums)
        np.subtract(X[:, : te.k_star].T, table, out=table)
        return float(np.abs(table, out=table).max())

    def coherence_residuals(self, X: np.ndarray) -> tuple[float, float]:
        return self.cs_residual(X), self.te_residual(X)

    # -- bottom-up assembly ----------------------------------------------------

    def bottom_hf(self, X: np.ndarray) -> np.ndarray:
        """Extract the finest-grain bottom-series block (copy)."""
        return np.array(X[self.cs.n_upper :, self.te.hf_slice])

    def from_bottom_hf(self, bottom: np.ndarray) -> np.ndarray:
        """Rebuild a fully coherent block from finest-grain bottom values:
        the uppers' weighted sums stacked over the bottoms, then summed over
        each order's positions. It never builds ``cs.summing_dense``."""
        bottom = np.asarray(bottom, dtype=float)
        if bottom.shape != (self.cs.n_bottom, self.te.m):
            raise StructureError(
                f"bottom block shape {bottom.shape} != "
                f"({self.cs.n_bottom}, {self.te.m})"
            )
        return np.vstack([self.cs.agg @ bottom, bottom]) @ self.te.summing_dense.T


def build_cs(
    agg: np.ndarray, labels: Sequence[str] | None = None
) -> CrossSectionalStructure:
    """Validate an aggregation weight matrix and wrap it as a structure.

    Args:
        agg: (n_upper, n_bottom) weights mapping bottom series to uppers.
            Integer 0/1 rows for plain hierarchies; real weights accepted.
        labels: optional series identifiers, uppers first then bottoms.

    Raises:
        StructureError: empty matrix, non-finite entries, or an all-zero row.
    """
    agg = np.atleast_2d(np.asarray(agg, dtype=float))
    if agg.size == 0:
        raise StructureError("aggregation matrix is empty")
    if not np.all(np.isfinite(agg)):
        raise StructureError("aggregation matrix has non-finite entries")
    dead = np.flatnonzero(~np.any(agg != 0, axis=1))
    if dead.size:
        raise StructureError(f"aggregation rows {dead.tolist()} are all zero")
    n_u, n_b = agg.shape
    if labels is None:
        labels = [f"u{i + 1}" for i in range(n_u)] + [f"b{i + 1}" for i in range(n_b)]
    labels = tuple(str(s) for s in labels)
    if len(labels) != n_u + n_b:
        raise StructureError(f"{len(labels)} labels for {n_u + n_b} series")
    seen: set[str] = set()
    for label in labels:
        if label in seen:
            raise StructureError(f"duplicate series label {label!r}")
        seen.add(label)
    return CrossSectionalStructure(agg=agg, labels=labels)


def build_te(orders: Sequence[int]) -> TemporalStructure:
    """Validate a set of temporal aggregation orders.

    Orders are deduplicated and sorted descending; 1 is appended (with a
    warning) when missing. Every order must divide the largest one
    (``TemporalStructure`` checks that).
    """
    try:
        uniq = sorted({int(k) for k in orders}, reverse=True)
    except (TypeError, ValueError, OverflowError) as exc:
        raise StructureError(f"orders must be integers: {orders!r}") from exc
    if not uniq:
        raise StructureError("no aggregation orders given")
    if uniq[-1] < 1:
        raise StructureError(f"orders must be >= 1, got {uniq[-1]}")
    if uniq[-1] != 1:
        warnings.warn("order 1 missing from the temporal grid; added automatically")
        uniq.append(1)
    return TemporalStructure(orders=tuple(uniq))


def build_ct(cs: CrossSectionalStructure, te: TemporalStructure) -> CrossTemporalStructure:
    """Combine the two structures, failing fast when the full vector is
    longer than ``DEFAULT_SIZE_CAP``. Nothing else can fail: each factor's
    ``constraint @ summing`` is exactly zero (see the module docstring)."""
    dim = cs.n_series * te.n_positions
    if dim > DEFAULT_SIZE_CAP:
        raise StructureError(
            f"full vector length {dim} exceeds the size cap {DEFAULT_SIZE_CAP}"
        )
    return CrossTemporalStructure(cs=cs, te=te)
