"""Reconciliation strategies over a single forecast origin.

Every strategy takes an incoherent forecast block and returns a report
carrying the reconciled block, the iteration trace, the remaining
constraint violations, and wall time / peak-allocation measurements.

The cross-sectional step projects every temporal position onto the
hierarchy's summing subspace; the temporal step projects every series onto
the temporal-grid subspace. One-shot methods do one of these (or the
combined projection); the sequential, averaged and alternating heuristics
compose them, and bottom-up (``bu``) rebuilds the block from its finest
bottom values. All of them leave the inputs untouched.

``prepare`` is the one way to run a method by name, and its apply builds
every report: it builds the method's weight-dependent part (projectors,
factorizations, averaged matrices) once, eagerly, and returns the per-origin
apply over that immutable result, which concurrent origins may share.

Every strategy takes its weights as one (n, q) table mirroring a forecast
block (see ``_cells``), checked once by ``prepare`` and taken as given below
it. The cross-sectional step reads its columns, the temporal step its rows.
"""

from __future__ import annotations

import math
import time
import tracemalloc
from collections.abc import Iterable
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from .covariance import DiagonalSigma
from .errors import ValidationError
from .hierarchy import (
    CrossSectionalStructure,
    CrossTemporalStructure,
    TemporalStructure,
)
from .projection import batched_projector, cross_temporal_projector

ITERATIVE_DEFAULT_DELTA = 1e-6
ITERATIVE_DEFAULT_MAX_ITER = 100
# method: (cross-sectional constraints hold, temporal constraints hold)
METHODS = {
    "cs": (True, False),
    "te": (False, True),
    "oct": (True, True),
    "seq-cst": (False, True),
    "seq-tcs": (True, False),
    "ka-cst": (True, True),
    "ka-tcs": (True, True),
    "ite-cst": (True, True),
    "ite-tcs": (True, True),
    "bu": (True, True),
}


@dataclass(frozen=True)
class ForecastBlock:
    """One origin's forecasts for every series at every temporal position."""

    values: np.ndarray
    structure: CrossTemporalStructure
    origin_id: str = "0"

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        ct = self.structure
        if values.shape != (ct.n_series, ct.n_positions):
            raise ValidationError(
                f"block shape {values.shape} != ({ct.n_series}, {ct.n_positions})"
            )
        self._hold(values.copy())

    def _hold(self, values: np.ndarray) -> None:
        """Keep ``values``, an array no one else holds, checked finite and
        made read-only."""
        if not np.isfinite(values).all():
            raise ValidationError(f"origin {self.origin_id}: non-finite forecasts")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    def _with_result(self, values: np.ndarray) -> "ForecastBlock":
        """This origin with the float values an apply has just computed from
        it. A C-contiguous array that owns its memory is fresh from the apply
        and is kept as it is; anything else, such as the view a temporal step
        returns, is copied."""
        if values.base is not None or not values.flags.c_contiguous:
            values = np.array(values, order="C")
        out = object.__new__(ForecastBlock)
        object.__setattr__(out, "structure", self.structure)
        object.__setattr__(out, "origin_id", self.origin_id)
        out._hold(values)
        return out

    @property
    def vector(self) -> np.ndarray:
        return self.structure.vectorize(self.values)


@dataclass(frozen=True)
class ReconcileReport:
    """Outcome and diagnostics of one reconciliation run.

    ``trace`` holds the Frobenius norm of the change made by each complete
    cycle (a single entry for one-shot methods). ``coherence`` is the pair
    of largest absolute cross-sectional and temporal constraint violations.
    ``elapsed`` and ``peak_mem`` (best-effort traced bytes, 0 when not
    measured) cover this origin's apply; ``prepare_s`` and
    ``prepare_peak_mem`` the method's one-off build, shared by a batch's
    reports. ``iterates`` is only populated on request.
    """

    block: ForecastBlock
    method: str
    covariance: str
    iterations: int
    trace: tuple[float, ...]
    coherence: tuple[float, float]
    elapsed: float
    peak_mem: int
    converged: bool = True
    flags: tuple[str, ...] = ()
    iterates: tuple[np.ndarray, ...] | None = None
    delta: float | None = None  # stopping tolerance, alternating runs only
    prepare_s: float = 0.0
    prepare_peak_mem: int = 0


class _Meter:
    """Wall time, plus the traced peak above the traced size at entry when
    tracemalloc is tracing at entry (else 0). It resets the session's peak
    but never starts or stops one: that is the caller's.

    numpy keeps up to seven freed shape buffers per array rank and hands
    them out again without a traced allocation. A stored block keeps the
    buffer its apply took, so without a refill the 2-d ones would run out
    after a few origins and the traced peak would depend on how many
    reports the caller still holds. A traced meter therefore frees eight
    2-d arrays before it opens its window, which refills them."""

    elapsed = 0.0
    peak = 0

    def __enter__(self):
        self._tracing = tracemalloc.is_tracing()
        if self._tracing:
            arrays = [np.empty((1, 1)) for _ in range(8)]
            del arrays  # before the window opens: see the class docstring
            tracemalloc.reset_peak()
            self._base = tracemalloc.get_traced_memory()[0]
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        if self._tracing:
            self.peak = tracemalloc.get_traced_memory()[1] - self._base


def frobenius_gap(a, b) -> float:
    """Frobenius norm of the difference of two blocks (or arrays)."""
    av = a.values if isinstance(a, ForecastBlock) else np.asarray(a)
    bv = b.values if isinstance(b, ForecastBlock) else np.asarray(b)
    return _frobenius(av - bv)


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm by numpy's pairwise sum: ``np.linalg.norm``'s ddot runs on
    OpenBLAS threads above 10 000 entries, up to 8 ms a call on a busy 2-vCPU host.
    ``x`` is squared in place, so callers pass an array of their own, such as
    a fresh difference."""
    return math.sqrt(np.square(x, out=x).sum())


def _cells(ct: CrossTemporalStructure, sigma) -> np.ndarray:
    """A method's weights as one (n, q) table mirroring a forecast block,
    checked here and nowhere else: a named diagonal covariance built for a
    structure of this shape (positive and finite by construction), or an
    (n, q) array of positive finite cells. An array is copied, so that the
    build does not change when its caller's array does."""
    shape = (ct.n_series, ct.n_positions)
    if isinstance(sigma, DiagonalSigma):
        cells = sigma.cells()
        if cells.shape != shape:
            raise ValidationError("covariance built for a different structure")
        return cells
    w = np.array(sigma, dtype=float)
    if w.shape != shape:
        raise ValidationError(f"weights of shape {w.shape} are not an {shape} cell table")
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValidationError("weights must be positive and finite")
    return w


def _te_step(ct: CrossTemporalStructure, w) -> Callable[[np.ndarray], np.ndarray]:
    """The temporal step: project every row (series) of a block under that
    row of ``w``."""
    project = batched_projector(ct.te, w.T)
    return lambda X: project(X.T).T


def _mean_projection(
    structure: CrossSectionalStructure | TemporalStructure, weights: np.ndarray
) -> np.ndarray:
    """Mean of the projection matrices under each column of ``weights``."""
    r, b = weights.shape
    eye = np.broadcast_to(np.eye(r)[:, None, :], (r, b, r))
    return batched_projector(structure, weights)(eye).mean(axis=1)


def _ka_map(ct: CrossTemporalStructure, w, order: str) -> Callable:
    """One uni-dimensional step followed by the other dimension's averaged
    projection matrix: over the series for ``cst``, over the orders for
    ``tcs``, each order weighed by its first column."""
    if order == "cst":
        step, m_bar = batched_projector(ct.cs, w), _mean_projection(ct.te, w.T)
        return lambda X: step(X) @ m_bar.T
    starts = [ct.te.order_slice(k).start for k in ct.te.orders]
    w_by_order = w[:, starts]
    ratio = w / np.repeat(w_by_order, np.diff(starts + [ct.n_positions]), axis=1)
    # a projection does not see its weight's scale, so each column need only
    # be a multiple of its order's first, up to the ratio's few ulps of rounding
    if np.any(np.abs(ratio - ratio[0]) > 8 * np.finfo(float).eps * ratio[0]):
        raise ValidationError(
            "the averaging heuristic needs one cross-sectional weight per order, "
            "but the weights vary within an order"
        )
    step, m_bar = _te_step(ct, w), _mean_projection(ct.cs, w_by_order)
    return lambda X: m_bar @ step(X)


def _build(kind: str, order: str, ct: CrossTemporalStructure, w):
    """The weight-dependent part of a method over the checked table ``w``
    (the cross-sectional step projects column t under column t, the temporal
    step row i under row i): the block map a one-shot method applies, or the
    (first, second) steps that ``ite`` alternates. ``oct`` solves by block
    elimination (see ``cross_temporal_projector``), checked against
    ``reference.zero_projector`` on ``ct.full_constraint("ct")``."""
    if kind == "bu":
        return lambda X: ct.from_bottom_hf(ct.bottom_hf(X))
    if kind == "oct":
        return cross_temporal_projector(ct.cs, ct.te, w)
    if kind == "cs":
        return batched_projector(ct.cs, w)
    if kind == "te":
        return _te_step(ct, w)
    if kind == "ka":
        return _ka_map(ct, w, order)
    cs_step, te_step = batched_projector(ct.cs, w), _te_step(ct, w)
    first, second = (cs_step, te_step) if order == "cst" else (te_step, cs_step)
    if kind == "seq":
        return lambda X: second(first(X))
    return first, second


def _alternate(first, second, x0, delta, max_iter, keep_iterates):
    """Apply ``first`` then ``second`` per cycle until the next half-step
    would move the iterate by at most ``delta * max(1, ||x||_F)``; that
    half-step starts the next cycle.

    Returns the last iterate, the Frobenius change of every cycle, whether
    it converged, and the iterates when kept (else None).
    """
    previous = x0
    half = first(previous)
    trace, iterates = [], []
    converged = False
    for _ in range(max_iter):
        current = second(half)
        trace.append(_frobenius(current - previous))
        if keep_iterates:
            iterates.append(current.copy())
        half = first(current)
        converged = _frobenius(half - current) <= delta * max(
            1.0, _frobenius(current.copy())
        )
        previous = current
        if converged:
            break
    return previous, trace, converged, iterates if keep_iterates else None


def prepare(
    method: str,
    ct: CrossTemporalStructure,
    sigma,
    *,
    delta: float = ITERATIVE_DEFAULT_DELTA,
    max_iter: int = ITERATIVE_DEFAULT_MAX_ITER,
    keep_iterates: bool = False,
) -> Callable[[ForecastBlock], ReconcileReport]:
    """Build a reconciling method for its weights and return its per-origin
    apply.

    ``method`` is one of ``METHODS``; "cst" runs the cross-sectional step
    first, "tcs" the temporal one:

    - ``cs`` / ``te``: one uni-dimensional step; the other dimension's
      coherence is not enforced.
    - ``oct``: the one-shot combined projection, fully coherent.
    - ``seq-*``: both steps once; coherent only in the dimension applied last.
    - ``ka-*``: one step, then the average of the other dimension's
      projections (per series for ``ka-cst``, per order for ``ka-tcs``); a
      result that is not fully coherent is flagged ``ka-incoherent``.
    - ``ite-*``: both steps alternated until the fixed-point test: the next
      half-step would move the iterate by at most ``delta * max(1, ||x||_F)``;
      after ``max_iter`` cycles the result is flagged ``non-converged``. The
      dimension applied last is exact, the other's residual is reported.
    - ``bu``: bottom-up, every series and order summed from the block's
      finest bottom values; fully coherent, and it reads no weight (its
      covariance reads ``none``).

    ``sigma`` is the one weight table every step reads: a named covariance
    or an (n, q) array of positive finite cells. The cross-sectional step
    reads its columns, the temporal step its rows, ``oct`` its cells, and
    ``bu`` none. A projection does not see its weight's scale, so a
    separable covariance is ``np.outer(w, om)``, and ``ka-tcs``, which
    weighs each order by its first column, needs the order's other columns
    to be multiples of it. Everything that depends only on the weights —
    the table's check, the projectors and their factorizations, ``ka``'s
    averaged matrix, whether a covariance had a cell floored (a report then
    carries ``variance-floor`` once) — is worked out here, once, so its
    faults raise before any origin runs; concurrent origins may share the
    immutable build. Reports name the covariance (``custom`` for an array)
    and carry the build's cost as ``prepare_s`` and ``prepare_peak_mem``,
    the apply's as ``elapsed`` and ``peak_mem``; peaks are traced only
    inside the caller's tracemalloc session (else 0).
    ``delta`` (positive and finite), ``max_iter`` and ``keep_iterates``
    concern the ``ite-*`` methods only.
    """
    if method not in METHODS:
        raise ValidationError(f"unknown method {method!r}; choose from {tuple(METHODS)}")
    kind, _, order = method.partition("-")
    if kind == "ite":
        if not 0 < delta < math.inf:  # NaN fails both comparisons
            raise ValidationError(f"delta must be positive and finite, got {delta}")
        if max_iter < 1:
            raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    covariance, floored, w = "none", False, None
    if kind != "bu":
        named = isinstance(sigma, DiagonalSigma)
        covariance = sigma.name if named else "custom"
        floored = named and bool(sigma.floored)
        w = _cells(ct, sigma)
    with _Meter() as build:
        built = _build(kind, order, ct, w)

    def run(block: ForecastBlock) -> ReconcileReport:
        if block.structure is not ct:
            raise ValidationError(f"origin {block.origin_id}: block of another structure")
        with _Meter() as meter:
            if kind == "ite":
                values, trace, converged, iterates = _alternate(
                    *built, block.values, delta, max_iter, keep_iterates
                )
            else:
                values = built(block.values)
                trace = [frobenius_gap(values, block.values)]
                converged, iterates = True, None
        # measured on the stored block so the figures do not depend on the
        # memory layout the last step returned (a te step returns a view)
        out = block._with_result(values)
        coherence = ct.coherence_residuals(out.values)
        flags = ["variance-floor"] if floored else []
        if kind == "ka" and max(coherence) > 1e-8 * max(1.0, float(np.abs(values).max())):
            flags.append("ka-incoherent")
        if not converged:
            flags.append("non-converged")
        return ReconcileReport(
            block=out,
            method=method,
            covariance=covariance,
            iterations=len(trace),
            trace=tuple(trace),
            coherence=coherence,
            elapsed=meter.elapsed,
            peak_mem=meter.peak,
            converged=converged,
            flags=tuple(flags),
            iterates=None if iterates is None else tuple(iterates),
            delta=delta if kind == "ite" else None,
            prepare_s=build.elapsed,
            prepare_peak_mem=build.peak,
        )

    return run


def sntz(report: ReconcileReport) -> ReconcileReport:
    """Clamp negative finest-grain bottom values to zero and rebuild upward.

    Expects an already fully coherent input; the output is fully coherent
    by construction and nonnegative at the finest bottom level. The clamp
    counts in ``elapsed`` and, in a tracemalloc session, in ``peak_mem``.
    """
    block = report.block
    ct = block.structure
    with _Meter() as meter:
        bottom = ct.bottom_hf(block.values)
        values = ct.from_bottom_hf(np.maximum(bottom, 0.0))
    out = block._with_result(values)
    return replace(
        report,
        block=out,
        method=report.method + "+sntz",
        coherence=ct.coherence_residuals(values),
        elapsed=report.elapsed + meter.elapsed,
        peak_mem=max(report.peak_mem, meter.peak),
        flags=report.flags + ("sntz",),
    )


def baseline_pers_bu(
    history: np.ndarray,
    structure: CrossTemporalStructure,
    origin_id: str = "0",
) -> ForecastBlock:
    """Seasonal persistence: repeat the previous cycle's finest bottom
    observations and aggregate bottom-up, a coherent block that the
    ``pers-bu`` baseline passes to the prepared ``bu``.

    ``history`` holds at least one full cycle (m columns) of finest-grain
    observations for the bottom series; the trailing cycle is used.
    """
    history = np.asarray(history, dtype=float)
    n_b, m = structure.cs.n_bottom, structure.te.m
    if history.ndim != 2 or history.shape[0] != n_b or history.shape[1] < m:
        raise ValidationError(
            f"history shape {history.shape} does not cover one cycle of "
            f"{m} values for {n_b} bottom series"
        )
    return ForecastBlock(
        structure.from_bottom_hf(history[:, -m:]), structure, origin_id
    )


def run_batch(
    blocks: Iterable[ForecastBlock],
    strategy: Callable[[ForecastBlock], ReconcileReport],
    max_workers: int = 1,
) -> list[ReconcileReport]:
    """Apply one strategy per origin, deterministically ordered by origin id.

    Results do not depend on the worker count: strategies are pure and the
    output order is fixed by sorting. While tracemalloc is tracing, origins
    run one at a time whatever ``max_workers`` is: the traced peak is
    process-wide, so concurrent origins would reset each other's.
    """
    blocks = sorted(blocks, key=lambda b: b.origin_id)
    if max_workers <= 1 or tracemalloc.is_tracing():
        return [strategy(b) for b in blocks]
    from concurrent.futures import ThreadPoolExecutor  # loaded only for a pool

    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        return list(pool.map(strategy, blocks))


def __getattr__(name):
    # ``HOOKS`` in perfbench/child.py patches these names here, though no
    # strategy calls them. Resolved on demand, so that a reconcile run never
    # loads ``ctrec.reference``; they go with those hooks (ROADMAP item 1).
    if name in ("sym_solver", "structural_projector", "zero_projector"):
        from . import projection

        return getattr(projection, name)
    if name == "reconcile_oct":  # perfbench/selftest.py's gate check imports it
        return lambda block, sigma: prepare("oct", block.structure, sigma)(block)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
