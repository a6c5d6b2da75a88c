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
it. The cross-sectional step reads the table's columns, the temporal step its rows.
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


def _sigma_name(sigma) -> str:
    if isinstance(sigma, DiagonalSigma):
        return sigma.name
    return "custom"


def _cells(ct: CrossTemporalStructure, sigma) -> np.ndarray:
    """A strategy's weights as one (n, q) table mirroring a forecast block,
    checked here and nowhere else: a named diagonal covariance (positive and
    finite by construction), or an (n, q) array or a vector of its n·q
    cells in series-major order, of positive finite entries. An array is
    copied, so that the build does not change when its caller's array does."""
    shape = (ct.n_series, ct.n_positions)
    if isinstance(sigma, DiagonalSigma):
        if sigma.structure.dim != ct.dim:
            raise ValidationError("covariance built for a different structure")
        return sigma.cells()
    w = np.array(sigma, dtype=float)
    if w.shape not in (shape, (ct.dim,)):
        raise ValidationError(
            f"weights of shape {w.shape} are neither an {shape} cell table "
            f"nor a vector of its {ct.dim} cells"
        )
    if not np.all(np.isfinite(w)) or np.any(w <= 0):
        raise ValidationError("weights must be positive and finite")
    return w.reshape(shape)


def _te_step(ct: CrossTemporalStructure, om) -> Callable[[np.ndarray], np.ndarray]:
    """The temporal step: project every row (series) of a block under that
    row of ``om``."""
    project = batched_projector(ct.te, om.T)
    return lambda X: project(X.T).T


def _mean_projection(
    structure: CrossSectionalStructure | TemporalStructure, weights: np.ndarray
) -> np.ndarray:
    """Mean of the projection matrices under each column of ``weights``."""
    r, b = weights.shape
    eye = np.broadcast_to(np.eye(r)[:, None, :], (r, b, r))
    return batched_projector(structure, weights)(eye).mean(axis=1)


def _ka_map(ct: CrossTemporalStructure, w, om, order: str) -> Callable:
    """One uni-dimensional step followed by the other dimension's averaged
    projection matrix."""
    starts = [ct.te.order_slice(k).start for k in ct.te.orders]
    w_by_order = w[:, starts]
    widths = np.diff(starts + [ct.n_positions])
    if not np.array_equal(np.repeat(w_by_order, widths, axis=1), w):
        raise ValidationError(
            "the averaging heuristic needs one cross-sectional weight per order, "
            "but the weights vary within an order"
        )
    if order == "cst":
        step, m_bar = batched_projector(ct.cs, w), _mean_projection(ct.te, om.T)
        return lambda X: step(X) @ m_bar.T
    step, m_bar = _te_step(ct, om), _mean_projection(ct.cs, w_by_order)
    return lambda X: m_bar @ step(X)


def _build(kind: str, order: str, ct: CrossTemporalStructure, w, om):
    """The weight-dependent part of a method, over the checked tables ``w``
    (the cross-sectional step projects column t under column t) and ``om``
    (temporal): the block map a one-shot method applies, or the (first,
    second) steps that ``ite`` alternates. ``oct`` solves by block
    elimination (see ``cross_temporal_projector``), checked against
    ``reference.zero_projector`` on ``ct.full_constraint("ct")``."""
    if kind == "bu":
        return lambda X: ct.from_bottom_hf(ct.bottom_hf(X))
    if kind == "oct":
        return cross_temporal_projector(ct.cs, ct.te, w)
    if kind == "cs":
        return batched_projector(ct.cs, w)
    if kind == "te":
        return _te_step(ct, om)
    if kind == "ka":
        return _ka_map(ct, w, om, order)
    cs_step, te_step = batched_projector(ct.cs, w), _te_step(ct, om)
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
    sigma_te=None,
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
      projections (per series for ``ka-cst``, per order for ``ka-tcs``, whose
      cross-sectional table must be constant across each order's positions);
      a result that is not fully coherent is flagged ``ka-incoherent``.
    - ``ite-*``: both steps alternated until the fixed-point test: the next
      half-step would move the iterate by at most ``delta * max(1, ||x||_F)``;
      after ``max_iter`` cycles the result is flagged ``non-converged``. The
      dimension applied last is exact, the other's residual is reported.
    - ``bu``: bottom-up, every series and order summed from the block's
      finest bottom values; fully coherent, and it reads no weight (its
      covariance reads ``none``).

    ``sigma`` weighs the cross-sectional step (and ``oct``), ``sigma_te``
    the temporal one (default: ``sigma``); each weight the method reads is
    checked here, once, and one it does not read is ignored. Everything
    that depends only on the weights — the projectors and their
    factorizations, ``ka``'s averaged matrix, whether a covariance had a
    cell floored (a report then carries ``variance-floor`` once) — is
    worked out here, once, so its faults (a misshapen or non-positive
    table, ``ka``'s per-order check, a singular system) raise before any
    origin runs; concurrent origins may share the immutable build. Reports
    carry the build's cost as ``prepare_s`` and ``prepare_peak_mem``, the
    apply's as ``elapsed`` and ``peak_mem``; peaks are traced only inside
    the caller's tracemalloc session (else 0).
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
    sigma_te = sigma if sigma_te is None else sigma_te
    # the (cross-sectional, temporal) weights the method reads; None: unread
    reads = {
        "cs": (sigma, None), "oct": (sigma, None), "te": (None, sigma_te), "bu": (None, None)
    }
    reads = reads.get(kind, (sigma, sigma_te))
    weights = [s for s in reads if s is not None]
    if kind == "ka":
        covariance = "per-order/per-series"
    elif not weights:
        covariance = "none"
    elif len(weights) == 1:
        covariance = _sigma_name(weights[0])
    else:
        covariance = f"cs={_sigma_name(sigma)},te={_sigma_name(sigma_te)}"
    floored = any(isinstance(s, DiagonalSigma) and s.floored for s in weights)
    w, om = (None if s is None else _cells(ct, s) for s in reads)
    with _Meter() as build:
        built = _build(kind, order, ct, w, om)

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
