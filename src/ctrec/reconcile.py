"""Reconciliation strategies over a single forecast origin.

Every strategy takes an incoherent forecast block and returns a report
carrying the reconciled block, the iteration trace, the remaining
constraint violations, and wall time / peak-allocation measurements.

The cross-sectional step projects every temporal position onto the
hierarchy's summing subspace; the temporal step projects every series onto
the temporal-grid subspace. One-shot methods do one of these (or the
combined projection); the sequential, averaged and alternating heuristics
compose them. All of them leave the inputs untouched.

``prepare`` is the one way to run a method by name: it builds the method's
weight-dependent part (projectors, factorizations, averaged matrices) once,
eagerly, and returns the per-origin apply over that immutable result, which
concurrent origins may share.

Every strategy takes its weights as one (n, q) table mirroring a forecast
block: a named diagonal covariance, an (n, q) array of positive entries, or
its series-major flattening. The cross-sectional step reads the table's columns, the
temporal step its rows.
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
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"origin {self.origin_id}: non-finite forecasts")
        values = values.copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @property
    def vector(self) -> np.ndarray:
        return self.structure.vectorize(self.values)

    def with_values(self, values: np.ndarray) -> "ForecastBlock":
        return ForecastBlock(values, self.structure, self.origin_id)


@dataclass(frozen=True)
class ReconcileReport:
    """Outcome and diagnostics of one reconciliation run.

    ``trace`` holds the Frobenius norm of the change made by each complete
    cycle (a single entry for one-shot methods). ``coherence`` is the pair
    of largest absolute cross-sectional and temporal constraint violations.
    ``elapsed`` and ``peak_mem`` (best-effort traced bytes, 0 when not
    measured) cover this origin's apply; ``prepare_s`` and
    ``prepare_peak_mem`` the method's one-off build, shared by a batch's
    reports (0 for the baselines). ``iterates`` is only populated on request.
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
    """Wall time plus best-effort peak-allocation tracking: the traced peak
    above the traced size at entry. An outer tracemalloc session's peak is
    reset."""

    def __init__(self, memory: bool):
        self.memory = memory
        self.elapsed = 0.0
        self.peak = 0

    def __enter__(self):
        self._nested = tracemalloc.is_tracing()
        if self.memory:
            if self._nested:
                tracemalloc.reset_peak()
            else:
                tracemalloc.start()
            self._base = tracemalloc.get_traced_memory()[0]
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self._t0
        if self.memory:
            self.peak = tracemalloc.get_traced_memory()[1] - self._base
            if not self._nested:
                tracemalloc.stop()
        return False


def frobenius_gap(a, b) -> float:
    """Frobenius norm of the difference of two blocks (or arrays)."""
    av = a.values if isinstance(a, ForecastBlock) else np.asarray(a)
    bv = b.values if isinstance(b, ForecastBlock) else np.asarray(b)
    return _frobenius(av - bv)


def _frobenius(x: np.ndarray) -> float:
    """Frobenius norm by numpy's pairwise sum: ``np.linalg.norm``'s ddot runs on
    OpenBLAS threads above 10 000 entries, up to 8 ms a call on a busy 2-vCPU host."""
    return math.sqrt(np.square(x).sum())


def _sigma_name(sigma) -> str:
    if isinstance(sigma, DiagonalSigma):
        return sigma.name
    return "custom"


def _sigma_flags(*sigmas) -> tuple[str, ...]:
    return tuple(
        "variance-floor"
        for s in sigmas
        if isinstance(s, DiagonalSigma) and s.floored
    )


def _cells(ct: CrossTemporalStructure, sigma) -> np.ndarray:
    """A strategy's weights as one (n, q) table mirroring a forecast block.

    ``sigma`` is a named diagonal covariance, an (n, q) array, or a vector
    of n·q entries in series-major order (the canonical vector layout).
    """
    if isinstance(sigma, DiagonalSigma):
        if sigma.structure.dim != ct.dim:
            raise ValidationError("covariance built for a different structure")
        return sigma.cells()
    w = np.asarray(sigma, dtype=float)
    shape = (ct.n_series, ct.n_positions)
    if w.shape not in (shape, (ct.dim,)):
        raise ValidationError(
            f"weights of shape {w.shape} are neither an {shape} cell table "
            f"nor a vector of its {ct.dim} cells"
        )
    return w.reshape(shape)


def _cs_step(ct: CrossTemporalStructure, sigma) -> Callable[[np.ndarray], np.ndarray]:
    """The cross-sectional step: project every column (temporal position) of
    a block under that column of the weight table."""
    return batched_projector(ct.cs, _cells(ct, sigma))


def _te_step(ct: CrossTemporalStructure, sigma) -> Callable[[np.ndarray], np.ndarray]:
    """The temporal step: project every row (series) of a block under that
    row of the weight table."""
    project = batched_projector(ct.te, _cells(ct, sigma).T)
    return lambda X: project(X.T).T


def _mean_projection(
    structure: CrossSectionalStructure | TemporalStructure, weights: np.ndarray
) -> np.ndarray:
    """Mean of the projection matrices under each column of ``weights``."""
    r, b = weights.shape
    eye = np.broadcast_to(np.eye(r)[:, None, :], (r, b, r))
    return batched_projector(structure, weights)(eye).mean(axis=1)


def _ka_map(
    ct: CrossTemporalStructure, sigma_cs, sigma_te, order: str
) -> Callable[[np.ndarray], np.ndarray]:
    """One uni-dimensional step followed by the other dimension's averaged
    projection matrix."""
    w, om = _cells(ct, sigma_cs), _cells(ct, sigma_te)
    starts = [ct.te.order_slice(k).start for k in ct.te.orders]
    w_by_order = w[:, starts]
    widths = np.diff(starts + [ct.n_positions])
    if not np.array_equal(np.repeat(w_by_order, widths, axis=1), w):
        raise ValidationError(
            "the averaging heuristic needs one cross-sectional weight per order, "
            "but the weights vary within an order"
        )
    if order == "cst":
        step, m_bar = _cs_step(ct, w), _mean_projection(ct.te, om.T)
        return lambda X: step(X) @ m_bar.T
    step, m_bar = _te_step(ct, om), _mean_projection(ct.cs, w_by_order)
    return lambda X: m_bar @ step(X)


def _build(kind: str, order: str, ct: CrossTemporalStructure, sigma_cs, sigma_te):
    """The weight-dependent part of a method: the block map a one-shot
    method applies, or the (first, second) steps that ``ite`` alternates.
    ``oct`` solves by block elimination (see ``cross_temporal_projector``),
    never forming the combined constraint Gram; ``reference.zero_projector``
    on ``ct.full_constraint("ct")`` is the reference it is checked against."""
    if kind == "oct":
        return cross_temporal_projector(ct.cs, ct.te, _cells(ct, sigma_cs))
    if kind == "cs":
        return _cs_step(ct, sigma_cs)
    if kind == "te":
        return _te_step(ct, sigma_te)
    if kind == "ka":
        return _ka_map(ct, sigma_cs, sigma_te, order)
    cs_step, te_step = _cs_step(ct, sigma_cs), _te_step(ct, sigma_te)
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
        converged = _frobenius(half - current) <= delta * max(1.0, _frobenius(current))
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
    measure_memory: bool = False,
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

    ``sigma`` weighs the cross-sectional step (and ``oct``), ``sigma_te``
    the temporal one (default: ``sigma``). Everything that depends only on
    the weights — the projectors and their factorizations, ``ka``'s
    averaged matrix — is built here, once, so its faults (a misshapen
    table, ``ka``'s per-order check, a singular system) raise before any
    origin runs; the returned callable only applies that immutable build,
    and concurrent origins may share it. Reports carry the build's cost as
    ``prepare_s`` and ``prepare_peak_mem``, the apply's as ``elapsed`` and
    ``peak_mem``. tracemalloc is process-wide, so ``measure_memory``'s
    traced peaks need one worker: one origin at a time.
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
    weights = {"cs": (sigma,), "oct": (sigma,), "te": (sigma_te,)}.get(
        kind, (sigma, sigma_te)
    )
    if kind == "ka":
        covariance = "per-order/per-series"
    elif len(weights) == 1:
        covariance = _sigma_name(weights[0])
    else:
        covariance = f"cs={_sigma_name(sigma)},te={_sigma_name(sigma_te)}"
    with _Meter(measure_memory) as build:
        built = _build(kind, order, ct, sigma, sigma_te)

    def run(block: ForecastBlock) -> ReconcileReport:
        if block.structure is not ct:
            raise ValidationError(
                f"origin {block.origin_id}: block of another structure"
            )
        with _Meter(measure_memory) as meter:
            if kind == "ite":
                values, trace, converged, iterates = _alternate(
                    *built, block.values, delta, max_iter, keep_iterates
                )
            else:
                values = built(block.values)
                trace = [frobenius_gap(values, block.values)]
                converged, iterates = True, None
        # measured on the stored copy so the figures do not depend on the
        # memory layout the last step returned (a te step returns a view)
        out = block.with_values(values)
        coherence = ct.coherence_residuals(out.values)
        flags = list(_sigma_flags(*weights))
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


def sntz(report: ReconcileReport, measure_memory: bool = False) -> ReconcileReport:
    """Clamp negative finest-grain bottom values to zero and rebuild upward.

    Expects an already fully coherent input; the output is fully coherent
    by construction and nonnegative at the finest bottom level.
    """
    block = report.block
    ct = block.structure
    with _Meter(measure_memory) as meter:
        bottom = ct.bottom_hf(block.values)
        values = ct.from_bottom_hf(np.maximum(bottom, 0.0))
    out = block.with_values(values)
    return replace(
        report,
        block=out,
        method=report.method + "+sntz",
        coherence=ct.coherence_residuals(values),
        elapsed=report.elapsed + meter.elapsed,
        peak_mem=max(report.peak_mem, meter.peak),
        flags=report.flags + ("sntz",),
    )


def baseline_bu(block: ForecastBlock) -> ForecastBlock:
    """Bottom-up: rebuild everything from the block's own finest bottom values."""
    ct = block.structure
    return block.with_values(ct.from_bottom_hf(ct.bottom_hf(block.values)))


def baseline_pers_bu(
    history: np.ndarray,
    structure: CrossTemporalStructure,
    origin_id: str = "0",
) -> ForecastBlock:
    """Seasonal persistence: repeat the previous cycle's finest bottom
    observations and aggregate bottom-up.

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
    output order is fixed by sorting.
    """
    blocks = sorted(blocks, key=lambda b: b.origin_id)
    if max_workers <= 1:
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
