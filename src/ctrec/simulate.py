"""Synthetic coherent truths, incoherent base forecasts, and random instances.

Desk-scale stand-in for an hourly power-generation experiment: smooth
positive seasonal bottom signals aggregated into a coherent truth, base
forecasts obtained by adding independent noise to every (series, position)
cell, and matching residual sets for variance-scaled covariances.
Everything is driven by one seed and fully reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import ResidualSet
from .errors import ValidationError
from .hierarchy import (
    CrossSectionalStructure,
    CrossTemporalStructure,
    build_cs,
    build_ct,
    build_te,
)
from .reconcile import ForecastBlock

PV324_ZONES = (27, 73, 101, 86, 31)
PV324_ORDERS = (24, 12, 8, 6, 4, 3, 2, 1)


def pv324_cs() -> CrossSectionalStructure:
    """The 1 + 5 + 318 plant hierarchy used for benchmark-scale runs."""
    n_b = sum(PV324_ZONES)
    rows = [np.ones(n_b)]
    start = 0
    for width in PV324_ZONES:
        row = np.zeros(n_b)
        row[start : start + width] = 1.0
        rows.append(row)
        start += width
    labels = (
        ["ISO"]
        + [f"TZ{i + 1}" for i in range(len(PV324_ZONES))]
        + [f"P{i + 1}" for i in range(n_b)]
    )
    return build_cs(np.array(rows), labels)


def pv324_structure(orders=PV324_ORDERS) -> CrossTemporalStructure:
    return build_ct(pv324_cs(), build_te(orders))


def random_aggregation(rng: np.random.Generator, n_upper: int, n_bottom: int) -> np.ndarray:
    """A total row plus random nonnegative integer rows, none all-zero."""
    rows = [np.ones(n_bottom)]
    for _ in range(n_upper - 1):
        row = rng.integers(0, 3, size=n_bottom)
        if not row.any():
            row[rng.integers(n_bottom)] = 1
        rows.append(row)
    return np.array(rows, dtype=float)


def random_orders(rng: np.random.Generator, m: int) -> list[int]:
    """A random divisor subset of m, always containing m and 1."""
    divisors = [k for k in range(1, m + 1) if m % k == 0]
    return sorted(
        [k for k in divisors if k in (1, m) or rng.random() < 0.7], reverse=True
    )


def random_structure(
    rng: np.random.Generator,
    max_series: int = 30,
    max_upper: int = 8,
    m_choices=(4, 12, 24),
) -> CrossTemporalStructure:
    m = int(rng.choice(m_choices))
    n_u = int(rng.integers(1, max_upper + 1))
    n_b = int(rng.integers(2, max(3, max_series - n_u + 1)))
    return build_ct(
        build_cs(random_aggregation(rng, n_u, n_b)), build_te(random_orders(rng, m))
    )


def _bottom_cycle(rng: np.random.Generator, n_bottom: int, m: int) -> np.ndarray:
    """Smooth positive seasonal signals, one cycle per bottom series."""
    level = rng.uniform(5.0, 10.0, size=(n_bottom, 1))
    amplitude = level * rng.uniform(0.1, 0.5, size=(n_bottom, 1))
    phase = rng.uniform(0.0, 2 * np.pi, size=(n_bottom, 1))
    t = np.arange(m)[None, :]
    return level + amplitude * np.sin(2 * np.pi * t / m + phase)


@dataclass(frozen=True)
class SimulatedData:
    """One synthetic experiment: truths, noisy bases, residuals, histories."""

    structure: CrossTemporalStructure
    actuals: tuple[ForecastBlock, ...]
    bases: tuple[ForecastBlock, ...]
    residuals: ResidualSet | None
    histories: np.ndarray  # (origins, n_bottom, m) previous-cycle observations


def simulate_dataset(
    ct: CrossTemporalStructure,
    n_origins: int = 4,
    n_residual_origins: int = 20,
    noise_sd: float = 0.5,
    seed: int = 0,
) -> SimulatedData:
    """Generate a coherent truth and incoherent base forecasts per origin.

    Noise is independent across cells with per-series scales and a sqrt(k)
    inflation for aggregated positions, so variance-scaled covariances have
    real structure to estimate. ``noise_sd = 0`` yields already-coherent
    bases (and no residual set: nothing to estimate variances from).
    """
    if n_origins < 1:
        raise ValidationError(f"need at least one origin, got {n_origins}")
    if not 0 <= noise_sd < np.inf:  # NaN fails both comparisons
        raise ValidationError(f"noise_sd must be finite and at least 0, got {noise_sd}")
    if n_residual_origins < 2:
        raise ValidationError(
            f"n_residual_origins must be at least 2, got {n_residual_origins}"
        )
    rng = np.random.default_rng(seed)
    n, q = ct.n_series, ct.n_positions
    scales = rng.uniform(0.5, 1.5, size=(n, 1))
    cell_sd = noise_sd * scales * np.sqrt(ct.te.position_orders)[None, :]

    actuals, bases, histories = [], [], []
    for origin in range(n_origins):
        origin_id = f"{origin:04d}"
        bottom = _bottom_cycle(rng, ct.cs.n_bottom, ct.te.m)
        truth = ct.from_bottom_hf(bottom)
        noise = rng.normal(size=(n, q)) * cell_sd
        actuals.append(ForecastBlock(truth, ct, origin_id))
        bases.append(ForecastBlock(truth + noise, ct, origin_id))
        histories.append(bottom + rng.normal(size=bottom.shape) * noise_sd)

    residuals = None
    if noise_sd > 0:
        residuals = ResidualSet(
            rng.normal(size=(n_residual_origins, n, q)) * cell_sd[None, :, :]
        )
    return SimulatedData(
        structure=ct,
        actuals=tuple(actuals),
        bases=tuple(bases),
        residuals=residuals,
        histories=np.stack(histories),
    )
