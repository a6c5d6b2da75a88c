"""Correctness gate for one `reconciled.csv`, run after the process has exited.

An origin passes when its block is present and complete, coherent
(`max(coherence_residuals(x̂)) <= 1e-9 * max|x̂|`) and satisfies the
weighted least-squares optimality condition of the one-shot projection,
`||Sᵀ Σ⁻¹ (x − x̂)||∞ <= 1e-9 * ||Sᵀ Σ⁻¹ x||∞`, with S the full cross-temporal
summing matrix, Σ the workload's covariance and x the base forecast. The
file is parsed here with the csv module rather than `ctrec.io`, so a reader
and writer that drift together cannot hide a format change.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

import numpy as np
import scipy.sparse as sp

COHERENCE_TOL = 1e-9
OPTIMALITY_TOL = 1e-9


class Gate:
    """Checks outputs against the base forecasts and covariance of one run."""

    def __init__(self, ct, bases, sigma):
        self.ct = ct
        self.bases = {block.origin_id: np.asarray(block.values) for block in bases}
        te = ct.te
        self.header = ["origin", "series"] + [
            f"k{k}_{j + 1}" for k in te.orders for j in range(te.m // k)
        ]
        self.rows = {label: i for i, label in enumerate(ct.cs.labels)}
        # Sᵀ Σ⁻¹, applied to canonical (series-major) vectors.
        summing = ct.full_summing("ct")
        self.weighted = (summing.T @ sp.diags(1.0 / np.asarray(sigma.diag))).tocsr()

    def parse(self, path: Path) -> dict[str, np.ndarray]:
        """Blocks by origin id; raises ValueError on any malformed content."""
        n, q = self.ct.n_series, self.ct.n_positions
        blocks: dict[str, np.ndarray] = {}
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != self.header:
                raise ValueError(f"{path}: header differs from the canonical layout")
            for lineno, row in enumerate(reader, start=2):
                if len(row) != q + 2 or row[1] not in self.rows:
                    raise ValueError(f"{path}:{lineno}: malformed row")
                block = blocks.setdefault(row[0], np.full((n, q), np.nan))
                i = self.rows[row[1]]
                if not np.isnan(block[i]).all():
                    raise ValueError(f"{path}:{lineno}: duplicate row")
                block[i] = [float(v) for v in row[2:]]
        return blocks

    def origin_ok(self, base: np.ndarray, values: np.ndarray) -> bool:
        if not np.all(np.isfinite(values)):
            return False
        scale = float(np.abs(values).max())
        if max(self.ct.coherence_residuals(values)) > COHERENCE_TOL * scale:
            return False
        x, xh = base.ravel(), values.ravel()
        gradient = np.abs(self.weighted @ (x - xh)).max()
        reference = np.abs(self.weighted @ x).max()
        return bool(gradient <= OPTIMALITY_TOL * reference)

    def check(self, path: Path) -> tuple[set[str], str]:
        """Failed origin ids and the file's SHA-256 (empty when unreadable)."""
        try:
            data = Path(path).read_bytes()
            blocks = self.parse(path)
        except (OSError, ValueError):
            return set(self.bases), ""
        digest = hashlib.sha256(data).hexdigest()
        if set(blocks) - set(self.bases):  # an origin nobody asked for
            return set(self.bases), digest
        failed = set()
        for origin, base in self.bases.items():
            values = blocks.get(origin)
            if values is None or not self.origin_ok(base, values):
                failed.add(origin)
        return failed, digest
