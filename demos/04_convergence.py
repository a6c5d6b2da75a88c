#!/usr/bin/env python3
"""Convergence of the alternating heuristic to the one-shot solution.

With variance-scaled weights shared by both dimensions, alternating the two
uni-dimensional reconciliations walks to the one-shot combined solution.
Runs the heuristic at three stopping tolerances over a handful of
replications and prints how close each lands; also writes a plot-ready
CSV of one run's per-iteration gaps.
"""

import numpy as np

from ctrec import (
    ForecastBlock,
    ResidualSet,
    build_cs,
    build_ct,
    build_te,
    frobenius_gap,
    frobenius_trace,
    prepare,
    sigma_wlsv,
)
from ctrec.io import write_trace_csv

rng = np.random.default_rng(7)
DELTAS = (1e-5, 1e-6, 1e-10)
REPLICATIONS = 10

ct = build_ct(
    build_cs(np.vstack([np.ones(6), np.eye(3).repeat(2, axis=1)])),
    build_te([12, 6, 4, 3, 2, 1]),
)
print("instance: block", (ct.n_series, ct.n_positions))

rows = {delta: [] for delta in DELTAS}
cycles = {delta: [] for delta in DELTAS}
for rep in range(REPLICATIONS):
    truth = ct.from_bottom_hf(rng.uniform(2.0, 8.0, size=(ct.cs.n_bottom, ct.te.m)))
    block = ForecastBlock(truth + rng.normal(size=truth.shape), ct)
    sigma = sigma_wlsv(
        ct,
        ResidualSet(
            rng.normal(size=(20, ct.n_series, ct.n_positions))
            * rng.uniform(0.3, 2.0, size=(1, ct.n_series, 1))
        ),
    )
    target = prepare("oct", ct, sigma)(block)
    scale = np.linalg.norm(block.values)
    for delta in DELTAS:
        run = prepare("ite-tcs", ct, sigma, delta=delta, max_iter=5000)(block)
        rows[delta].append(frobenius_gap(run.block, target.block) / scale)
        cycles[delta].append(run.iterations)

print(f"\n{'tolerance':>10} {'median gap to one-shot':>24} {'median cycles':>14}")
for delta in DELTAS:
    print(f"{delta:>10.0e} {np.median(rows[delta]):>24.3e} "
          f"{np.median(cycles[delta]):>14.0f}")
print("(tighter tolerances land closer, at the price of more cycles)")

# One run's full trace, in the long CSV format the evaluation tools expect.
truth = ct.from_bottom_hf(rng.uniform(2.0, 8.0, size=(ct.cs.n_bottom, ct.te.m)))
block = ForecastBlock(truth + rng.normal(size=truth.shape), ct)
sigma = sigma_wlsv(
    ct, ResidualSet(rng.normal(size=(20, ct.n_series, ct.n_positions)))
)
target = prepare("oct", ct, sigma)(block)
run = prepare("ite-tcs", ct, sigma, delta=1e-10, max_iter=5000, keep_iterates=True)(block)
gaps = frobenius_trace(run, target)
write_trace_csv(
    "convergence_trace.csv",
    [("ite-tcs", i + 1, g, 1e-10) for i, g in enumerate(gaps)],
)
print(f"\nper-iteration gaps of one run ({run.iterations} cycles) "
      f"-> convergence_trace.csv; first/last: {gaps[0]:.3e} / {gaps[-1]:.3e}")
