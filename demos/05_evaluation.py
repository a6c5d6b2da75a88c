#!/usr/bin/env python3
"""A miniature end-to-end experiment: simulate, reconcile, evaluate.

Generates a synthetic dataset with a known coherent truth, reconciles the
noisy base forecasts several ways, and compares them with the accuracy
metric and the rank-based significance test.
"""

import numpy as np

from ctrec import (
    EvalFrame,
    baseline_pers_bu,
    build_cs,
    build_ct,
    build_te,
    mcb_nemenyi,
    nrmse_table,
    prepare,
    sigma_ols,
    sigma_str,
    sigma_wlsv,
    simulate_dataset,
)

ct = build_ct(
    build_cs(np.vstack([np.ones(8), np.eye(4).repeat(2, axis=1)])),
    build_te([4, 2, 1]),
)
data = simulate_dataset(ct, n_origins=12, n_residual_origins=20, noise_sd=0.8, seed=3)
print("simulated", len(data.bases), "origins of", ct.n_series, "series")


def reconciled(method, sigma):
    """Every origin reconciled by one method, prepared once for the batch."""
    run = prepare(method, ct, sigma)
    return tuple(run(b).block for b in data.bases)


wlsv = sigma_wlsv(ct, data.residuals)
candidates = {
    "base": data.bases,
    "pers-bu": tuple(
        baseline_pers_bu(data.histories[i], ct, origin_id=b.origin_id)
        for i, b in enumerate(data.bases)
    ),
    "oct-ols": reconciled("oct", sigma_ols(ct)),
    "oct-str": reconciled("oct", sigma_str(ct)),
    "oct-wlsv": reconciled("oct", wlsv),
    "ka-tcs": reconciled("ka-tcs", wlsv),
}

# level map: total is L0, remaining uppers L1, bottoms L2
levels = ("L0",) + ("L1",) * (ct.cs.n_upper - 1) + ("L2",) * ct.cs.n_bottom
frame = EvalFrame(ct, data.actuals, candidates, levels)

table = nrmse_table(frame, baseline="pers-bu")
print(f"\nnRMSE(%) by level and order (orders {ct.te.orders}):")
print(f"{'level':<6} {'candidate':<10}" + "".join(f"{f'k={k}':>9}" for k in table.orders))
for level, candidate, values in table.rows():
    cells = "".join(f"{v:>9.2f}" for v in values)
    worse = any((level, candidate, k) in table.flagged for k in table.orders)
    print(f"{level:<6} {candidate:<10}{cells}" + ("   <- worse than pers-bu" if worse else ""))

for k in (ct.te.m, 1):
    result = mcb_nemenyi(frame, order=k)
    print(f"\nmean ranks at order {k} (interval half-width {result.half_width:.3f}, "
          f"{result.n_cases} cases):")
    for name in result.ordered():
        lo, hi = result.interval(name)
        print(f"  {name:<10} {result.mean_ranks[name]:6.3f}  [{lo:6.3f}, {hi:6.3f}]")
    worse = result.worse_than_best()
    print("  significantly worse than the best:", ", ".join(worse) if worse else "none")
