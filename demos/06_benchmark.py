#!/usr/bin/env python3
"""Timing and memory at the 324-series hourly scale.

The alternating heuristic costs one pair of batched uni-dimensional
projections per cycle, so with weights that make it collapse to a single
cycle it is the cheapest route to fully coherent forecasts; with
variance-scaled weights it needs more cycles, yet still costs a fraction of
the one-shot solve, which factors an 11 808-row sparse constraint system
per origin. Both effects are visible here. Expect about ten seconds.
"""

from dataclasses import replace

from ctrec import (
    pv324_structure,
    reconcile_iterative,
    reconcile_ka,
    reconcile_oct,
    perf_summary,
    sigma_ols,
    sigma_wlsv,
    simulate_dataset,
)
from ctrec.io import write_perf_csv

REPS = 3

ct = pv324_structure()
print("benchmark shape:", ct.n_series, "series x", ct.n_positions,
      "positions =", ct.dim, "values per origin")
data = simulate_dataset(ct, n_origins=REPS, n_residual_origins=20, noise_sd=0.5, seed=11)

ols = sigma_ols(ct)
wlsv = sigma_wlsv(ct, data.residuals)

reports = []
for block in data.bases:
    runs = {
        "ite-tcs[ols]": reconcile_iterative(
            block, ols, ols, order="tcs", measure_memory=True
        ),
        "ite-tcs[wlsv]": reconcile_iterative(
            block, wlsv, wlsv, order="tcs", max_iter=1000, measure_memory=True
        ),
        "ka-tcs[wlsv]": reconcile_ka(block, wlsv, wlsv, order="tcs", measure_memory=True),
        "oct[ols]": reconcile_oct(block, ols, measure_memory=True),
        "oct[wlsv]": reconcile_oct(block, wlsv, measure_memory=True),
    }
    for name, report in runs.items():
        reports.append(replace(report, method=name))  # label rows by combination

iters = {r.method: r.iterations for r in reports}
print("cycles per run:", {k: v for k, v in iters.items() if k.startswith("ite")})

rows = perf_summary(reports)
print(f"\n{'combination':<16} {'median time':>12} {'median peak':>12}")
for row in sorted(rows, key=lambda r: r.elapsed_median):
    print(f"{row.method:<16} {row.elapsed_median * 1e3:>9.1f} ms "
          f"{row.mem_median / 1e6:>9.1f} MB")
write_perf_csv("benchmark_perf.csv", rows)
print("\nfull table -> benchmark_perf.csv")
