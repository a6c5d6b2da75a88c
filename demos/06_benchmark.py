#!/usr/bin/env python3
"""Timing and memory at the 324-series hourly scale.

Each combination is prepared once for the batch (`ctrec.prepare`), as
`ctrec reconcile` does: its projectors are built and factored on the first
origin, and every later origin only applies them. The median over the
origins is therefore the warm per-origin cost; the first origin carries
the preparation. Warm, the one-shot solve is the cheapest. Once per batch
it factors 324 temporal Grams of 24 × 24 and one cross-sectional Schur
system of 144 rows, instead of an 11 808-row sparse constraint Gram; each
origin then costs a few batched matrix products. Measured by hand on a
2-core machine without memory tracing, `oct[wlsv]` prepares in ~30–60 ms
and applies in ~0.4 ms per warm origin (the sparse LU took ~110 ms and
~2.3 ms). The alternating heuristic costs one pair of batched
uni-dimensional projections per cycle: one cycle under weights that make
it collapse, a few under variance-scaled ones. Expect a few seconds.
"""

from dataclasses import replace

from ctrec import (
    perf_summary,
    prepare,
    pv324_structure,
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

combinations = {
    "ite-tcs[ols]": prepare("ite-tcs", ct, ols, measure_memory=True),
    "ite-tcs[wlsv]": prepare("ite-tcs", ct, wlsv, max_iter=1000, measure_memory=True),
    "ka-tcs[wlsv]": prepare("ka-tcs", ct, wlsv, measure_memory=True),
    "oct[ols]": prepare("oct", ct, ols, measure_memory=True),
    "oct[wlsv]": prepare("oct", ct, wlsv, measure_memory=True),
}
reports = [
    replace(run(block), method=name)  # label rows by combination
    for name, run in combinations.items()
    for block in data.bases
]

iters = {r.method: r.iterations for r in reports}
print("cycles per run:", {k: v for k, v in iters.items() if k.startswith("ite")})

rows = perf_summary(reports)
print(f"\n{'combination':<16} {'median time':>12} {'median peak':>12}")
for row in sorted(rows, key=lambda r: r.elapsed_median):
    print(f"{row.method:<16} {row.elapsed_median * 1e3:>9.1f} ms "
          f"{row.mem_median / 1e6:>9.1f} MB")
write_perf_csv("benchmark_perf.csv", rows)
print("\nfull table -> benchmark_perf.csv")
