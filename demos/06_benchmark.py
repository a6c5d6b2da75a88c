#!/usr/bin/env python3
"""Timing and memory at the 324-series hourly scale.

Each combination is prepared once for the batch (`ctrec.prepare`), as
`ctrec reconcile` does: its projectors are built and factored there, before
any origin, and every origin only applies them. Everything runs inside one
tracemalloc session, as in `ctrec bench`; every build and apply reads its
traced peak from it. Each report carries the
build's time as `prepare_s` and its own apply as `elapsed`, so the median
over the origins is the warm per-origin cost, printed next to the one-off
build. Warm, the one-shot solve is the cheapest. Once per batch it
factors 324 temporal Grams of 24 × 24 and one cross-sectional Schur system
of 144 rows, instead of an 11 808-row sparse constraint Gram; each origin
then costs a few batched matrix products. The alternating heuristic costs
one pair of batched uni-dimensional projections per cycle: one cycle under
weights that make it collapse, a few under variance-scaled ones. On a
2-vCPU host the demo runs in under a second and prints traced builds of
1–11 ms, medians of 0.3–0.4 ms for `oct` and 0.5–1.1 ms for `ka-tcs[wlsv]`
and `ite-tcs` (1 and 2 cycles), and traced peaks of 0.3 MB for the
one-shot methods (the result and one difference, two 324 × 60 blocks) and
0.5–0.7 MB for `ite-tcs`.
"""

import tracemalloc
from dataclasses import replace

from ctrec import (
    perf_summary,
    prepare,
    pv324_structure,
    sigma_ols,
    sigma_wlsv,
    simulate_dataset,
)
from ctrec.io import report_dict, write_perf_csv

REPS = 3

ct = pv324_structure()
print("benchmark shape:", ct.n_series, "series x", ct.n_positions,
      "positions =", ct.dim, "values per origin")
data = simulate_dataset(ct, n_origins=REPS, n_residual_origins=20, noise_sd=0.5, seed=11)

ols = sigma_ols(ct)
wlsv = sigma_wlsv(ct, data.residuals)

tracemalloc.start()
combinations = {
    "ite-tcs[ols]": prepare("ite-tcs", ct, ols),
    "ite-tcs[wlsv]": prepare("ite-tcs", ct, wlsv, max_iter=1000),
    "ka-tcs[wlsv]": prepare("ka-tcs", ct, wlsv),
    "oct[ols]": prepare("oct", ct, ols),
    "oct[wlsv]": prepare("oct", ct, wlsv),
}
reports = [
    replace(run(block), method=name)  # label rows by combination
    for name, run in combinations.items()
    for block in data.bases
]
tracemalloc.stop()

iters = {r.method: r.iterations for r in reports}
print("cycles per run:", {k: v for k, v in iters.items() if k.startswith("ite")})

prepared = {r.method: r.prepare_s for r in reports}
rows = perf_summary(report_dict(r, timings=True, memory=True) for r in reports)
print(f"\n{'combination':<16} {'build':>9} {'median time':>12} {'median peak':>12}")
for row in sorted(rows, key=lambda r: r.elapsed_median):
    print(f"{row.method:<16} {prepared[row.method] * 1e3:>6.1f} ms "
          f"{row.elapsed_median * 1e3:>9.1f} ms {row.mem_median / 1e6:>9.1f} MB")
write_perf_csv("benchmark_perf.csv", rows)
print("\nfull table -> benchmark_perf.csv")
