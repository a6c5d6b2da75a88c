#!/usr/bin/env python3
"""Tour of the aggregation structures and the canonical layout.

Builds the smallest interesting hierarchy (one total over two bottoms) on a
quarterly-style temporal grid, prints every matrix involved, and shows how a
forecast block flattens into its canonical vector.
"""

import numpy as np

from ctrec import build_cs, build_ct, build_te

np.set_printoptions(linewidth=120, suppress=True)

# One upper series summing two bottoms.
cs = build_cs(np.array([[1.0, 1.0]]), labels=["total", "left", "right"])
print("cross-sectional structure:", cs.n_series, "series",
      f"({cs.n_upper} upper, {cs.n_bottom} bottom)")
print("summing matrix (bottom -> all):\n", cs.summing_dense)
print("constraint matrix (rows must vanish):\n", cs.constraint_dense)

# Quarterly grid: annual, semi-annual, quarterly values of one year.
te = build_te([4, 2, 1])
print("\ntemporal grid: orders", te.orders, "->", te.n_positions,
      "positions per cycle (aggregated:", te.k_star, "+ finest:", te.m, ")")
print("temporal summing matrix:\n", te.summing_dense)
print("row sums equal each position's order:", te.row_sums)

ct = build_ct(cs, te)
print("\ncombined: block is", (ct.n_series, ct.n_positions),
      "-> canonical vector of length", ct.dim)

# A coherent block is fully determined by the finest bottom values.
bottom = np.array([[1.0, 2.0, 3.0, 4.0], [10.0, 20.0, 30.0, 40.0]])
X = ct.from_bottom_hf(bottom)
print("\ncoherent block from bottom values:\n", X)
print("constraint residuals (cs, te):", ct.coherence_residuals(X))

x = ct.vectorize(X)
print("\ncanonical vector starts with the first series' temporal run:")
print(x[: ct.n_positions], "== total's (annual, 2 half-years, 4 quarters)")

# The position-major view (one cross-sectional vector per position) is the
# transpose's flattening; transposing back reproduces the canonical vector.
position_major = X.T.ravel()
print("\nposition-major vector starts with the first position's cross-section:",
      position_major[: ct.n_series])
print("transposing back reproduces the canonical one:",
      np.array_equal(position_major.reshape(ct.n_positions, ct.n_series).T.ravel(), x))

# The combined summing and constraint maps annihilate each other exactly.
prod = (ct.full_constraint("ct") @ ct.full_summing("ct")).toarray()
print("constraint @ summing == 0 exactly:", not prod.any())
