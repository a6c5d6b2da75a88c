#!/usr/bin/env python3
"""Two formulas, one projection.

The reconciliation map can be written from the summing matrix (regression
form) or from the zero constraints (constrained-adjustment form). Both give
the same oblique projection; whitening by the covariance makes it an
orthogonal one. All of this is visible numerically on a small instance.
"""

import numpy as np
import scipy.linalg as sla

from ctrec import build_cs, build_ct, build_te
from ctrec.reference import structural_projector, zero_projector

rng = np.random.default_rng(0)
np.set_printoptions(precision=4, suppress=True)

ct = build_ct(
    build_cs(np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0]])), build_te([2, 1])
)
print("instance: block", (ct.n_series, ct.n_positions), "vector length", ct.dim)

x_hat = rng.normal(size=ct.dim) + 3.0
sigma = rng.uniform(0.5, 2.0, size=ct.dim)  # a diagonal covariance

via_summing = structural_projector(ct.full_summing("ct"), sigma)
via_constraints = zero_projector(ct.full_constraint("ct"), sigma)

a = via_summing(x_hat)
b = via_constraints(x_hat)
print("\n|structural - zero-constrained| =", np.abs(a - b).max())

print("constraint residual after projection:",
      np.abs(ct.full_constraint('ct') @ a).max())
print("projection is idempotent:", np.abs(via_summing(a) - a).max())

# Coherent points are fixed points.
coherent = ct.vectorize(ct.from_bottom_hf(rng.normal(size=(ct.cs.n_bottom, ct.te.m))))
print("coherent input is untouched:", np.abs(via_summing(coherent) - coherent).max())

# In the whitened metric the oblique projection is orthogonal: symmetric
# and idempotent after conjugating by the Cholesky factor of the precision.
dense_sigma = np.diag(sigma)
M = via_summing.dense()
Q = sla.cholesky(np.linalg.inv(dense_sigma), lower=False)
T = Q @ M @ np.linalg.inv(Q)
print("\nwhitened operator: symmetric to", np.abs(T - T.T).max(),
      ", idempotent to", np.abs(T @ T - T).max())

# The projection moves the input as little as the metric allows: compare
# against a brute-force dense solve of the normal equations.
K = ct.full_summing("ct").toarray()
Si = np.linalg.inv(dense_sigma)
brute = K @ np.linalg.solve(K.T @ Si @ K, K.T @ Si @ x_hat)
print("matches the dense normal-equations solve:", np.abs(a - brute).max())
