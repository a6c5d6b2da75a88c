"""Randomized verification suites for the package's two load-bearing facts:
the constant-weight equivalence of all heuristics with the separable
one-shot solution, and the convergence of the alternating heuristic to the
one-shot solution under matching variance-scaled covariances. Also checks
the two projector representations against each other, every one-shot method
against a dense materialized oracle, the per-method coherence profile, and
the negative-clamping post-processor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import ResidualSet, sigma_ols, sigma_wlsv
from .errors import ValidationError
from .hierarchy import CrossTemporalStructure
from .reconcile import METHODS, ForecastBlock, frobenius_gap, prepare, sntz
from .reference import structural_projector, zero_projector
from .simulate import random_structure


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    worst: float
    detail: str

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _noisy_block(rng, ct: CrossTemporalStructure, scale=1.0) -> ForecastBlock:
    bottom = rng.normal(size=(ct.cs.n_bottom, ct.te.m))
    values = ct.from_bottom_hf(bottom) + scale * rng.normal(
        size=(ct.n_series, ct.n_positions)
    )
    return ForecastBlock(values, ct)


def _scaled_residuals(rng, ct: CrossTemporalStructure, n_origins: int) -> ResidualSet:
    scales = rng.uniform(0.2, 3.0, size=(1, ct.n_series, 1))
    return ResidualSet(
        rng.normal(size=(n_origins, ct.n_series, ct.n_positions)) * scales
    )


def check_constant_weight_equivalence(
    seed: int = 0, instances: int = 50, tol: float = 1e-8
) -> CheckResult:
    """With one weight matrix per dimension, the sequential, averaged, and
    alternating heuristics (single cycle) all equal the one-shot solution
    under the separable covariance."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        ct = random_structure(rng, max_series=30, max_upper=8, m_choices=(4, 12, 24))
        block = _noisy_block(rng, ct)
        # one weight vector per dimension, spread over the (n, q) cell table
        n, q = ct.n_series, ct.n_positions
        w = np.outer(rng.uniform(0.5, 2.0, size=n), np.ones(q))
        om = np.outer(np.ones(n), rng.uniform(0.5, 2.0, size=q))
        heuristics = ("seq-cst", "seq-tcs", "ka-cst", "ka-tcs", "ite-cst", "ite-tcs")
        runs = [prepare(method, ct, w, om)(block) for method in heuristics]
        runs.append(prepare("oct", ct, w * om)(block))
        if runs[4].iterations != 1 or runs[5].iterations != 1:
            return CheckResult(
                "constant-weight equivalence",
                False,
                float("nan"),
                "alternating heuristic took more than one cycle",
            )
        scale = max(1.0, float(np.linalg.norm(block.values)))
        blocks = [r.block for r in runs]
        for i in range(len(blocks)):
            for j in range(i + 1, len(blocks)):
                worst = max(worst, frobenius_gap(blocks[i], blocks[j]) / scale)
    return CheckResult(
        "constant-weight equivalence",
        worst <= tol,
        worst,
        f"{instances} instances, max pairwise relative gap {worst:.3e} (tol {tol:g})",
    )


def check_alternating_convergence(
    seed: int = 0,
    instances: int = 20,
    deltas=(1e-5, 1e-6, 1e-10),
    n_origins: int = 20,
) -> CheckResult:
    """With variance-scaled covariances shared by both dimensions, the
    alternating heuristic terminates and approaches the one-shot solution
    monotonically as the tolerance shrinks, from either order."""
    rng = np.random.default_rng(seed)
    deltas = tuple(sorted(deltas, reverse=True))
    worst_final = 0.0
    worst_cross = 0.0
    for _ in range(instances):
        ct = random_structure(rng, max_series=15, max_upper=4, m_choices=(4, 12))
        block = _noisy_block(rng, ct)
        sigma = sigma_wlsv(ct, _scaled_residuals(rng, ct, n_origins))
        target = prepare("oct", ct, sigma)(block).block
        scale = max(1.0, float(np.linalg.norm(block.values)))
        finals = {}
        for order in ("tcs", "cst"):
            gaps = []
            for delta in deltas:
                run = prepare(f"ite-{order}", ct, sigma, delta=delta, max_iter=20000)(block)
                if not run.converged:
                    return CheckResult(
                        "alternating convergence",
                        False,
                        float("nan"),
                        f"did not terminate at delta={delta:g}",
                    )
                gaps.append(frobenius_gap(run.block, target) / scale)
                finals[order] = run.block
            if any(a < b - 1e-15 for a, b in zip(gaps, gaps[1:])):
                return CheckResult(
                    "alternating convergence",
                    False,
                    max(gaps),
                    f"gaps {gaps} not non-increasing over deltas {deltas}",
                )
            worst_final = max(worst_final, gaps[-1])
        worst_cross = max(
            worst_cross, frobenius_gap(finals["tcs"], finals["cst"]) / scale
        )
    passed = worst_final <= 1e-6 and worst_cross <= 1e-6
    return CheckResult(
        "alternating convergence",
        passed,
        max(worst_final, worst_cross),
        f"{instances} instances; final gap {worst_final:.3e}, "
        f"order disagreement {worst_cross:.3e} (tol 1e-6)",
    )


def check_representation_equivalence(
    seed: int = 0, draws: int = 100, max_dim: int = 200, tol: float = 1e-8
) -> CheckResult:
    """The summing-map and constraint forms realize the same projection for
    random structures and random (diagonal or dense) covariances."""
    rng = np.random.default_rng(seed)
    frameworks = ("cs", "te", "ct")
    worst = 0.0
    done = 0
    while done < draws:
        ct = random_structure(rng, max_series=12, max_upper=4, m_choices=(4, 12))
        if ct.dim > max_dim:
            continue
        framework = frameworks[done % 3]
        if done % 2:
            sigma = rng.uniform(0.5, 2.0, size=ct.dim)
        else:
            Q, _ = np.linalg.qr(rng.normal(size=(ct.dim, ct.dim)))
            sigma = (Q * rng.uniform(0.5, 2.0, size=ct.dim)) @ Q.T
        x = rng.normal(size=ct.dim)
        a = structural_projector(ct.full_summing(framework), sigma)(x)
        b = zero_projector(ct.full_constraint(framework), sigma)(x)
        worst = max(worst, float(np.linalg.norm(a - b) / np.linalg.norm(x)))
        done += 1
    return CheckResult(
        "representation equivalence",
        worst <= tol,
        worst,
        f"{draws} draws at dim <= {max_dim}, max relative gap {worst:.3e} (tol {tol:g})",
    )


def _mean_dense(K, weights) -> np.ndarray:
    """Mean of the materialized projections onto span(K), one per weight vector."""
    return np.mean([structural_projector(K, w).dense() for w in weights], axis=0)


def check_dense_oracle(seed: int = 0, instances: int = 5, tol: float = 1e-9) -> CheckResult:
    """Every one-shot, sequential and averaged method equals its explicitly
    materialized projection."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    done = 0
    while done < instances:
        ct = random_structure(rng, max_series=10, max_upper=3, m_choices=(4,))
        if ct.dim > 200:
            continue
        block = _noisy_block(rng, ct)
        sigma = sigma_wlsv(ct, _scaled_residuals(rng, ct, 12))
        x = block.vector
        scale = max(1.0, float(np.linalg.norm(x)))
        m_cs = structural_projector(ct.full_summing("cs"), sigma.diag).dense()
        m_te = structural_projector(ct.full_summing("te"), sigma.diag).dense()
        m_ct = structural_projector(ct.full_summing("ct"), sigma.diag).dense()
        cells = sigma.cells()
        starts = [ct.te.order_slice(k).start for k in ct.te.orders]
        m_te_bar = _mean_dense(ct.te.summing_dense, cells)
        m_cs_bar = _mean_dense(ct.cs.summing_dense, cells[:, starts].T)
        eye_n, eye_q = np.eye(ct.n_series), np.eye(ct.n_positions)
        oracles = {
            "cs": m_cs @ x,
            "te": m_te @ x,
            "oct": m_ct @ x,
            "seq-cst": m_te @ (m_cs @ x),
            "seq-tcs": m_cs @ (m_te @ x),
            "ka-cst": np.kron(eye_n, m_te_bar) @ (m_cs @ x),
            "ka-tcs": np.kron(m_cs_bar, eye_q) @ (m_te @ x),
        }
        for method, expected in oracles.items():
            got = prepare(method, ct, sigma)(block).block.vector
            worst = max(worst, float(np.linalg.norm(got - expected)) / scale)
        done += 1
    return CheckResult(
        "dense-oracle equivalence",
        worst <= tol,
        worst,
        f"{instances} instances, max relative gap {worst:.3e} (tol {tol:g})",
    )


def check_coherence_profile(seed: int = 0, tol: float = 1e-8) -> CheckResult:
    """Methods satisfy exactly the constraints they claim; on a generic
    instance the unclaimed dimension is genuinely violated (> 1e-3)."""
    rng = np.random.default_rng(seed)
    ct = random_structure(rng, max_series=12, max_upper=4, m_choices=(12,))
    block = _noisy_block(rng, ct, scale=5.0)
    sigma = sigma_wlsv(ct, _scaled_residuals(rng, ct, 12))
    for method, (cs_hold, te_hold) in METHODS.items():
        run = prepare(method, ct, sigma, delta=1e-10, max_iter=20000)(block)
        bound = tol * max(1.0, float(np.abs(run.block.values).max()))
        for held, residual in ((cs_hold, run.coherence[0]), (te_hold, run.coherence[1])):
            if held and residual > bound:
                return CheckResult(
                    "coherence profile", False, residual,
                    f"{run.method}: claimed constraint violated ({residual:.3e})",
                )
            if not held and residual <= 1e-3:
                return CheckResult(
                    "coherence profile", False, residual,
                    f"{run.method}: expected a visible violation, got {residual:.3e}",
                )
    return CheckResult(
        "coherence profile", True, 0.0,
        "all claimed constraints hold; unclaimed ones visibly violated",
    )


def check_sntz(seed: int = 0) -> CheckResult:
    """Clamping keeps full coherence and makes the finest bottom block nonnegative."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(10):
        ct = random_structure(rng, max_series=10, max_upper=3, m_choices=(4, 12))
        block = _noisy_block(rng, ct, scale=3.0)
        out = sntz(prepare("oct", ct, sigma_ols(ct))(block))
        x = out.block.vector
        residual = float(np.abs(ct.full_constraint("ct") @ x).max())
        bound = 1e-10 * max(1.0, float(np.abs(x).max()))
        if residual > bound or ct.bottom_hf(out.block.values).min() < 0:
            return CheckResult(
                "negative clamping", False, residual,
                f"coherence residual {residual:.3e} or negative bottom cell",
            )
        worst = max(worst, residual)
    return CheckResult(
        "negative clamping", True, worst,
        f"coherent (max residual {worst:.3e}) and nonnegative at the bottom",
    )


def run_all(seed: int = 0, instances: int | None = None) -> list[CheckResult]:
    """Run every suite; ``instances`` (at least 1) scales the two heavyweight
    ones, which otherwise run 50 and 20."""
    if instances is not None and instances < 1:  # zero instances pass vacuously
        raise ValidationError(f"instances must be at least 1, got {instances}")
    return [
        check_constant_weight_equivalence(seed, instances or 50),
        check_alternating_convergence(seed, instances or 20),
        check_representation_equivalence(seed),
        check_dense_oracle(seed),
        check_coherence_profile(seed),
        check_sntz(seed),
    ]
