"""Shared builders for test instances (thin wrappers over the package's
synthetic generators, plus a few fixed toys)."""

import numpy as np

from ctrec.hierarchy import build_cs, build_ct, build_te
from ctrec.reconcile import prepare
from ctrec.simulate import pv324_cs, random_aggregation, random_structure

__all__ = [
    "toy_cs",
    "toy_ct",
    "random_agg",
    "random_structure",
    "random_spd",
    "pv324_agg",
    "run_method",
]


def toy_cs():
    """One total over two bottoms."""
    return build_cs(np.array([[1.0, 1.0]]))


def toy_ct(orders=(2, 1)):
    return build_ct(toy_cs(), build_te(orders))


def random_agg(rng, n_u, n_b):
    return random_aggregation(rng, n_u, n_b)


def random_spd(rng, dim, spread=2.0):
    """Well-conditioned random symmetric positive definite matrix."""
    Q, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
    eigs = rng.uniform(1.0, spread, size=dim)
    return (Q * eigs) @ Q.T


def pv324_agg():
    cs = pv324_cs()
    return np.asarray(cs.agg), list(cs.labels)


def run_method(method, block, sigma, **options):
    """Reconcile one block by method name: ``prepare`` for its structure."""
    return prepare(method, block.structure, sigma, **options)(block)
