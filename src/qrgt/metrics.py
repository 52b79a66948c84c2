"""Evaluation metrics for decentralized runs.

All metrics are computed at the raw Euclidean mean of the agent variables
(``np.mean`` over the agent axis), which generally lies off the manifold;
the tangent-projection formula is applied there as written, and the mean's
``distance_to_manifold`` is reported alongside as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import workers
from .problems import ProblemInstance
from .stiefel import distance_to_manifold, tangent_project

__all__ = [
    "MetricRow",
    "subspace_distance",
    "consensus_error",
    "evaluate",
]


@dataclass(frozen=True)
class MetricRow:
    """One epoch's worth of evaluation at the mean point."""

    consensus_error: float
    grad_norm: float
    f_gap: float
    ds: float
    dist_mean: float


def subspace_distance(x: np.ndarray, xstar: np.ndarray) -> float:
    """min over orthogonal O of ||x O - xstar||_F, by orthogonal Procrustes.

    With the SVD x^T xstar = U S V^T, the optimum is O = U V^T; O ranges
    over the full orthogonal group (reflections included), so no determinant
    correction is applied. The minimum is evaluated as ||x O - xstar||
    directly rather than through the trace identity
    sqrt(||x||^2 + ||xstar||^2 - 2 tr S), whose cancellation floors small
    distances at sqrt(eps) and would mask sub-1e-8 convergence.
    """
    x = np.asarray(x, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if x.shape != xstar.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xstar.shape}")
    u, _, vt = np.linalg.svd(x.T @ xstar)
    return float(np.linalg.norm(x @ (u @ vt) - xstar))


def consensus_error(stacked) -> float:
    """Frobenius norm of the stacked deviation from the mean."""
    X = np.asarray(stacked, dtype=float)
    return float(np.linalg.norm(X - np.mean(X, axis=0)))


def evaluate(stacked, inst: ProblemInstance) -> MetricRow:
    """All five metrics at the current agent variables.

    The averaged-Gram product is taken once, negated, and serves both the
    gradient and the objective f(x) = -tr(x^T mean_gram x) / 2. On the
    instances whose local gradients take the transposed products (Gram
    stacks of at least ``workers.SPLIT_GRAM_BYTES``; see
    ``workers._neg_matmul``) it is taken as (xbar^T mean_gram)^T, which
    equals mean_gram @ xbar because mean_gram is symmetric and is faster at
    d = 784; on smaller instances, as the d = 10 preset, the plain product
    is the faster one (README, "Threads").
    """
    X = np.asarray(stacked, dtype=float)
    xbar = np.mean(X, axis=0)
    if inst.grams.nbytes >= workers.SPLIT_GRAM_BYTES:
        neg_gram_x = np.negative((xbar.T @ inst.mean_gram).T, order="C")
    else:
        neg_gram_x = -(inst.mean_gram @ xbar)
    rgrad = tangent_project(xbar, neg_gram_x)
    return MetricRow(
        consensus_error=float(np.linalg.norm(X - xbar)),
        grad_norm=float(np.linalg.norm(rgrad)),
        f_gap=float(0.5 * np.sum(xbar * neg_gram_x)) - inst.f_star,
        ds=subspace_distance(xbar, inst.x_star),
        dist_mean=float(distance_to_manifold(xbar)),
    )
