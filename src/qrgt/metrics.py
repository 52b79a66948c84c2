"""Evaluation metrics for decentralized runs.

All metrics are computed at the raw Euclidean mean of the agent variables,
which generally lies off the manifold; the tangent-projection formula is
applied there as written, and the mean's distance to the manifold is
reported alongside as a diagnostic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .problems import ProblemInstance, global_objective
from .stiefel import tangent_project

__all__ = [
    "MetricRow",
    "mean_point",
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


def mean_point(stacked) -> np.ndarray:
    """Arithmetic mean of the agent variables (not projected to the manifold)."""
    return np.mean(np.asarray(stacked, dtype=float), axis=0)


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
    return float(np.linalg.norm(X - mean_point(X)))


def evaluate(stacked, inst: ProblemInstance) -> MetricRow:
    """All five metrics at the current agent variables."""
    X = np.asarray(stacked, dtype=float)
    xbar = np.mean(X, axis=0)
    rgrad = tangent_project(xbar, -(inst.mean_gram @ xbar))
    sv = np.linalg.svd(xbar, compute_uv=False)
    return MetricRow(
        consensus_error=float(np.linalg.norm(X - xbar)),
        grad_norm=float(np.linalg.norm(rgrad)),
        f_gap=global_objective(inst, xbar) - inst.f_star,
        ds=subspace_distance(xbar, inst.x_star),
        dist_mean=float(np.sqrt(np.sum((sv - 1.0) ** 2))),
    )
