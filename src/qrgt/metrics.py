"""Evaluation metrics for decentralized runs.

All metrics are computed at the raw Euclidean mean of the agent variables
(``np.mean`` over the agent axis), which generally lies off the manifold;
the tangent-projection formula is applied there as written, and the mean's
``distance_to_manifold`` is reported alongside as a diagnostic.

``evaluate`` runs once per epoch, and on the d = 10 preset its cost is
mostly call overhead, so it calls numpy's kernels without their wrappers:
``_mean`` is the sum and the division ``np.mean`` runs, ``_norm`` the dot
product ``np.linalg.norm`` takes, and the geometry comes from the unchecked
kernels of ``stiefel``. Each gives the wrapped call's bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .problems import ProblemInstance
from .stiefel import _distance_to_manifold, _tangent_project

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
    return _subspace_distance(x, xstar)


def _subspace_distance(x: np.ndarray, xstar: np.ndarray) -> float:
    """``subspace_distance`` without the argument checks."""
    u, _, vt = np.linalg.svd(x.T @ xstar)
    diff = x @ (u @ vt)
    diff -= xstar
    return _norm(diff)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm: the sqrt of the one dot product ``np.linalg.norm``
    takes, over the entries in memory order."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _mean(X: np.ndarray) -> np.ndarray:
    """The mean over the agent axis, in the two steps of ``np.mean``."""
    xbar = np.add.reduce(X, 0)
    xbar /= X.shape[0]
    return xbar


def consensus_error(stacked) -> float:
    """Frobenius norm of the stacked deviation from the mean."""
    X = np.asarray(stacked, dtype=float)
    return _norm(X - _mean(X))


def evaluate(stacked, inst: ProblemInstance) -> MetricRow:
    """All five metrics at the current agent variables.

    The averaged-Gram product is taken once, negated, by
    ``workers.neg_gram_products``, and serves both the gradient and the
    objective f(x) = -tr(x^T mean_gram x) / 2.
    """
    X = np.asarray(stacked, dtype=float)
    xbar = _mean(X)
    neg_gram_x = workers.neg_gram_products(inst.mean_gram, xbar)
    f_terms = xbar * neg_gram_x
    return MetricRow(
        consensus_error=_norm(X - xbar),
        grad_norm=_norm(_tangent_project(xbar, neg_gram_x)),
        f_gap=0.5 * float(np.add.reduce(f_terms, axis=None)) - inst.f_star,
        ds=_subspace_distance(xbar, inst.x_star),
        dist_mean=float(_distance_to_manifold(xbar)),
    )
