"""Evaluation metrics for decentralized runs.

All metrics are computed at the raw Euclidean mean of the agent variables
(``np.mean`` over the agent axis), which generally lies off the manifold;
the tangent-projection formula is applied there as written, and the mean's
``distance_to_manifold`` is reported alongside as a diagnostic.

An epoch's metrics come in two halves. ``evaluate`` takes the agent mean
and the consensus error, the one metric that needs every agent's variable;
``evaluate_means`` takes the other four from a stack of means at once. The
engine calls ``evaluate`` every epoch and ``evaluate_means`` on a block of
epochs (``engine.BLOCK``); a single state is a block of one. On the d = 10
preset their cost is mostly call overhead, so the block is worked by
stacked kernels, and numpy's kernels are called without their wrappers:
``_mean`` is the sum and the division ``np.mean`` runs, ``_norm`` the dot
product ``np.linalg.norm`` takes, and the geometry comes from the unchecked
kernels of ``stiefel``. A stacked matmul or a batched SVD makes the same
BLAS or LAPACK call per slice that the single matrix makes, so each metric
has the bits of the one-state formula; the tests compare them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import workers
from .problems import ProblemInstance
from .stiefel import _distance_to_manifold, _tangent_project

__all__ = [
    "MeanMetrics",
    "subspace_distance",
    "consensus_error",
    "evaluate",
    "evaluate_means",
]


@dataclass(frozen=True)
class MeanMetrics:
    """The metrics at a stack of k agent means: one entry per mean, each
    field a float64 array of length k."""

    grad_norm: np.ndarray
    f_gap: np.ndarray
    ds: np.ndarray
    dist_mean: np.ndarray


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
    return float(_subspace_distance(x, xstar))


def _subspace_distance(x: np.ndarray, xstar: np.ndarray) -> np.ndarray:
    """``subspace_distance`` without the argument checks, one per (d, r)
    slice of ``x``."""
    u, _, vt = np.linalg.svd(x.swapaxes(-1, -2) @ xstar)
    diff = x @ (u @ vt)
    diff -= xstar
    return _norms(diff)


def _norm(a: np.ndarray) -> float:
    """Frobenius norm: the sqrt of the one dot product ``np.linalg.norm``
    takes, over the entries in memory order."""
    flat = a.ravel(order="K")
    return math.sqrt(flat.dot(flat))


def _norms(a: np.ndarray) -> np.ndarray:
    """``_norm`` of each C-contiguous (d, r) slice of ``a``: a stacked matmul
    of each slice as a (1, d r) row with itself as a column, which numpy
    takes as the same BLAS dot product per slice."""
    flat = a.reshape(*a.shape[:-2], 1, -1)
    return np.sqrt(np.matmul(flat, flat.swapaxes(-1, -2))[..., 0, 0])


def _mean(X: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The mean over the agent axis, in the two steps of ``np.mean``,
    written into ``out`` when given."""
    xbar = np.add.reduce(X, 0, out=out)
    xbar /= X.shape[0]
    return xbar


def consensus_error(stacked) -> float:
    """Frobenius norm of the stacked deviation from the mean."""
    X = np.asarray(stacked, dtype=float)
    return evaluate(X, np.empty(X.shape[1:]))


def evaluate(stacked, xbar: np.ndarray) -> float:
    """The per-state half of the metrics: writes the agent mean of
    ``stacked`` into ``xbar``, a float64 array of one agent's shape, and
    returns the consensus error ||X - xbar||_F."""
    X = np.asarray(stacked, dtype=float)
    return _norm(X - _mean(X, xbar))


def evaluate_means(xbars: np.ndarray, inst: ProblemInstance) -> MeanMetrics:
    """The four metrics at each mean of a (k, d, r) stack.

    The averaged-Gram products are taken for the whole stack, negated, by
    one ``workers.neg_gram_products`` call, and serve both the gradient and
    the objective f(x) = -tr(x^T mean_gram x) / 2.
    """
    neg_gram_x = workers.neg_gram_products(inst.mean_gram, xbars)
    f_terms = xbars * neg_gram_x
    f_sums = np.add.reduce(f_terms.reshape(len(xbars), -1), axis=1)
    return MeanMetrics(
        grad_norm=_norms(_tangent_project(xbars, neg_gram_x)),
        f_gap=0.5 * f_sums - inst.f_star,
        ds=_subspace_distance(xbars, inst.x_star),
        dist_mean=_distance_to_manifold(xbars),
    )
