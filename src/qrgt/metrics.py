"""Evaluation metrics for decentralized runs.

All metrics are computed at the raw Euclidean mean of the agent variables
(the sum over the agent axis divided by n, as ``np.mean`` takes it), which
generally lies off the manifold; the tangent-projection formula is applied
there as written, and the mean's ``distance_to_manifold`` is reported
alongside as a diagnostic.

A run takes its metrics a block of epochs at a time (``engine.BLOCK``).
``evaluate`` is the per-epoch half: it only copies the epoch's stacked
iterate into its slot of the block. Per block, ``agent_means`` takes the
agent means and consensus errors of the stacked iterates, in place, and
``evaluate_means`` the other four metrics at those means; a single state
is a block of one. On the d = 10 preset the cost is mostly call overhead,
so the block is worked by stacked kernels, and numpy's kernels are called
without their wrappers: a mean is the sum and the division ``np.mean``
runs, and ``_norms`` the dot product ``np.linalg.norm`` takes. A stacked
matmul, reduction or ``eigvalsh`` makes the same BLAS or LAPACK call per
slice that the single state makes, so each metric has the bits of the
one-state formula; the tests compare them.

``ds`` and ``dist_mean`` take no SVD: both read singular values from the
eigenvalues of an r x r Gram (``subspace_distance``,
``stiefel.distance_to_manifold``). Near the manifold and near x*, where a
run's means are, they agree with the SVD forms to a few eps.
"""

from __future__ import annotations

import numpy as np

from . import workers
from .problems import ProblemInstance
from .stiefel import _check_orthonormal, _gram, _sv_offsets, tangent_project

__all__ = [
    "subspace_distance",
    "consensus_error",
    "evaluate",
    "agent_means",
    "evaluate_means",
]

def subspace_distance(x: np.ndarray, xstar: np.ndarray) -> float | np.ndarray:
    """min over orthogonal O of ||x O - xstar||_F, one value per (d, r)
    slice of ``x`` against the one (d, r) ``xstar``, whose columns must be
    orthonormal (``ValueError`` when an entry of xstar^T xstar - I exceeds
    ``stiefel.ORTHONORMAL_TOL``).

    With A = xstar^T x, x splits into xstar A, in the span of xstar, and
    x - xstar A, orthogonal to it. So for every orthogonal Q,
    ||x - xstar Q||^2 = ||x - xstar A||^2 + ||A - Q||^2, and the minimum
    (O = Q^T ranges over the full orthogonal group, reflections included)
    is ||x - xstar A||^2 + sum_i (sigma_i(A) - 1)^2, the last term read
    from the eigenvalues of A^T A (``stiefel._sv_offsets``). Both terms are
    taken directly, never through the trace identity
    sqrt(||x||^2 + ||xstar||^2 - 2 tr S), whose cancellation floors small
    distances at sqrt(eps) and would mask sub-1e-8 convergence. Near a
    rotation of xstar, where every sigma_i(A) is near 1, this is the SVD
    form within a few eps; far from it, a sigma_i(A) well below 1 carries
    about eps ||A||^2 / sigma_i(A).
    """
    x = np.asarray(x, dtype=float)
    xstar = np.asarray(xstar, dtype=float)
    if xstar.ndim != 2 or x.shape[-2:] != xstar.shape:
        raise ValueError(f"shape mismatch: {x.shape} vs {xstar.shape}")
    _check_orthonormal(xstar, "xstar")
    a, rest_sq = _span_split(x, xstar)
    off = _sv_offsets(_gram(a), a.shape[-2])
    return np.sqrt(rest_sq + np.add.reduce(off * off, axis=-1))


def _span_split(x: np.ndarray, xstar: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A = xstar^T x for each (d, r) slice of x, and ||x - xstar A||_F^2,
    the squared norm of the slice's part orthogonal to xstar's span."""
    a = xstar.T @ x
    rest = x - xstar @ a
    return a, np.add.reduce((rest * rest).reshape(*rest.shape[:-2], -1), axis=-1)


def _norms(a: np.ndarray) -> np.ndarray:
    """The Frobenius norm of each slice ``a[i]`` of a C-contiguous stack,
    over all its entries: a stacked matmul of each slice as a row with
    itself as a column, which numpy takes as the BLAS dot product that
    ``np.linalg.norm`` takes of the slice."""
    flat = a.reshape(len(a), 1, -1)
    return np.sqrt(np.matmul(flat, flat.swapaxes(-1, -2))[:, 0, 0])


def consensus_error(stacked) -> float:
    """Frobenius norm of the stacked deviation from the mean."""
    return float(agent_means(np.array(stacked, dtype=float)[None])[1][0])


def evaluate(stacked: np.ndarray, out: np.ndarray) -> None:
    """The per-epoch half of the metrics: copies the stacked (n, d, r)
    agent variables into ``out``, the epoch's slot of the block that
    ``agent_means`` reads."""
    out[...] = stacked


def agent_means(states: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The agent means of a C-contiguous (k, n, d, r) stack of states, a
    (k, d, r) array, and each state's consensus error ||X - xbar||_F, a
    float64 array of length k. The mean is the sum and the division that
    ``np.mean`` runs.

    The deviations X - xbar overwrite ``states``: a run's block of iterates
    is scratch once its metrics are taken, and at the MNIST shape a
    temporary of the block's size (5 MB) made this take twice as long."""
    xbars = np.add.reduce(states, 1)
    xbars /= states.shape[1]
    states -= xbars[:, None]
    return xbars, _norms(states)


def evaluate_means(xbars: np.ndarray, inst: ProblemInstance) -> tuple[np.ndarray, ...]:
    """The four metrics at each mean of a (k, d, r) stack, in the trace's
    column order: ``grad_norm``, ``f_gap``, ``ds`` and ``dist_mean``, each
    a float64 array of length k.

    The averaged-Gram products are taken for the whole stack, negated, by
    one ``workers._neg_gram_products`` call, and serve both the gradient and
    the objective f(x) = -tr(x^T mean_gram x) / 2. ``ds`` and ``dist_mean``
    are ``subspace_distance`` and ``distance_to_manifold`` bit for bit: the
    k Grams A^T A (A = x*^T xbar) and the k Grams xbar^T xbar are stacked
    into one ``eigvalsh`` call and one ``_sv_offsets`` pass, each Gram with
    its own number of terms. x*'s orthonormality is not checked here:
    ``engine.run`` checks it once per run.
    """
    neg_gram_x = workers._neg_gram_products(inst.mean_gram, xbars)
    f_terms = xbars * neg_gram_x
    f_sums = np.add.reduce(f_terms.reshape(len(xbars), -1), axis=1)
    k, d, r = xbars.shape
    a, rest_sq = _span_split(xbars, inst.x_star)
    grams = np.empty((2, k, r, r))
    _gram(a, out=grams[0])
    _gram(xbars, out=grams[1])
    off = _sv_offsets(grams, np.array([r, d])[:, None, None])
    off_sq = np.add.reduce(off * off, axis=-1)
    return (
        _norms(tangent_project(xbars, neg_gram_x)),
        0.5 * f_sums - inst.f_star,
        np.sqrt(rest_sq + off_sq[0]),
        np.sqrt(off_sq[1]),
    )
