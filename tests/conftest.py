import numpy as np
import pytest

from qrgt import agent_means, evaluate_means, random_stiefel, tangent_project, workers


@pytest.fixture
def rng():
    return np.random.default_rng(20240611)


@pytest.fixture
def split_forced(monkeypatch):
    """Split the per-agent work on any Gram stack, over two threads unless a
    test patches workers._THREADS further; a pool made here is shut down
    afterwards."""
    monkeypatch.setattr(workers, "SPLIT_GRAM_BYTES", 0)
    monkeypatch.setattr(workers, "_THREADS", 2)
    monkeypatch.setattr(workers, "_pool", None)
    yield
    if workers._pool is not None:
        workers._pool.shutdown(wait=True)


def random_tangent(x: np.ndarray, rng: np.random.Generator, norm: float = 1.0) -> np.ndarray:
    """Random tangent vector at x with the requested Frobenius norm."""
    xi = tangent_project(x, rng.standard_normal(x.shape))
    return xi * (norm / np.linalg.norm(xi))


def stiefel_points(d: int, r: int, count: int, seed: int = 0):
    rng = np.random.default_rng(seed)
    return [random_stiefel(d, r, rng) for _ in range(count)]


def evaluate_state(X: np.ndarray, inst):
    """(consensus_error, grad_norm, f_gap, ds, dist_mean) of one stacked
    state: a block of one of ``agent_means`` and ``evaluate_means``."""
    xbars, consensus = agent_means(np.array(X, dtype=float)[None])
    return float(consensus[0]), *(float(v[0]) for v in evaluate_means(xbars, inst))
