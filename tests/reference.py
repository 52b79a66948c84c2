"""Reference formulas the tests check the package against, and the data
helpers they build instances with; no run uses them."""

import numpy as np

from qrgt import make_instance


def _gram_defect(x: np.ndarray) -> np.ndarray:
    """x^T x - I, batched over leading dimensions."""
    x = np.asarray(x, dtype=float)
    return np.swapaxes(x, -1, -2) @ x - np.eye(x.shape[-1])


def manifold_defect(x: np.ndarray) -> float:
    """Frobenius norm of x^T x - I_r (0 exactly on the manifold)."""
    return float(np.linalg.norm(_gram_defect(x)))


def penalty(x: np.ndarray) -> float:
    """Orthogonality penalty ||x^T x - I_r||_F^2, whose gradient is ``penalty_grad``."""
    return float(np.sum(_gram_defect(x) ** 2))


def local_grad(inst, agent: int, x: np.ndarray) -> np.ndarray:
    """Agent ``agent``'s Euclidean gradient -A_i^T A_i x, from its Gram."""
    return -(inst.grams[agent] @ x)


def global_objective(inst, x: np.ndarray) -> float:
    """f(x) = -sum_i tr(x^T A_i^T A_i x) / (2n)."""
    return float(-0.5 * np.sum(x * (inst.mean_gram @ x)))


def fill_from(blocks):
    """A block producer for ``make_instance`` that copies agent i's block
    from the list ``blocks``."""

    def fill(i: int, out: np.ndarray) -> None:
        out[...] = blocks[i]

    return fill


def filled_blocks(row_counts, d: int, fill) -> list[np.ndarray]:
    """Every agent's block from the producer ``fill``, each in its own
    float64 (m_i, d) array."""
    blocks = []
    for i, m in enumerate(row_counts):
        a = np.empty((m, d))
        fill(i, a)
        blocks.append(a)
    return blocks


def wide_instance(n: int = 4, m: int = 100, d: int = 784, r: int = 5, seed: int = 0):
    """An instance at the MNIST image size d = 784: n Gaussian (m, d) blocks,
    each Gram a^T a (n = 4: about 20 MB of Grams)."""
    rng = np.random.default_rng(seed)
    return make_instance((m,) * n, d, fill_from([rng.standard_normal((m, d)) for _ in range(n)]), r)
