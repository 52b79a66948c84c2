"""Distributed eigenvector (PCA) problem instances.

Each agent i holds a local data matrix A_i (m_i x d) and the local objective
f_i(x) = -tr(x^T A_i^T A_i x) / 2; the global objective is their average.
Local gradients carry no 1/m_i or 1/n normalization -- the tracker average
supplies the 1/n, and the step size is normalized by the total sample count
at the configuration layer.

Ground truth (the top-r right singular subspace of the stacked data and its
objective value) is solved at construction time via a d x d eigendecomposition.
"""

from __future__ import annotations

import struct
import warnings
from dataclasses import dataclass, field

import numpy as np

from .stiefel import ManifoldDims, SmoothnessConstants
from .streams import STREAM_DATA, STREAM_SHUFFLE, stream_rng

__all__ = [
    "SyntheticSpec",
    "ProblemInstance",
    "IdxFormatError",
    "DegenerateGapWarning",
    "make_instance",
    "local_euclidean_grad",
    "global_objective",
    "solve_ground_truth",
    "generate_synthetic",
    "load_mnist",
    "estimate_smoothness",
]

MNIST_IMAGE_MAGIC = 0x00000803


class IdxFormatError(ValueError):
    """Malformed IDX image file."""


class DegenerateGapWarning(UserWarning):
    """Spectral gap at rank r vanishes: the optimal subspace is not unique."""


@dataclass(frozen=True)
class SyntheticSpec:
    """Eigengap-controlled synthetic data: n agents, m rows each, dimension d.

    The stacked matrix gets singular values leading_sv * eigengap^(i/2) for
    i = 0..d-1, so consecutive ratios are sqrt(eigengap).
    """

    n: int
    m: int
    d: int
    r: int
    eigengap: float
    leading_sv: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.eigengap < 1.0):
            raise ValueError(f"eigengap must be in (0, 1), got {self.eigengap}")
        if self.n < 1 or self.m < 1:
            raise ValueError("n and m must be positive")
        if self.n * self.m < self.d:
            raise ValueError(
                f"need n*m >= d for full rank, got {self.n * self.m} < {self.d}"
            )
        if self.leading_sv <= 0:
            raise ValueError("leading_sv must be positive")
        ManifoldDims(self.d, self.r)


@dataclass
class ProblemInstance:
    """Per-agent data plus cached Grams and the centralized solution.

    ``grams`` is the one ``(n, d, d)`` stack of local Grams A_i^T A_i, indexed
    by agent; every local gradient is computed from it.
    """

    local_data: tuple[np.ndarray, ...]
    dims: ManifoldDims
    x_star: np.ndarray
    f_star: float
    mean_gram: np.ndarray
    grams: np.ndarray
    planted_basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_agents(self) -> int:
        return len(self.local_data)

    @property
    def total_rows(self) -> int:
        return sum(a.shape[0] for a in self.local_data)


def solve_ground_truth(gram_sum: np.ndarray, n: int, r: int) -> tuple[np.ndarray, float]:
    """Top-r eigenspace of the summed Gram sum_i A_i^T A_i (the top-r right
    singular subspace of the stacked data of ``n`` agents) and its objective.

    Warns when the spectral gap at rank r is degenerate (the subspace, and
    hence any distance to it, is then defined only up to the gap).
    """
    d = gram_sum.shape[0]
    eigvals, eigvecs = np.linalg.eigh(gram_sum)
    order = np.argsort(eigvals)[::-1]
    eigvals = eigvals[order]
    if r < d and eigvals[r - 1] - eigvals[r] <= 1e-12 * max(1.0, eigvals[0]):
        warnings.warn(
            "spectral gap at rank r is degenerate: optimal subspace not unique",
            DegenerateGapWarning,
            stacklevel=2,
        )
    x_star = eigvecs[:, order[:r]]
    f_star = float(-0.5 * eigvals[:r].sum() / n)
    return x_star, f_star


def make_instance(local_data, r: int, planted_basis: np.ndarray | None = None) -> ProblemInstance:
    """Assemble an instance: cache Grams, solve ground truth."""
    local_data = tuple(np.asarray(a, dtype=float) for a in local_data)
    d = local_data[0].shape[1]
    if any(a.shape[1] != d for a in local_data):
        raise ValueError("all agents must share the same column dimension")
    n = len(local_data)
    grams = np.empty((n, d, d))
    for a, gram in zip(local_data, grams):
        np.matmul(a.T, a, out=gram)
    gram_sum = grams.sum(axis=0)
    x_star, f_star = solve_ground_truth(gram_sum, n, r)
    return ProblemInstance(
        local_data=local_data,
        dims=ManifoldDims(d, r),
        x_star=x_star,
        f_star=f_star,
        mean_gram=gram_sum / n,
        grams=grams,
        planted_basis=planted_basis,
    )


def local_euclidean_grad(inst: ProblemInstance, agent: int, x: np.ndarray) -> np.ndarray:
    """Euclidean gradient of f_i at x: -A_i^T (A_i x)."""
    if not (0 <= agent < inst.n_agents):
        raise IndexError(f"agent {agent} out of range for n={inst.n_agents}")
    return -(inst.grams[agent] @ x)


def global_objective(inst: ProblemInstance, x: np.ndarray) -> float:
    """f(x) = -sum_i tr(x^T A_i^T A_i x) / (2n)."""
    return float(-0.5 * np.sum(x * (inst.mean_gram @ x)))


def generate_synthetic(spec: SyntheticSpec) -> ProblemInstance:
    """Gaussian data re-spectrified to the eigengap-controlled profile.

    Draws an (n*m) x d standard Gaussian matrix, replaces its singular
    values by leading_sv * eigengap^(i/2), and splits the rows evenly
    across agents. The planted top-r right factors are kept on the instance
    for recovery checks.
    """
    rng = stream_rng(spec.seed, STREAM_DATA)
    g = rng.standard_normal((spec.n * spec.m, spec.d))
    u, _, vt = np.linalg.svd(g, full_matrices=False)
    sv = spec.leading_sv * spec.eigengap ** (np.arange(spec.d) / 2.0)
    a = (u * sv) @ vt
    blocks = tuple(a[i * spec.m : (i + 1) * spec.m] for i in range(spec.n))
    return make_instance(blocks, spec.r, planted_basis=vt.T[:, : spec.r].copy())


def _split_rows(data: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Even split; the last agent absorbs the remainder."""
    base = data.shape[0] // n
    bounds = [base * i for i in range(n)] + [data.shape[0]]
    return tuple(data[bounds[i] : bounds[i + 1]] for i in range(n))


def load_mnist(path, n: int, r: int = 5, seed: int = 0) -> ProblemInstance:
    """Load an IDX3 image file, scale to [0, 1], shuffle, and partition.

    The file must carry the big-endian magic 0x00000803 followed by the
    image count, row count, and column count, then one unsigned byte per
    pixel. Rows are flattened to vectors of length rows*cols, shuffled with
    the run seed, and split evenly across ``n`` agents (last agent absorbs
    the remainder).
    """
    raw = open(path, "rb").read()
    if len(raw) < 16:
        raise IdxFormatError(f"{path}: truncated header, got {len(raw)} bytes, need 16")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != MNIST_IMAGE_MAGIC:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{MNIST_IMAGE_MAGIC:08x}"
        )
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise IdxFormatError(
            f"{path}: expected {expected} bytes for {count}x{rows}x{cols} images, "
            f"got {len(raw)} (payload starts at byte 16)"
        )
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    perm = stream_rng(seed, STREAM_SHUFFLE).permutation(count)
    # Shuffle the bytes, then convert once: the agents' blocks are views of
    # this one float64 array.
    data = np.divide(pixels[perm], 255.0, dtype=float)
    return make_instance(_split_rows(data, n), r)


def estimate_smoothness(inst: ProblemInstance) -> SmoothnessConstants:
    """Data-driven Lipschitz constants for the eigenvector objective.

    L is the top eigenvalue of the averaged Gram (the Lipschitz constant of
    the global Euclidean gradient). L_f bounds max_i ||grad f_i|| over the
    manifold: for x with orthonormal columns, ||G x||_F^2 is at most the sum
    of the top-r squared eigenvalues of G. The proximal radius is 1.
    """
    L = float(np.linalg.eigvalsh(inst.mean_gram)[-1])
    top = np.linalg.eigvalsh(inst.grams)[:, -inst.dims.r :]
    L_f = float(np.sqrt(np.sum(top**2, axis=1)).max())
    return SmoothnessConstants(L=L, L_f=L_f)
