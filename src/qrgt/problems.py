"""Distributed eigenvector (PCA) problem instances.

Each agent i holds a local data matrix A_i (m_i x d) and the local objective
f_i(x) = -tr(x^T A_i^T A_i x) / 2; the global objective is their average.
Local gradients carry no 1/m_i or 1/n normalization -- the tracker average
supplies the 1/n, and the step size is normalized by the total sample count
at the configuration layer.

Ground truth (the top-r right singular subspace of the stacked data and its
objective value) is solved at construction time via a d x d eigendecomposition.
An instance keeps the Grams A_i^T A_i, not the blocks. ``synthetic_blocks``
and ``mnist_blocks`` are block producers: each writes agent i's block into a
buffer ``make_instance`` hands it, and ``make_instance`` turns the block into
its Gram before the buffer takes the next agent's block. On a Gram stack
large enough for the agent split of ``workers``, the agents are built in one
chunk per CPU on the pinned pool, each chunk with its own buffer; otherwise
in one chunk on the calling thread.
"""

from __future__ import annotations

import math
import struct
import warnings
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path

import numpy as np

from . import workers
from .stiefel import ManifoldDims, _check_fields, _check_number
from .streams import STREAM_DATA, STREAM_SHUFFLE, stream_rng

__all__ = [
    "SyntheticSpec",
    "ProblemInstance",
    "IdxFormatError",
    "DegenerateGapWarning",
    "make_instance",
    "solve_ground_truth",
    "synthetic_blocks",
    "generate_synthetic",
    "mnist_blocks",
    "idx_image_size",
    "load_mnist",
]

MNIST_IMAGE_MAGIC = 0x00000803

# A block producer: fill(i, out) writes agent i's block A_i into ``out``, a
# float64 (m_i, d) array it neither keeps nor resizes.
BlockFill = Callable[[int, np.ndarray], None]


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
        _check_fields(self, counts=("n", "m"), naturals=("seed",), reals=("eigengap", "leading_sv"))
        ManifoldDims(self.d, self.r)
        if not (0.0 < self.eigengap < 1.0):
            raise ValueError(f"eigengap: must be in (0, 1), got {self.eigengap}")
        if not (self.leading_sv > 0 and math.isfinite(self.leading_sv * self.leading_sv)):
            raise ValueError(f"leading_sv: must be positive with a finite square, got {self.leading_sv}")
        if self.n * self.m < self.d:
            raise ValueError(f"m: need n*m >= d = {self.d} for full rank, got n*m = {self.n * self.m}")


@dataclass
class ProblemInstance:
    """What the engine and the metrics read of a problem: per-agent row
    counts, cached Grams and the centralized solution.

    ``grams`` is the one ``(n, d, d)`` stack of local Grams A_i^T A_i, indexed
    by agent; every local gradient is computed from it. The data blocks A_i
    themselves are not kept (see ``synthetic_blocks`` and ``mnist_blocks``).
    Each ``grams[i]`` and ``mean_gram`` equals its transpose bit for bit
    (numpy computes ``a.T @ a`` as one triangle and mirrors it), so -G x,
    with no symmetrized (G + G^T) / 2, is the gradient of -tr(x^T G x) / 2.
    """

    row_counts: tuple[int, ...]
    dims: ManifoldDims
    x_star: np.ndarray
    f_star: float
    mean_gram: np.ndarray
    grams: np.ndarray
    planted_basis: np.ndarray | None = field(default=None, repr=False)

    @property
    def n_agents(self) -> int:
        return len(self.row_counts)

    @property
    def total_rows(self) -> int:
        return sum(self.row_counts)


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


def make_instance(
    row_counts, d: int, fill: BlockFill, r: int, planted_basis: np.ndarray | None = None
) -> ProblemInstance:
    """Assemble an instance from agent i's block A_i (``row_counts[i]`` x d),
    which ``fill(i, out)`` writes into ``out``.

    Each block's Gram is written into the one preallocated ``(n, d, d)``
    stack. The agents are cut into the chunks of ``workers.agent_chunks``;
    the calling thread allocates one float64 buffer per chunk, and each
    agent of the chunk fills it in turn, so at most one block per chunk
    exists. The buffers belong to the caller, not to the worker threads: a
    block allocated on a worker stays resident in that thread's malloc arena
    after it is freed. Only the row counts, the Grams and the ground truth
    are kept.
    """
    row_counts = tuple(int(m) for m in row_counts)
    n = len(row_counts)
    if n < 1:
        raise ValueError("need at least one agent")
    dims = ManifoldDims(d, r)
    grams = np.empty((n, d, d))
    chunks = workers.agent_chunks(n, grams.nbytes)
    workers.run_chunks(
        [
            partial(_chunk_grams, fill, row_counts, grams, np.empty((max(row_counts[lo:hi]), d)), lo, hi)
            for lo, hi in chunks
        ]
    )
    gram_sum = grams.sum(axis=0)
    x_star, f_star = solve_ground_truth(gram_sum, n, r)
    return ProblemInstance(
        row_counts=row_counts,
        dims=dims,
        x_star=x_star,
        f_star=f_star,
        mean_gram=gram_sum / n,
        grams=grams,
        planted_basis=planted_basis,
    )


def _chunk_grams(
    fill: BlockFill, row_counts: tuple[int, ...], grams: np.ndarray, buf: np.ndarray, lo: int, hi: int
) -> None:
    """grams[i] = A_i^T A_i for agents lo..hi-1, each block filled into the
    first ``row_counts[i]`` rows of ``buf``."""
    for i in range(lo, hi):
        a = buf[: row_counts[i]]
        fill(i, a)
        np.matmul(a.T, a, out=grams[i])


def synthetic_blocks(spec: SyntheticSpec) -> tuple[BlockFill, np.ndarray]:
    """Gaussian data re-spectrified to the eigengap-controlled profile.

    Draws a standard Gaussian (m, d) block per agent (together the same
    values as one (n*m) x d draw, row-major), replaces the singular values
    of the stacked matrix G by leading_sv * eigengap^(i/2), and keeps each
    agent's rows. The stacked matrix is never formed: its R factor comes
    from a tall-skinny QR (the R factors of the blocks, stacked and
    factored again), and with R = U S V^T each block b becomes
    b V diag(sv / S) V^T, which is (G V S^-1) diag(sv) V^T restricted to
    the block's rows.

    Returns the producer of the n re-spectrified (m, d) blocks, each made
    when it is filled, and the planted top-r right factors (d x r).
    """
    rng = stream_rng(spec.seed, STREAM_DATA)
    raw = [rng.standard_normal((spec.m, spec.d)) for _ in range(spec.n)]
    r_factor = np.linalg.qr(np.concatenate([np.linalg.qr(b, mode="r") for b in raw]), mode="r")
    _, s, vt = np.linalg.svd(r_factor)
    sv = spec.leading_sv * spec.eigengap ** (np.arange(spec.d) / 2.0)
    respectrify = (vt.T * (sv / s)) @ vt

    def fill(i: int, out: np.ndarray) -> None:
        np.matmul(raw[i], respectrify, out=out)

    return fill, vt.T[:, : spec.r].copy()


def generate_synthetic(spec: SyntheticSpec) -> ProblemInstance:
    """Instance of ``synthetic_blocks(spec)``: n agents of m rows each, with
    the planted basis kept for recovery checks."""
    fill, planted_basis = synthetic_blocks(spec)
    return make_instance((spec.m,) * spec.n, spec.d, fill, spec.r, planted_basis=planted_basis)


def mnist_blocks(path, n: int, seed: int = 0) -> tuple[tuple[int, ...], int, BlockFill]:
    """Check an IDX3 image file and return the agents' row counts, the image
    size d = rows*cols and the producer of their blocks.

    The file must carry the big-endian magic 0x00000803 followed by the
    image count, row count, and column count, then one unsigned byte per
    pixel, and hold at least one image per agent. Rows are flattened to
    vectors of length rows*cols, shuffled with the run seed, and split
    evenly across ``n`` agents (last agent absorbs the remainder). A block
    is gathered from the file's bytes and scaled to [0, 1] into the float64
    buffer only when it is filled, so neither the shuffled bytes nor the
    float64 matrix of the whole file is ever built.
    """
    _check_number("n", n, low=1)  # before the file is read and split n ways
    raw = Path(path).read_bytes()
    count, rows, cols = _idx_header(raw, path)
    expected = 16 + count * rows * cols
    if len(raw) != expected:
        raise IdxFormatError(
            f"{path}: expected {expected} bytes for {count}x{rows}x{cols} images, "
            f"got {len(raw)} (payload starts at byte 16)"
        )
    if count < n:
        raise IdxFormatError(f"{path}: {count} images for {n} agents, need at least one per agent")
    pixels = np.frombuffer(raw, dtype=np.uint8, offset=16).reshape(count, rows * cols)
    perm = stream_rng(seed, STREAM_SHUFFLE).permutation(count)
    base = count // n
    bounds = [base * i for i in range(n)] + [count]
    spans = list(zip(bounds, bounds[1:]))
    row_counts = tuple(hi - lo for lo, hi in spans)

    def fill(i: int, out: np.ndarray) -> None:
        lo, hi = spans[i]
        np.divide(np.take(pixels, perm[lo:hi], axis=0), 255.0, out=out)

    return row_counts, rows * cols, fill


def _idx_header(raw: bytes, path) -> tuple[int, int, int]:
    """(image count, rows, cols) from the first 16 bytes of an IDX3 image file."""
    if len(raw) < 16:
        raise IdxFormatError(f"{path}: truncated header, got {len(raw)} bytes, need 16")
    magic, count, rows, cols = struct.unpack(">IIII", raw[:16])
    if magic != MNIST_IMAGE_MAGIC:
        raise IdxFormatError(
            f"{path}: bad magic 0x{magic:08x} at byte 0, expected 0x{MNIST_IMAGE_MAGIC:08x}"
        )
    return count, rows, cols


def idx_image_size(path) -> int:
    """Pixels per image (rows*cols), read from an IDX3 image file's header alone."""
    with open(path, "rb") as f:
        _, rows, cols = _idx_header(f.read(16), path)
    return rows * cols


def load_mnist(path, n: int, r: int = 5, seed: int = 0) -> ProblemInstance:
    """Instance of ``mnist_blocks(path, n, seed)``: at most one agent's
    float64 block per chunk of ``make_instance`` exists at a time, and only
    its Gram is kept."""
    return make_instance(*mnist_blocks(path, n, seed), r)

