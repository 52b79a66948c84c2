"""Communication topologies and Metropolis mixing matrices.

A topology is an undirected connected graph over the agents. Mixing weights
follow the Metropolis rule W_ij = 1 / (1 + max(deg_i, deg_j)) on edges, with
the diagonal absorbing the remainder, which yields a symmetric doubly
stochastic matrix whose second-largest singular value sigma_2 lies in [0, 1)
on connected graphs. Consensus applies W^t (cached) to the stacked agent
variables. For t > 1, W^t is taken as J + (W - J)^t with J = 11^T / n: the
deflated power decays as sigma_2^t, so its rounding does not build up, and
the row and column sums stay those of J for any t, where a plain power of
W loses them in proportion to t. At t = 1, W^t is W itself.
"""

from __future__ import annotations

import logging
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .workers import SMALL_GEMM, panels

log = logging.getLogger(__name__)

__all__ = [
    "GraphError",
    "UniformMixingWarning",
    "Topology",
    "MixingMatrix",
    "build_metropolis",
    "second_singular_value",
    "mix",
]

_ER_MAX_ATTEMPTS = 1000


class GraphError(ValueError):
    """Invalid or disconnected communication graph."""


class UniformMixingWarning(UserWarning):
    """sigma_2 = 0: mixing is exact one-shot averaging (complete graph)."""


def _read_utf8(path: str | Path, error: type[ValueError]) -> str:
    """The text of the file at ``path``; ``error`` names the file and the
    byte offset when it is not UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text at byte {exc.start}") from None


def _is_connected(n: int, edges: frozenset[tuple[int, int]]) -> bool:
    adj: list[list[int]] = [[] for _ in range(n)]
    for i, j in edges:
        adj[i].append(j)
        adj[j].append(i)
    seen = {0}
    stack = [0]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == n


def _check_agent_count(n: int) -> None:
    if n < 2:
        raise GraphError(f"n: need at least 2 agents, got {n}")


def _check_edge_probability(p: float) -> None:
    if not (0.0 < p <= 1.0):
        raise GraphError(f"edge probability must be in (0, 1], got {p}")


def _canonical_edges(n: int, pairs) -> frozenset[tuple[int, int]]:
    _check_agent_count(n)  # first: a ring of one agent is the self-loop (0, 0)
    edges = set()
    for i, j in pairs:
        i, j = int(i), int(j)
        if i == j:
            raise GraphError(f"self-loop on agent {i}")
        if not (0 <= i < n and 0 <= j < n):
            raise GraphError(f"edge ({i}, {j}) out of range for n={n}")
        edges.add((min(i, j), max(i, j)))
    return frozenset(edges)


@dataclass(frozen=True)
class Topology:
    """Connected undirected graph over ``n`` agents."""

    n: int
    edges: frozenset[tuple[int, int]]
    resamples: int = 0

    def __post_init__(self) -> None:
        _check_agent_count(self.n)
        if not _is_connected(self.n, self.edges):
            raise GraphError("graph is not connected")

    @property
    def degrees(self) -> np.ndarray:
        deg = np.zeros(self.n, dtype=int)
        for i, j in self.edges:
            deg[i] += 1
            deg[j] += 1
        return deg

    @classmethod
    def ring(cls, n: int) -> "Topology":
        pairs = {(i, (i + 1) % n) for i in range(n)}
        return cls(n, _canonical_edges(n, pairs))

    @classmethod
    def complete(cls, n: int) -> "Topology":
        pairs = {(i, j) for i in range(n) for j in range(i + 1, n)}
        return cls(n, _canonical_edges(n, pairs))

    @classmethod
    def erdos_renyi(cls, n: int, p: float, seed: int) -> "Topology":
        """Connected G(n, p); resamples with incremented seed until connected."""
        _check_agent_count(n)
        _check_edge_probability(p)
        for attempt in range(_ER_MAX_ATTEMPTS):
            rng = np.random.default_rng(seed + attempt)
            mask = rng.random((n, n)) < p
            pairs = {(i, j) for i in range(n) for j in range(i + 1, n) if mask[i, j]}
            edges = _canonical_edges(n, pairs)
            if _is_connected(n, edges):
                if attempt:
                    log.info("Erdos-Renyi graph resampled %d times before connecting", attempt)
                return cls(n, edges, resamples=attempt)
        raise GraphError(
            f"no connected Erdos-Renyi draw in {_ER_MAX_ATTEMPTS} attempts (n={n}, p={p})"
        )

    @classmethod
    def from_edges(cls, n: int, pairs) -> "Topology":
        return cls(n, _canonical_edges(n, pairs))

    @classmethod
    def from_edge_file(cls, path: str | Path, n: int | None = None) -> "Topology":
        """Read one '<i> <j>' pair per line, 0-indexed; blank lines ignored."""
        pairs = []
        for lineno, line in enumerate(_read_utf8(path, GraphError).splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                i, j = (int(token) for token in line.split())
            except ValueError:  # a token that is no integer, or not two tokens
                raise GraphError(f"{path}:{lineno}: expected 'i j', got {line!r}") from None
            pairs.append((i, j))
        if n is None:
            if not pairs:
                raise GraphError(f"{path}: no edges")
            n = max(max(i, j) for i, j in pairs) + 1
        return cls.from_edges(n, pairs)


@dataclass(frozen=True)
class MixingMatrix:
    """Symmetric doubly stochastic weights with cached t-th power."""

    W: np.ndarray
    sigma2: float
    W_t: np.ndarray

    @property
    def n(self) -> int:
        return self.W.shape[0]


def second_singular_value(W: np.ndarray) -> float:
    """Second largest singular value of a symmetric doubly stochastic W."""
    W = np.asarray(W, dtype=float)
    if W.ndim != 2 or W.shape[0] != W.shape[1] or W.size == 0:
        raise ValueError(f"W must be a nonempty square matrix, got shape {W.shape}")
    scale = max(1.0, float(np.abs(W).max()))
    if np.abs(W - W.T).max() > 1e-12 * scale:
        raise ValueError("W must be symmetric")
    if np.abs(W.sum(axis=1) - 1.0).max() > 1e-12 * W.shape[0]:
        raise ValueError("rows of W must sum to 1")
    if W.min() < -1e-12:
        raise ValueError("W must be entrywise nonnegative")
    singulars = np.sort(np.abs(np.linalg.eigvalsh(W)))[::-1]
    return float(singulars[1])


def build_metropolis(topology: Topology, t: int = 1) -> MixingMatrix:
    """Metropolis weights for a connected topology, with W^t precomputed."""
    if t < 1:
        raise ValueError(f"t: must be >= 1, got {t}")
    n = topology.n
    deg = topology.degrees
    W = np.zeros((n, n))
    for i, j in topology.edges:
        W[i, j] = W[j, i] = 1.0 / (1.0 + max(deg[i], deg[j]))
    np.fill_diagonal(W, 1.0 - W.sum(axis=1))
    sigma2 = second_singular_value(W)
    if sigma2 <= 1e-13:
        warnings.warn(
            "sigma_2 = 0 (uniform weights): consensus is exact in one step",
            UniformMixingWarning,
            stacklevel=2,
        )
    if t == 1:
        W_t = W
    else:
        J = np.full((n, n), 1.0 / n)
        W_t = J + np.linalg.matrix_power(W - J, t)
    return MixingMatrix(W=W, sigma2=sigma2, W_t=W_t)


def mix(mixing: MixingMatrix, stacked) -> np.ndarray:
    """Apply W^t across agents: out_i = sum_j (W^t)_ij stacked_j.

    ``stacked`` is an (n, ...) array or a length-n sequence of equal-shape
    arrays; the result is the stacked (n, ...) array, by ``_mix`` after the
    checks.
    """
    X = np.asarray(stacked, dtype=float)
    if X.shape[:1] != (mixing.n,):
        raise ValueError(f"stacked: expected {mixing.n} stacked blocks, got shape {X.shape}")
    return _mix(mixing.W_t, X)


def _mix(W_t: np.ndarray, X: np.ndarray) -> np.ndarray:
    """The kernel of ``mix``, unchecked: W_t @ X over the leading axis of a
    float (n, ...) array X. The product W^t @ (n, m) is one GEMM when its
    M N K = n n m is at most ``workers.SMALL_GEMM``, and otherwise is cut by
    columns into ``workers.panels``, one GEMM each, that OpenBLAS's unpacked
    kernel takes (at n = 16, up to 3906 columns)."""
    n = len(W_t)
    flat = X.reshape(n, -1)
    if n * flat.size <= SMALL_GEMM:
        return np.matmul(W_t, flat).reshape(X.shape)
    out = np.empty(flat.shape)
    for lo, hi in panels(flat.shape[1], n * n):
        np.matmul(W_t, flat[:, lo:hi], out=out[:, lo:hi])
    return out.reshape(X.shape)
