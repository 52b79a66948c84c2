"""Geometry of the Stiefel manifold St(d, r) embedded in R^{d x r}.

Points and tangent vectors are plain (d, r) float arrays. Quantized
iterates are allowed to drift off the manifold, so every operation accepts
arbitrary (d, r) matrices and applies its formula as written;
``distance_to_manifold`` measures how far they drift.

``tangent_project`` (which maps a Euclidean gradient to the Riemannian
one), ``penalty_grad``, ``distance_to_manifold`` and ``retract`` broadcast
over leading batch dimensions, so a stacked (n, d, r) array of agent
variables is processed in one call.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

__all__ = [
    "ManifoldDims",
    "SmoothnessConstants",
    "RetractionError",
    "tangent_project",
    "distance_to_manifold",
    "penalty_grad",
    "retract",
    "random_stiefel",
]


class RetractionError(RuntimeError):
    """QR retraction received a numerically rank-deficient argument."""


@dataclass(frozen=True)
class ManifoldDims:
    """Shape of St(d, r)."""

    d: int
    r: int

    def __post_init__(self) -> None:
        if not (1 <= self.r <= self.d):
            raise ValueError(f"need 1 <= r <= d, got d={self.d}, r={self.r}")


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz-type constants of the objective on and near the manifold.

    ``L`` is the Euclidean Lipschitz constant of the gradient, ``L_f`` the
    normal-component bound (max gradient norm on the manifold divided by the
    proximal radius). Their sum ``L_g`` bounds smoothness along the manifold
    and sets the step-size bounds.
    """

    L: float
    L_f: float

    def __post_init__(self) -> None:
        if self.L <= 0 or self.L_f <= 0:
            raise ValueError("L and L_f must be positive")

    @property
    def L_g(self) -> float:
        return self.L + self.L_f


def _check_matrix(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError(f"{name} must be at least 2-dimensional, got shape {x.shape}")
    return x


@cache
def _eye(r: int) -> np.ndarray:
    """The r x r identity, made once per r and read-only."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def tangent_project(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of y onto the tangent space at x.

    Computes y - x (x^T y + y^T x) / 2, applied as written even when x is
    off the manifold. Takes the one product M = x^T y and uses M + M^T for
    x^T y + y^T x; y^T x came out bit-equal to M^T on OpenBLAS, which the
    tests check.
    """
    x = _check_matrix(x, "x")
    y = _check_matrix(y, "y")
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    m = x.swapaxes(-1, -2) @ y
    out = x @ (m + m.swapaxes(-1, -2))
    out *= 0.5
    return np.subtract(y, out, out=out)


def distance_to_manifold(x: np.ndarray) -> float | np.ndarray:
    """Frobenius distance from x to St(d, r), one per (d, r) slice.

    Equals sqrt(sum_i (sigma_i - 1)^2) over the singular values of x; the
    nearest manifold point is the polar factor (not unique when x is
    rank-deficient, though the distance is).
    """
    sv = np.linalg.svd(_check_matrix(x, "x"), compute_uv=False)
    sv -= 1.0
    return np.sqrt(np.add.reduce(sv * sv, axis=-1))


def penalty_grad(x: np.ndarray) -> np.ndarray:
    """Gradient of the orthogonality penalty: 4 x (x^T x - I_r)."""
    x = _check_matrix(x, "x")
    defect = x.swapaxes(-1, -2) @ x
    defect -= _eye(x.shape[-1])
    out = x @ defect
    out *= 4.0
    return out


def _qr_positive(a: np.ndarray) -> np.ndarray:
    """Q factor with the sign convention diag(R) > 0, for reproducibility.

    Batched over leading dimensions; raises ``RetractionError`` if any
    (d, r) slice is numerically rank-deficient, naming the first such slice
    of a stack. A slice holding NaN passes the check and yields NaN.
    """
    q, r = np.linalg.qr(a)
    rdiag = np.diagonal(r, axis1=-2, axis2=-1)
    diag = np.abs(rdiag)
    big = diag.max(axis=-1)
    tol = np.finfo(float).eps * max(a.shape[-2:]) * big
    deficient = (big == 0.0) | (diag.min(axis=-1) <= tol)
    if deficient.any():
        if a.ndim == 2:
            raise RetractionError("QR retraction failed: argument is numerically rank-deficient")
        first = np.unravel_index(np.argmax(deficient), deficient.shape)
        where = ", ".join(str(int(i)) for i in first)
        raise RetractionError(f"QR retraction failed: slice {where} is numerically rank-deficient")
    return q * np.sign(rdiag)[..., None, :]


def retract(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Map the tangent step xi at x back onto the manifold.

    Takes the sign-fixed Q factor of x + xi, so retract(x, 0) = x and the
    result agrees with x + xi to first order. Stacked (..., d, r) input is
    retracted slice by slice in one LAPACK call.
    """
    x = _check_matrix(x, "x")
    xi = _check_matrix(xi, "xi")
    if x.shape != xi.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, xi is {xi.shape}")
    return _qr_positive(x + xi)


def random_stiefel(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random point on St(d, r): QR-orthonormalized Gaussian matrix."""
    return _qr_positive(rng.standard_normal((d, r)))
