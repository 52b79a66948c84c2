"""Geometry of the Stiefel manifold St(d, r) embedded in R^{d x r}.

Points and tangent vectors are plain (d, r) float arrays. Quantized
iterates are allowed to drift off the manifold, so every operation accepts
arbitrary (d, r) matrices and applies its formula as written; use
``manifold_defect`` / ``is_on_manifold`` to check feasibility explicitly.

``tangent_project``, ``riemannian_grad``, ``penalty_grad``,
``landing_field`` and ``retract`` broadcast over leading batch dimensions,
so a stacked (n, d, r) array of agent variables is processed in one call.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

ON_MANIFOLD_TOL = 1e-8

__all__ = [
    "ON_MANIFOLD_TOL",
    "ManifoldDims",
    "SmoothnessConstants",
    "RetractionError",
    "DegenerateProjectionWarning",
    "manifold_defect",
    "is_on_manifold",
    "tangent_project",
    "riemannian_grad",
    "distance_to_manifold",
    "penalty",
    "penalty_grad",
    "retract",
    "landing_field",
    "random_stiefel",
]


class RetractionError(RuntimeError):
    """QR retraction received a numerically rank-deficient argument."""


class DegenerateProjectionWarning(UserWarning):
    """Nearest manifold point is not unique (rank-deficient input)."""


@dataclass(frozen=True)
class ManifoldDims:
    """Shape of St(d, r) plus its proximal-smoothness radius.

    The radius is 1 for the Stiefel manifold (and would be 1/sqrt(2) for the
    Grassmann variant, which is out of scope here).
    """

    d: int
    r: int
    proximal_radius: float = 1.0

    def __post_init__(self) -> None:
        if not (1 <= self.r <= self.d):
            raise ValueError(f"need 1 <= r <= d, got d={self.d}, r={self.r}")
        if self.proximal_radius <= 0:
            raise ValueError("proximal_radius must be positive")


@dataclass(frozen=True)
class SmoothnessConstants:
    """Lipschitz-type constants of the objective on and near the manifold.

    ``L`` is the Euclidean Lipschitz constant of the gradient, ``L_f`` the
    normal-component bound (max gradient norm on the manifold divided by the
    proximal radius). Their sum ``L_g`` bounds smoothness along the manifold;
    ``L_m`` extends it to the off-manifold region the quantized iterates live
    in and defaults to ``L_g``. ``landing_weight`` scales the penalty term of
    the reference landing field.
    """

    L: float
    L_f: float
    L_m: float | None = None
    landing_weight: float = 1.0

    def __post_init__(self) -> None:
        if self.L <= 0 or self.L_f <= 0:
            raise ValueError("L and L_f must be positive")
        if self.L_m is None:
            object.__setattr__(self, "L_m", self.L_g)
        elif self.L_m < self.L_g * (1 - 1e-12):
            raise ValueError(f"L_m={self.L_m} must be >= L_g={self.L_g}")

    @property
    def L_g(self) -> float:
        return self.L + self.L_f


def _check_matrix(x: np.ndarray, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError(f"{name} must be at least 2-dimensional, got shape {x.shape}")
    return x


def _gram_defect(x: np.ndarray) -> np.ndarray:
    """x^T x - I, batched over leading dimensions."""
    xt = np.swapaxes(x, -1, -2)
    return xt @ x - np.eye(x.shape[-1])


def manifold_defect(x: np.ndarray) -> float:
    """Frobenius norm of x^T x - I_r (0 exactly on the manifold)."""
    return float(np.linalg.norm(_gram_defect(_check_matrix(x, "x"))))


def is_on_manifold(x: np.ndarray, tol: float = ON_MANIFOLD_TOL) -> bool:
    return manifold_defect(x) <= tol


def tangent_project(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of y onto the tangent space at x.

    Computes y - x (x^T y + y^T x) / 2, applied as written even when x is
    off the manifold.
    """
    x = _check_matrix(x, "x")
    y = _check_matrix(y, "y")
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    xt = np.swapaxes(x, -1, -2)
    yt = np.swapaxes(y, -1, -2)
    sym = xt @ y + yt @ x
    return y - 0.5 * (x @ sym)


def riemannian_grad(x: np.ndarray, egrad: np.ndarray) -> np.ndarray:
    """Riemannian gradient: tangent projection of the Euclidean gradient."""
    return tangent_project(x, egrad)


def distance_to_manifold(x: np.ndarray) -> float:
    """Frobenius distance from x to St(d, r).

    Equals sqrt(sum_i (sigma_i - 1)^2) over the singular values of x; the
    nearest manifold point is the polar factor. A rank-deficient x still
    gets a value, with a warning because the nearest point is not unique.
    """
    x = _check_matrix(x, "x")
    s = np.linalg.svd(x, compute_uv=False)
    if s.min() <= 1e-12 * max(1.0, s.max()):
        warnings.warn(
            "rank-deficient input: nearest Stiefel point is not unique",
            DegenerateProjectionWarning,
            stacklevel=2,
        )
    return float(np.sqrt(np.sum((s - 1.0) ** 2)))


def penalty(x: np.ndarray) -> float:
    """Orthogonality penalty ||x^T x - I_r||_F^2."""
    return float(np.sum(_gram_defect(_check_matrix(x, "x")) ** 2))


def penalty_grad(x: np.ndarray) -> np.ndarray:
    """Gradient of the orthogonality penalty: 4 x (x^T x - I_r)."""
    x = _check_matrix(x, "x")
    return 4.0 * (x @ _gram_defect(x))


def landing_field(
    x: np.ndarray, egrad: np.ndarray, consts: SmoothnessConstants
) -> np.ndarray:
    """Riemannian gradient plus the weighted penalty pull toward the manifold.

    This is the deterministic field the direction-biased quantizer emulates;
    it is used only as a reference in tests and diagnostics.
    """
    return riemannian_grad(x, egrad) + consts.landing_weight * penalty_grad(x)


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


def retract(x: np.ndarray, xi: np.ndarray, method: str = "qr") -> np.ndarray:
    """Map the tangent step xi at x back onto the manifold.

    Both variants satisfy retract(x, 0) = x and agree with x + xi to first
    order. ``qr`` takes the sign-fixed Q factor of x + xi, ``polar`` its
    orthogonal polar factor. Stacked (..., d, r) input is retracted slice by
    slice in one LAPACK call.
    """
    x = _check_matrix(x, "x")
    xi = _check_matrix(xi, "xi")
    if x.shape != xi.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, xi is {xi.shape}")
    if method == "qr":
        return _qr_positive(x + xi)
    if method == "polar":
        u, _, vt = np.linalg.svd(x + xi, full_matrices=False)
        return u @ vt
    raise ValueError(f"unknown retraction method {method!r}")


def random_stiefel(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random point on St(d, r): QR-orthonormalized Gaussian matrix."""
    return _qr_positive(rng.standard_normal((d, r)))
