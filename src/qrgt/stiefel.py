"""Geometry of the Stiefel manifold St(d, r) embedded in R^{d x r}.

Points and tangent vectors are plain (d, r) float arrays. Quantized
iterates are allowed to drift off the manifold, so every operation accepts
arbitrary (d, r) matrices and applies its formula as written;
``distance_to_manifold`` measures how far they drift.

``tangent_project`` (which maps a Euclidean gradient to the Riemannian
one), ``penalty_grad``, ``distance_to_manifold`` and ``retract`` broadcast
over leading batch dimensions, so a stacked (n, d, r) array of agent
variables is processed in one call. No function here takes an SVD:
``distance_to_manifold`` reads the singular values from the eigenvalues of
the r x r Gram x^T x, and ``retract`` takes the QR factor Q of x + xi from
one batched Cholesky factorization of a 2r x 2r matrix built on that Gram,
with Householder QR only for the slices whose conditioning it cannot
certify. ``random_stiefel`` is Householder QR.

``tangent_project``, ``penalty_grad`` and ``retract`` check their input
and then call their unchecked kernels ``_tangent_project``,
``_penalty_quarter`` (a quarter of the gradient) and ``_retract``, the one
implementation of each formula; the engine calls the kernels directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from numbers import Integral, Real

import numpy as np

__all__ = [
    "ManifoldDims",
    "RetractionError",
    "tangent_project",
    "distance_to_manifold",
    "penalty_grad",
    "retract",
    "random_stiefel",
]


class RetractionError(RuntimeError):
    """QR retraction received a numerically rank-deficient argument."""


def _check_number(name: str, value, real: bool = False, low: int | None = None, error=ValueError) -> None:
    """``error`` naming ``name`` unless ``value`` is an integer, or a real
    number if ``real`` (never a bool), and at least ``low`` if given."""
    kind, word = (Real, "a real number") if real else (Integral, "an integer")
    if isinstance(value, bool) or not isinstance(value, kind):
        raise error(f"{name}: must be {word}, got {value!r}")
    if low is not None and value < low:
        raise error(f"{name}: must be >= {low}, got {value}")


def _check_fields(spec, counts=(), integers=(), naturals=(), reals=()) -> None:
    """``_check_number`` on each named field of ``spec``: an integer for
    ``counts`` (at least 1), ``naturals`` (at least 0) and ``integers``,
    and a real number for ``reals``."""
    for name in (*counts, *integers, *naturals, *reals):
        low = 1 if name in counts else 0 if name in naturals else None
        _check_number(name, getattr(spec, name), real=name in reals, low=low)


@dataclass(frozen=True)
class ManifoldDims:
    """Shape of St(d, r)."""

    d: int
    r: int

    def __post_init__(self) -> None:
        _check_fields(self, counts=("d", "r"))
        if self.r > self.d:
            raise ValueError(f"r: must be at most d = {self.d}, got {self.r}")


# Largest entry of |x^T x - I| that ``_check_orthonormal`` accepts.
ORTHONORMAL_TOL = 1e-10


def _check_matrix(x: np.ndarray, name: str) -> np.ndarray:
    """x as a float array of (d, r) slices with r <= d, the rule of
    ``ManifoldDims``; ``ValueError`` naming ``name`` otherwise."""
    x = np.asarray(x, dtype=float)
    if x.ndim < 2:
        raise ValueError(f"{name} must be at least 2-dimensional, got shape {x.shape}")
    if x.shape[-1] > x.shape[-2]:
        raise ValueError(f"{name}: a (d, r) slice needs r <= d, got shape {x.shape}")
    return x


def _check_orthonormal(x: np.ndarray, name: str) -> None:
    """``ValueError`` unless every entry of x^T x - I, for one (d, r)
    matrix x, is at most ORTHONORMAL_TOL in magnitude."""
    defect = float(np.abs(x.T @ x - _eye(x.shape[1])).max())
    if not defect <= ORTHONORMAL_TOL:
        raise ValueError(f"{name}'s columns are not orthonormal: max |{name}^T {name} - I| = {defect:.3g}")


@cache
def _eye(r: int) -> np.ndarray:
    """The r x r identity, made once per r and read-only."""
    eye = np.eye(r)
    eye.flags.writeable = False
    return eye


def _gram(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """x^T x for each (d, r) slice of x, written into ``out`` or a new
    array: one GEMM of a C-contiguous copy of x^T with x. numpy hands
    ``x.swapaxes(-1, -2) @ x``, a buffer times its own transpose, to BLAS
    ``syrk``, which OpenBLAS ran slower: on a (16, 784, 5) stack 103 against
    80 us, and on (16, 10, 5) 4.7 against 3.0 us (one thread). At d = 10
    both gave the same bits. The GEMM's result came out exactly symmetric."""
    return np.matmul(np.ascontiguousarray(x.swapaxes(-1, -2)), x, out=out)


def tangent_project(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Orthogonal projection of y onto the tangent space at x.

    Computes y - x (x^T y + y^T x) / 2, applied as written even when x is
    off the manifold: ``_tangent_project`` after the checks.
    """
    x = _check_matrix(x, "x")
    y = _check_matrix(y, "y")
    if x.shape[-2:] != y.shape[-2:]:
        raise ValueError(f"shape mismatch: x is {x.shape}, y is {y.shape}")
    return _tangent_project(x, y)


def _tangent_project(
    x: np.ndarray, y: np.ndarray, out: np.ndarray | None = None, negate: bool = False
) -> np.ndarray:
    """The kernel of ``tangent_project``, unchecked, written into ``out`` or
    a new array. Takes the one product M = x^T y and uses M + M^T for
    x^T y + y^T x. The product y^T x is not taken: it need not round as
    M^T does, and under OpenBLAS's Haswell kernels the two differed in
    every one of 300 random (10, 10, 5) stacks.

    With ``negate`` it returns the projection of -y, as x (M + M^T) / 2 - y:
    the projection of y with the operands of its last subtraction swapped.
    Every product of the formula is odd in y and rounding is symmetric, so
    this is the projection of a negated copy of y bit for bit, without the
    pass that negates it: the Riemannian gradient from the product G x of a
    loss whose Euclidean gradient is -G x."""
    m = x.swapaxes(-1, -2) @ y
    p = x @ (m + m.swapaxes(-1, -2))
    p *= 0.5
    out = p if out is None else out
    return np.subtract(p, y, out=out) if negate else np.subtract(y, p, out=out)


def distance_to_manifold(x: np.ndarray) -> float | np.ndarray:
    """Frobenius distance from x to St(d, r), one per (d, r) slice.

    Equals sqrt(sum_i (sigma_i - 1)^2) over the singular values of x; the
    nearest manifold point is the polar factor (not unique when x is
    rank-deficient, though the distance is). The sigma_i - 1 come from the
    r x r Gram x^T x, not from an SVD of x: see ``_sv_offsets``.
    """
    x = _check_matrix(x, "x")
    off = _sv_offsets(_gram(x), x.shape[-2])
    return np.sqrt(np.add.reduce(off * off, axis=-1))


def _sv_offsets(gram: np.ndarray, terms: int | np.ndarray) -> np.ndarray:
    """sigma_i - 1 over the singular values sigma_i of a matrix y whose
    Gram y^T y is ``gram``, for each (r, r) slice; ``terms`` is the length
    of y's columns, the dot products the Gram's entries are: one int, or an
    integer array shaped to broadcast against the leading dimensions plus a
    trailing 1, for a stack of Grams of differing lengths.

    sigma_i^2 are the eigenvalues lambda_i of the Gram (``eigvalsh``, which
    reads its lower triangle). The Gram's rounding, about terms eps
    tr(gram) in each entry, blurs every eigenvalue by as much, so one at
    most terms r eps tr(gram) (the trace taken as the eigenvalues' sum)
    cannot be told from 0 and is read as 0: a rank-deficient y then gives
    its zero singular values exactly, and one whose Gram has an eigenvalue
    a rounding below 0 gives no NaN. Each sigma_i - 1 is taken as
    (lambda_i - 1) / (sqrt(lambda_i) + 1), which does not cancel near 1.
    Forming the Gram squares the singular values, so each sigma carries an
    error of about eps ||y||^2 / sigma: a few eps near 1 on a y of norm
    near 1, as a run's iterates and means are. One read as 0 is off by at
    most about sqrt(terms r eps) ||y||_F.
    """
    lam = np.linalg.eigvalsh(gram)
    floor = np.add.reduce(lam, axis=-1)[..., None]
    floor *= terms * gram.shape[-1] * np.finfo(float).eps
    lam[lam <= floor] = 0.0
    off = lam - 1.0
    off /= np.sqrt(lam) + 1.0
    return off


def penalty_grad(x: np.ndarray) -> np.ndarray:
    """Gradient of the orthogonality penalty: 4 x (x^T x - I_r), four
    times ``_penalty_quarter`` after the check."""
    out = _penalty_quarter(_check_matrix(x, "x"))
    out *= 4.0
    return out


def _penalty_quarter(x: np.ndarray) -> np.ndarray:
    """x (x^T x - I_r), the kernel of ``penalty_grad`` without its scale by
    4, unchecked. The snap reads the gradient only through a threshold, and
    a quarter of it against a quarter of the threshold sets the same bits,
    since a scale by 4 is exact."""
    defect = _gram(x)
    defect -= _eye(x.shape[-1])
    return x @ defect


def _householder(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Q factor of each (d, r) slice of ``a`` with the sign convention
    diag(R) > 0, by Householder QR, and a boolean array over the leading
    dimensions marking the slices that are numerically rank-deficient
    (max|diag R| = 0, or min|diag R| <= eps max(d, r) max|diag R|). A slice
    holding NaN is not marked and yields NaN."""
    q, r = np.linalg.qr(a)
    rdiag = np.diagonal(r, axis1=-2, axis2=-1)
    diag = np.abs(rdiag)
    big = diag.max(axis=-1)
    tol = np.finfo(float).eps * max(a.shape[-2:]) * big
    deficient = (big == 0.0) | (diag.min(axis=-1) <= tol)
    return q * np.sign(rdiag)[..., None, :], deficient


def _raise_if_deficient(deficient: np.ndarray) -> None:
    """``RetractionError`` naming the first marked slice of a stack, or the
    argument when ``deficient`` has no dimensions."""
    if not deficient.any():
        return
    if deficient.ndim == 0:
        raise RetractionError("QR retraction failed: argument is numerically rank-deficient")
    first = np.unravel_index(np.argmax(deficient), deficient.shape)
    where = ", ".join(str(int(i)) for i in first)
    raise RetractionError(f"QR retraction failed: slice {where} is numerically rank-deficient")


def _qr_positive(a: np.ndarray) -> np.ndarray:
    """Q factor with the sign convention diag(R) > 0, for reproducibility.

    Batched over leading dimensions; raises ``RetractionError`` if any
    (d, r) slice is numerically rank-deficient, naming the first such slice
    of a stack. A slice holding NaN passes the check and yields NaN.
    """
    q, deficient = _householder(a)
    _raise_if_deficient(deficient)
    return q


# The conditioning screen of retract's Cholesky path: a slice y takes it only
# when lambda_min(y^T y) > tr(y^T y) / CHOLESKY_K, which bounds kappa(y)^2
# below CHOLESKY_K. The path's loss of orthogonality grows like
# kappa(y)^2 eps: over 200 random 5-column y with kappa(y)^2 = 1e3, taken
# past the screen, the largest entry of |Q^T Q - I| was 9.9e-14 at d = 10
# and 2.5e-13 at d = 784 (9.7e-13 and 2.1e-12 at kappa(y)^2 = 1e4), where
# Householder QR gave at most 1.6e-15.
CHOLESKY_K = 1e3

# A trace below this is read as this: the slice then needs
# lambda_min(y^T y) > 1e-300, more than the screen asks, and one whose Gram
# is 0 or subnormal fails it and is left to Householder QR, with no division
# by zero and no overflow.
_TRACE_FLOOR = CHOLESKY_K * 1e-300


def _augmented_buffer(lead: tuple[int, ...], r: int) -> np.ndarray:
    """A new C-contiguous (*lead, 2r, 2r) stack of [[0, I], [I, 0]]: the
    buffer ``_augmented`` fills, whose identity blocks and zeros it never
    writes."""
    m = np.zeros((*lead, 2 * r, 2 * r))
    m[..., :r, r:] = m[..., r:, :r] = _eye(r)
    return m


def _augmented(y: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
    """M = [[G, I], [I, c I]] for each (d, r) slice of y, with G = y^T y
    (``_gram``) and c = CHOLESKY_K / tr(G), written into ``m``, an
    ``_augmented_buffer`` of y's leading shape, or a new one. Only G and
    the c diagonal are written, so one buffer serves any number of calls.
    Both off-diagonal blocks are held, and LAPACK reads only M's lower
    triangle."""
    r = y.shape[-1]
    lead = y.shape[:-2]
    if m is None:
        m = _augmented_buffer(lead, r)
    _gram(y, out=m[..., :r, :r])
    diag = m.reshape(*lead, 4 * r * r)[..., :: 2 * r + 1]
    trace = np.maximum(np.add.reduce(diag[..., :r], axis=-1), _TRACE_FLOOR)
    diag[..., r:] = (CHOLESKY_K / trace)[..., None]
    return m


def _retract_by_slice(y: np.ndarray, m: np.ndarray) -> np.ndarray:
    """``retract``'s fallback when the stacked Cholesky call fails: the
    Cholesky path slice by slice, and Householder QR for the slices it
    refuses."""
    d, r = y.shape[-2:]
    ys = y.reshape(-1, d, r)
    out = np.empty_like(ys)
    failed = np.zeros(len(ys), dtype=bool)
    for i, mi in enumerate(m.reshape(-1, 2 * r, 2 * r)):
        try:
            out[i] = ys[i] @ np.linalg.cholesky(mi)[r:, :r]
        except np.linalg.LinAlgError:
            failed[i] = True
    if failed.any():
        q, deficient = _householder(ys[failed])
        marked = np.zeros_like(failed)
        marked[failed] = deficient
        _raise_if_deficient(marked.reshape(y.shape[:-2]))
        out[failed] = q
    return out.reshape(y.shape)


def retract(x: np.ndarray, xi: np.ndarray) -> np.ndarray:
    """Map the tangent step xi at x back onto the manifold.

    Takes the Q factor of y = x + xi with diag(R) > 0, so retract(x, 0) = x
    and the result agrees with x + xi to first order. That factor is unique,
    and is read from the Cholesky factor L of G = y^T y (y = Q L^T): one
    ``np.linalg.cholesky`` call over the stack of 2r x 2r matrices
    M = [[G, I], [I, c I]] (``_augmented``) gives [[L, 0], [L^-T, *]] per
    slice, and Q = y L^-T is one stacked matmul. The lower-right block
    factors only when c I - G^-1 is positive definite, that is when
    lambda_min(G) > tr(G) / CHOLESKY_K, which certifies kappa(y)^2 <
    CHOLESKY_K = 1e3 and so Q's orthogonality: each entry of Q^T Q - I is
    within about 3e-13 at that bound (see ``CHOLESKY_K``), and near the
    manifold Q is within 1e-14 of the Householder Q.

    When any slice fails the certificate (ill-conditioned or
    rank-deficient), the call is redone slice by slice and only the failing
    slices take Householder QR, which raises ``RetractionError`` naming the
    first numerically rank-deficient slice. A NaN slice passes the Cholesky
    call and yields NaN. A stacked call equals its per-slice calls bit for
    bit. A y whose Gram overflows (entries beyond about 1e150) is outside
    the Cholesky path's range: numpy warns of the overflow, and the result
    is not finite.

    Each call builds its M in a new buffer. The engine calls ``_retract``
    with one buffer of the run's shape, which each call refills with G and
    c only; the results are the same bits.
    """
    x = _check_matrix(x, "x")
    xi = _check_matrix(xi, "xi")
    if x.shape != xi.shape:
        raise ValueError(f"shape mismatch: x is {x.shape}, xi is {xi.shape}")
    return _retract(x, xi)


def _retract(x: np.ndarray, xi: np.ndarray, m: np.ndarray | None = None) -> np.ndarray:
    """The kernel of ``retract``, unchecked. ``m`` is the ``_augmented_buffer``
    that ``_augmented`` fills, one a caller keeps across calls, or None for
    a new one, as ``retract`` takes; the results are the same bits."""
    y = x + xi
    r = y.shape[-1]
    m = _augmented(y, m)
    try:
        return y @ np.linalg.cholesky(m)[..., r:, :r]
    except np.linalg.LinAlgError:
        return _retract_by_slice(y, m)


def random_stiefel(d: int, r: int, rng: np.random.Generator) -> np.ndarray:
    """Random point on St(d, r): QR-orthonormalized Gaussian matrix."""
    ManifoldDims(d, r)  # refuses r > d and a non-integral size
    return _qr_positive(rng.standard_normal((d, r)))
