"""The N-bit landing quantizer of Q-RGT and its wire format.

Each agent sends its Riemannian gradient g as one message: a scale
gamma = 2 * max|g| and one N-bit code per entry. The snap scales the entries
by gamma into [-0.5, 0.5], shifts them to [0, 1], adds the half-step
uniform dither, floors them onto the grid {0, 1/(2^N - 1), ..., 1}
and raises each one step where the orthogonality-penalty gradient is
positive, so the quantization error itself pulls iterates toward the
manifold. Where the penalty gradient is zero (on the manifold) the snap is a
pure floor.

``snap`` is the one arithmetic path: it checks its input and calls its
unchecked kernel ``_snap``, which the engine calls directly. It returns
the dequantized values and the scales, which is all a run needs;
``encode`` recovers the integer codes from them by inverting
``dequantize``, exactly for every normal, finite scale. ``pack_codes``
and ``unpack_codes`` serialize one message, and ``wire_size_bits`` is the
size a run charges for it.

The floor plus a {0, 1} bit can undershoot the grid by one step (dither
below the bottom grid point) or overshoot it by one (a raised entry already
at the top). Codes are therefore signed integers, and ``pack_codes`` refuses
any message with a code outside [0, 2^N - 1].

``scale_factor``, ``snap`` and ``encode`` take a stack of shape
``(..., d, r)`` and give it one scale per trailing ``(d, r)`` slice, an
array of shape ``(...)``. A single matrix is a stack with no leading axes;
its scale is an ``np.float64``. Slice by slice, a stacked call equals the
per-matrix calls bit for bit. A zero slice has no grid and gives zero values
and zero codes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuantizerSpec",
    "scale_factor",
    "dequantize",
    "snap",
    "dither_noise",
    "encode",
    "wire_size_bits",
    "pack_codes",
    "unpack_codes",
]


@dataclass(frozen=True)
class QuantizerSpec:
    """Bit-width of the quantizer."""

    bits: int

    def __post_init__(self) -> None:
        if not (1 <= self.bits <= 32):
            raise ValueError(f"bits: must be in [1, 32], got {self.bits}")

    @property
    def levels(self) -> int:
        """Grid divisor 2^N - 1."""
        return (1 << self.bits) - 1

    @property
    def step(self) -> float:
        """Grid spacing in normalized units."""
        return 1.0 / self.levels


def scale_factor(g: np.ndarray) -> float | np.ndarray:
    """Normalization scale 2 * max|g| per trailing (d, r) slice; 0 for a
    zero slice."""
    g = np.asarray(g, dtype=float)
    gamma = np.maximum.reduce(np.abs(g).reshape(g.shape[:-2] + (-1,)), axis=-1)
    gamma *= 2.0
    return gamma


def dequantize(codes: np.ndarray, scale: float | np.ndarray, bits: int) -> np.ndarray:
    """Reconstruct the matrix from grid indices and the scale factor;
    ``scale`` broadcasts against ``codes``."""
    levels = (1 << bits) - 1
    return scale * (np.asarray(codes, dtype=float) / levels - 0.5)


# The largest double whose sigmoid direction bit is 0: see ``snap``.
_DIRECTION_THRESHOLD = 2.0**-52


def _nonzero_scale(gamma: float | np.ndarray) -> np.ndarray:
    """``gamma`` with zeros replaced by 1, shaped to broadcast over (d, r) slices."""
    return np.where(gamma == 0.0, 1.0, gamma)[..., None, None]


def snap(
    g: np.ndarray,
    pgrad: np.ndarray,
    spec: QuantizerSpec,
    noise: np.ndarray,
) -> tuple[np.ndarray, float | np.ndarray]:
    """The landing grid snap, values first: (dequantized values, scales).

    ``pgrad`` is the orthogonality-penalty gradient at the same point as
    ``g``. Each normalized entry, plus its ``noise`` (shape of ``g``,
    normalized units, as drawn by ``dither_noise``; zeros for the undithered
    snap), is floored onto the grid and raised one step where the direction
    bit of ``pgrad`` is set.

    The direction bit is rint(sigmoid(pgrad)), which in exact arithmetic is
    ``pgrad > 0``. In floats the sigmoid, written (1 + tanh(pgrad/2)) / 2,
    rounds to exactly 1/2 for every pgrad up to 2^-52, and rint ties 1/2 to
    0; the bit is therefore taken as ``pgrad > 2^-52``, equal to the
    sigmoid form on every double (pinned by the tests). So pgrad = 0 gives
    0 and the snap is a pure floor on the manifold. A NaN pgrad gives bit 0
    (the sigmoid form gave a NaN value); a run never reaches that, since an
    iterate whose penalty gradient is not finite fails the divergence check
    in the same epoch.
    """
    g = np.asarray(g, dtype=float)
    pgrad = np.asarray(pgrad, dtype=float)
    if g.shape != pgrad.shape:
        raise ValueError(f"shape mismatch: g is {g.shape}, pgrad is {pgrad.shape}")
    if np.shape(noise) != g.shape:
        raise ValueError(f"shape mismatch: g is {g.shape}, noise is {np.shape(noise)}")
    return _snap(g, pgrad, spec.levels, noise)


def _snap(
    g: np.ndarray,
    pgrad: np.ndarray,
    levels: float,
    noise: np.ndarray,
    out: np.ndarray | None = None,
    threshold: float = _DIRECTION_THRESHOLD,
) -> tuple[np.ndarray, float | np.ndarray]:
    """The kernel of ``snap``, unchecked, for float arrays of one shape and
    the grid divisor ``levels`` = 2^N - 1; the values are written into
    ``out`` or a new array. The direction bit is ``pgrad > threshold``: a
    ``pgrad`` that is the penalty gradient scaled by a power of two, with
    ``threshold`` scaled alike, sets the same bits, since that scale is
    exact."""
    gamma = scale_factor(g)
    has_zero = np.count_nonzero(gamma) != gamma.size
    # a zero slice is divided by 1, then zeroed
    safe = _nonzero_scale(gamma) if has_zero else gamma[..., None, None]
    idx = np.divide(g, safe, out=out)
    idx += 0.5
    idx += noise
    idx *= levels
    np.floor(idx, out=idx)
    np.add(idx, pgrad > threshold, out=idx)
    idx /= levels
    idx -= 0.5
    idx *= safe
    if has_zero:
        idx[np.equal(gamma, 0.0)] = 0.0
    return idx, gamma


def dither_noise(
    rng: np.random.Generator, spec: QuantizerSpec, shape: tuple[int, ...], out: np.ndarray | None = None
) -> np.ndarray:
    """Half-step uniform dither on (-0.5/(2^N - 1), +0.5/(2^N - 1)), in
    normalized units, drawn in row-major order; written into ``out``, of
    ``shape``, when it is given. The values are those of
    ``rng.uniform(-half, half, shape)`` bit for bit: numpy takes each as
    low + (high - low) u from the double u that ``rng.random`` draws."""
    half = 0.5 / spec.levels
    noise = rng.random(shape, out=out)
    noise *= half - -half
    noise += -half
    return noise


def encode(values: np.ndarray, scales: float | np.ndarray, spec: QuantizerSpec) -> np.ndarray:
    """Integer grid indices of snapped values: the inverse of ``dequantize``.

    Recovered as rint((value / scale + 1/2) (2^N - 1)); the rounding error
    before the rint is below 1e-5 for every N <= 32 and every normal, finite
    scale, so the indices are exact. A zero slice gets zero codes.
    """
    codes = np.rint((values / _nonzero_scale(scales) + 0.5) * spec.levels).astype(np.int64)
    zero = np.equal(scales, 0.0)
    if zero.any():
        codes[zero] = 0
    return codes


def wire_size_bits(entries: int, spec: QuantizerSpec) -> int:
    """Size of one message of ``entries`` codes: N bits per entry plus one
    64-bit scale. The ``pack_codes`` payload is this, rounded up to bytes."""
    return entries * spec.bits + 64


def pack_codes(codes: np.ndarray, scale: float, spec: QuantizerSpec) -> bytes:
    """Serialize one message as a little-endian float64 scale followed by
    N-bit codes.

    Codes are packed LSB-first in row-major entry order: bit j of entry k is
    bit k*N + j of the code stream, and stream bit b is bit b % 8 of payload
    byte 8 + b // 8; the last byte is zero-padded. Raises if ``scale`` is not
    a scalar or any code falls outside [0, 2^N - 1].
    """
    if np.ndim(scale) != 0:
        raise ValueError(f"one message has one scale, got an array of shape {np.shape(scale)}")
    codes = np.asarray(codes).ravel()
    if codes.size and (codes.min() < 0 or codes.max() > spec.levels):
        raise ValueError("codes outside the N-bit range cannot be packed")
    bits = (codes[:, None] >> np.arange(spec.bits)) & 1
    return struct.pack("<d", scale) + np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def unpack_codes(payload: bytes, shape: tuple[int, ...], spec: QuantizerSpec) -> tuple[np.ndarray, float]:
    """Inverse of :func:`pack_codes`: (codes of ``shape``, scale). Raises
    unless the payload is exactly 8 + ceil(size N / 8) bytes long."""
    size = int(np.prod(shape))
    expected = 8 + (size * spec.bits + 7) // 8
    if len(payload) != expected:
        raise ValueError(f"payload of {len(payload)} bytes, expected {expected} for {size} {spec.bits}-bit codes")
    (scale,) = struct.unpack("<d", payload[:8])
    bits = np.unpackbits(np.frombuffer(payload, np.uint8, offset=8), count=size * spec.bits, bitorder="little")
    codes = (bits.reshape(size, spec.bits).astype(np.int64) << np.arange(spec.bits)).sum(axis=1).reshape(shape)
    return codes, scale
