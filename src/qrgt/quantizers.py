"""N-bit uniform quantizers for gradient matrices.

All three variants share the same fixed-point grid: entries are scaled by
gamma = 2 * max|g| into [-0.5, 0.5], shifted to [0, 1], placed on the grid
{0, 1/(2^N - 1), ..., 1}, then shifted and scaled back. They differ in how a
value is snapped to the grid:

* ``nearest``   rounds to the nearest grid point (ties to even);
* ``landing``   floors, then adds a per-entry direction bit derived from the
  orthogonality-penalty gradient, so values round up where the penalty
  gradient is positive and down where it is negative -- the quantization
  error itself pulls iterates toward the manifold;
* ``dithered``  is ``landing`` with uniform noise of half a grid step added
  before flooring, to break up the systematic part of the rounding error.

The grid snap uses floor plus a {0, 1} bit, so a landing/dithered code can
undershoot the grid by one step (dither below the bottom grid point) or
overshoot it by one (direction bit on an entry already at the top). Codes
are therefore kept as signed integers; ``pack_codes`` refuses anything that
does not fit the advertised N-bit wire format.

Every quantizer accepts a single matrix or a stack of shape ``(..., d, r)``.
A stack gets one scale per trailing ``(d, r)`` slice, so
``QuantizedGradient.scale`` is a float for input of at most two dimensions
and an array of shape ``(...)`` otherwise; ``value`` and ``codes`` keep the
input shape. Slice by slice, a stacked call equals the per-matrix calls bit
for bit. A zero slice has no grid and gives zero values and zero codes.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

MODE_NEAREST = "nearest"
MODE_LANDING = "landing"
MODE_DITHERED = "dithered"
_MODES = (MODE_NEAREST, MODE_LANDING, MODE_DITHERED)

__all__ = [
    "MODE_NEAREST",
    "MODE_LANDING",
    "MODE_DITHERED",
    "QuantizerSpec",
    "QuantizedGradient",
    "scale_factor",
    "dequantize",
    "quantize_nearest",
    "quantize_landing",
    "quantize_dithered",
    "quantize",
    "wire_size_bits",
    "pack_codes",
    "unpack_codes",
]


@dataclass(frozen=True)
class QuantizerSpec:
    """Bit-width and rounding mode of one quantizer."""

    bits: int
    mode: str = MODE_DITHERED

    def __post_init__(self) -> None:
        if not (1 <= self.bits <= 32):
            raise ValueError(f"bits must be in [1, 32], got {self.bits}")
        if self.mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}, got {self.mode!r}")

    @property
    def levels(self) -> int:
        """Grid divisor 2^N - 1."""
        return (1 << self.bits) - 1

    @property
    def step(self) -> float:
        """Grid spacing in normalized units."""
        return 1.0 / self.levels


@dataclass(frozen=True)
class QuantizedGradient:
    """Dequantized matrix (or stack) plus the (codes, scale) pair that
    reproduces it; ``scale`` is per trailing (d, r) slice."""

    value: np.ndarray
    scale: float | np.ndarray
    bits: int
    codes: np.ndarray = field(repr=False)


def scale_factor(g: np.ndarray) -> float | np.ndarray:
    """Normalization scale 2 * max|g| per trailing (d, r) slice; 0 for a
    zero slice. A float for input of at most two dimensions."""
    g = np.asarray(g, dtype=float)
    if g.ndim <= 2:
        return float(2.0 * np.max(np.abs(g)))
    return 2.0 * np.abs(g).reshape(g.shape[:-2] + (-1,)).max(axis=-1)


def dequantize(codes: np.ndarray, scale: float | np.ndarray, bits: int) -> np.ndarray:
    """Reconstruct the matrix from grid indices and the scale factor;
    ``scale`` broadcasts against ``codes``."""
    levels = (1 << bits) - 1
    return scale * (np.asarray(codes, dtype=float) / levels - 0.5)


def _normalize(g: np.ndarray) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """(scale, broadcastable nonzero scale, g shifted into [0, 1] per slice).

    Zero slices are divided by 1 instead of 0; ``_finish`` zeroes them.
    """
    gamma = scale_factor(g)
    safe = np.where(gamma == 0.0, 1.0, gamma)
    if g.ndim > 2:
        safe = safe[..., None, None]
    return gamma, safe, g / safe + 0.5


def _finish(
    codes: np.ndarray, gamma: float | np.ndarray, safe: np.ndarray, bits: int
) -> QuantizedGradient:
    # gamma = 0 has no grid; the only consistent output is the zero matrix.
    # codes holds whole floats here, so dequantizing before the int cast
    # gives the same values with one pass fewer.
    zero = gamma == 0.0
    value = dequantize(codes, safe, bits)
    value[zero] = 0.0
    codes = codes.astype(np.int64)
    codes[zero] = 0
    return QuantizedGradient(value, gamma, bits, codes)


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # overflow-free logistic: 1 / (1 + e^-z) = (1 + tanh(z/2)) / 2
    return 0.5 * (1.0 + np.tanh(0.5 * np.asarray(z, dtype=float)))


def _direction_bits(pgrad: np.ndarray) -> np.ndarray:
    # rint ties to even, so the on-manifold case sigmoid(0) = 0.5 gives 0
    # and the landing quantizer degenerates to a pure floor.
    return np.rint(_sigmoid(pgrad))


def _check_pair(g: np.ndarray, pgrad: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    g = np.asarray(g, dtype=float)
    pgrad = np.asarray(pgrad, dtype=float)
    if g.shape != pgrad.shape:
        raise ValueError(f"shape mismatch: g is {g.shape}, pgrad is {pgrad.shape}")
    return g, pgrad


def quantize_nearest(g: np.ndarray, spec: QuantizerSpec) -> QuantizedGradient:
    """Round-to-nearest grid snap (ties to even)."""
    if spec.mode != MODE_NEAREST:
        raise ValueError(f"spec.mode must be {MODE_NEAREST!r}, got {spec.mode!r}")
    gamma, safe, shifted = _normalize(np.asarray(g, dtype=float))
    return _finish(np.rint(shifted * spec.levels), gamma, safe, spec.bits)


def quantize_landing(
    g: np.ndarray,
    pgrad: np.ndarray,
    spec: QuantizerSpec,
    noise: np.ndarray | None = None,
) -> QuantizedGradient:
    """Floor quantizer with round-up bits where the penalty gradient is positive.

    ``pgrad`` is the orthogonality-penalty gradient evaluated at the same
    point as ``g``. ``noise`` (shape of ``g``, in normalized units) is added
    to each normalized entry before flooring: the dithered quantizer passes
    its uniform draws here.
    """
    if spec.mode not in (MODE_LANDING, MODE_DITHERED):
        raise ValueError(f"spec.mode must be {MODE_LANDING!r} or {MODE_DITHERED!r}")
    g, pgrad = _check_pair(g, pgrad)
    gamma, safe, shifted = _normalize(g)
    if noise is not None:
        shifted = shifted + noise
    codes = np.floor(shifted * spec.levels) + _direction_bits(pgrad)
    return _finish(codes, gamma, safe, spec.bits)


def quantize_dithered(
    g: np.ndarray,
    pgrad: np.ndarray,
    spec: QuantizerSpec,
    rng: np.random.Generator,
) -> QuantizedGradient:
    """Landing-directed quantizer with half-step uniform dither.

    One uniform draw on (-0.5/(2^N - 1), +0.5/(2^N - 1)) is added to each
    normalized entry (row-major order) before flooring. ``rng`` must yield
    i.i.d. uniforms; the caller owns the stream. An all-zero input consumes
    no draws.
    """
    if spec.mode != MODE_DITHERED:
        raise ValueError(f"spec.mode must be {MODE_DITHERED!r}, got {spec.mode!r}")
    g, pgrad = _check_pair(g, pgrad)
    noise = None
    if g.any():
        half = 0.5 / spec.levels
        noise = rng.uniform(-half, half, size=g.shape)
    return quantize_landing(g, pgrad, spec, noise)


def quantize(
    g: np.ndarray,
    pgrad: np.ndarray | None,
    spec: QuantizerSpec,
    rng: np.random.Generator | None = None,
) -> QuantizedGradient:
    """Dispatch on spec.mode."""
    if spec.mode == MODE_NEAREST:
        return quantize_nearest(g, spec)
    if spec.mode == MODE_LANDING:
        return quantize_landing(g, pgrad, spec)
    if rng is None:
        raise ValueError("dithered mode needs an rng")
    return quantize_dithered(g, pgrad, spec, rng)


def wire_size_bits(q: QuantizedGradient, spec: QuantizerSpec) -> int:
    """Nominal payload size of one quantized message: N bits per entry plus
    one 64-bit scale."""
    return q.codes.size * spec.bits + 64


def pack_codes(q: QuantizedGradient, spec: QuantizerSpec) -> bytes:
    """Serialize as a little-endian float64 scale followed by N-bit codes.

    Codes are packed LSB-first in row-major entry order: bit j of entry k is
    bit k*N + j of the code stream, and stream bit b is bit b % 8 of payload
    byte 8 + b // 8; the last byte is zero-padded. Raises if any code
    falls outside [0, 2^N - 1] (possible at scale extremes for the landing
    and dithered modes, whose grid snap can step one slot past the grid).
    """
    codes = q.codes.ravel()
    if codes.size and (codes.min() < 0 or codes.max() > spec.levels):
        raise ValueError("codes outside the N-bit range cannot be packed")
    bits = (codes[:, None] >> np.arange(spec.bits)) & 1
    return struct.pack("<d", q.scale) + np.packbits(bits.astype(np.uint8), bitorder="little").tobytes()


def unpack_codes(payload: bytes, shape: tuple[int, ...], spec: QuantizerSpec) -> QuantizedGradient:
    """Inverse of :func:`pack_codes`."""
    (scale,) = struct.unpack("<d", payload[:8])
    size = int(np.prod(shape))
    bits = np.unpackbits(np.frombuffer(payload, np.uint8, offset=8), count=size * spec.bits, bitorder="little")
    codes = (bits.reshape(size, spec.bits).astype(np.int64) << np.arange(spec.bits)).sum(axis=1).reshape(shape)
    return QuantizedGradient(dequantize(codes, scale, spec.bits), scale, spec.bits, codes)
