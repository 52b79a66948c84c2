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

The landing/dithered arithmetic lives in one values-first core, ``snap``,
which returns only the dequantized values and the scales; a run needs no
more. The ``QuantizedGradient`` builders derive the integer codes from those
values by inverting ``dequantize``, which is exact for every normal, finite
scale.
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
    "snap",
    "dither_noise",
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


def _nonzero_scale(gamma: float | np.ndarray, ndim: int) -> np.ndarray:
    """``gamma`` with zeros replaced by 1, shaped to broadcast over (d, r) slices."""
    safe = np.where(gamma == 0.0, 1.0, gamma)
    return safe[..., None, None] if ndim > 2 else safe


def _normalize(g: np.ndarray) -> tuple[float | np.ndarray, np.ndarray, np.ndarray]:
    """(scale, broadcastable nonzero scale, g shifted into [0, 1] per slice).

    Zero slices are divided by 1 instead of 0; ``_dequantize_into`` zeroes them.
    """
    gamma = scale_factor(g)
    safe = _nonzero_scale(gamma, g.ndim)
    shifted = g / safe
    shifted += 0.5
    return gamma, safe, shifted


def _dequantize_into(idx: np.ndarray, gamma: float | np.ndarray, safe: np.ndarray, levels: int) -> np.ndarray:
    """Turn float grid indices into values in place, as ``dequantize`` with
    scale ``safe`` would; a zero slice (gamma = 0, no grid) becomes zero."""
    idx /= levels
    idx -= 0.5
    idx *= safe
    zero = np.equal(gamma, 0.0)
    if zero.any():
        idx[zero] = 0.0
    return idx


def _encode(value: np.ndarray, gamma: float | np.ndarray, levels: int) -> np.ndarray:
    """Integer grid indices of snapped values: the inverse of ``dequantize``.

    Recovered as rint((value / scale + 1/2) (2^N - 1)); the rounding error
    before the rint is below 1e-5 for every N <= 32 and every normal, finite
    scale, so the indices are exact. A zero slice gets zero codes.
    """
    codes = np.rint((value / _nonzero_scale(gamma, value.ndim) + 0.5) * levels).astype(np.int64)
    zero = np.equal(gamma, 0.0)
    if zero.any():
        codes[zero] = 0
    return codes


def _message(value: np.ndarray, gamma: float | np.ndarray, spec: QuantizerSpec) -> QuantizedGradient:
    return QuantizedGradient(value, gamma, spec.bits, _encode(value, gamma, spec.levels))


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
    gamma, safe, idx = _normalize(np.asarray(g, dtype=float))
    idx *= spec.levels
    np.rint(idx, out=idx)
    return _message(_dequantize_into(idx, gamma, safe, spec.levels), gamma, spec)


def snap(
    g: np.ndarray,
    pgrad: np.ndarray,
    spec: QuantizerSpec,
    noise: np.ndarray | None = None,
) -> tuple[np.ndarray, float | np.ndarray]:
    """The landing grid snap, values first: (dequantized values, scales).

    Each normalized entry, plus its ``noise`` (shape of ``g``, normalized
    units; the dithered quantizer passes its uniform draws here), is
    floored onto the grid and raised one step where the direction bit of
    ``pgrad`` is set. This is the whole of the landing and dithered
    arithmetic: ``quantize_landing`` and ``quantize_dithered`` derive their
    codes from its values, and a run, which needs only values and scales,
    calls it directly.
    """
    if spec.mode not in (MODE_LANDING, MODE_DITHERED):
        raise ValueError(f"spec.mode must be {MODE_LANDING!r} or {MODE_DITHERED!r}")
    g, pgrad = _check_pair(g, pgrad)
    gamma, safe, idx = _normalize(g)
    if noise is not None:
        idx += noise
    idx *= spec.levels
    np.floor(idx, out=idx)
    idx += _direction_bits(pgrad)
    return _dequantize_into(idx, gamma, safe, spec.levels), gamma


def dither_noise(rng: np.random.Generator, spec: QuantizerSpec, shape: tuple[int, ...]) -> np.ndarray:
    """Half-step uniform dither on (-0.5/(2^N - 1), +0.5/(2^N - 1)), in
    normalized units, drawn in row-major order."""
    half = 0.5 / spec.levels
    return rng.uniform(-half, half, size=shape)


def quantize_landing(
    g: np.ndarray,
    pgrad: np.ndarray,
    spec: QuantizerSpec,
    noise: np.ndarray | None = None,
) -> QuantizedGradient:
    """Floor quantizer with round-up bits where the penalty gradient is positive.

    ``pgrad`` is the orthogonality-penalty gradient evaluated at the same
    point as ``g``. ``noise`` is added before flooring, as in ``snap``; the
    codes are derived from the snapped values.
    """
    value, gamma = snap(g, pgrad, spec, noise)
    return _message(value, gamma, spec)


def quantize_dithered(
    g: np.ndarray,
    pgrad: np.ndarray,
    spec: QuantizerSpec,
    rng: np.random.Generator,
) -> QuantizedGradient:
    """Landing-directed quantizer with half-step uniform dither.

    One uniform draw of ``dither_noise`` is added to each normalized entry
    (row-major order) before flooring. ``rng`` must yield i.i.d. uniforms;
    the caller owns the stream. An all-zero input consumes no draws.
    """
    if spec.mode != MODE_DITHERED:
        raise ValueError(f"spec.mode must be {MODE_DITHERED!r}, got {spec.mode!r}")
    g, pgrad = _check_pair(g, pgrad)
    noise = dither_noise(rng, spec, g.shape) if g.any() else None
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
