import struct

import numpy as np
import pytest

from qrgt import (
    QuantizedGradient,
    QuantizerSpec,
    dequantize,
    quantize,
    quantize_dithered,
    quantize_landing,
    quantize_nearest,
    scale_factor,
    wire_size_bits,
)
from qrgt.quantizers import (
    MODE_DITHERED,
    MODE_LANDING,
    MODE_NEAREST,
    dither_noise,
    pack_codes,
    snap,
    unpack_codes,
)


def nearest_spec(bits):
    return QuantizerSpec(bits=bits, mode=MODE_NEAREST)


def landing_spec(bits):
    return QuantizerSpec(bits=bits, mode=MODE_LANDING)


def dithered_spec(bits):
    return QuantizerSpec(bits=bits, mode=MODE_DITHERED)


class ZeroDither:
    """Stub stream: degenerate dither, all draws zero."""

    def uniform(self, low, high, size):
        return np.zeros(size)


class ConstantDither:
    """Stub stream: every draw pinned to a fraction of the allowed range."""

    def __init__(self, fraction):
        self.fraction = fraction

    def uniform(self, low, high, size):
        return np.full(size, low + (high - low) * self.fraction)


class FixedDither:
    """Stub stream: returns a given noise array (in normalized units)."""

    def __init__(self, noise):
        self.noise = noise

    def uniform(self, low, high, size):
        assert self.noise.shape == tuple(size)
        return self.noise


class TestSpec:
    @pytest.mark.parametrize("bits", [0, 33, -1])
    def test_bits_range(self, bits):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=bits)

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=4, mode="stochastic")

    def test_step(self):
        assert QuantizerSpec(bits=2).levels == 3
        assert QuantizerSpec(bits=2).step == pytest.approx(1 / 3)


class TestScaleFactor:
    def test_zero(self):
        assert scale_factor(np.zeros((3, 2))) == 0.0

    def test_half_range(self):
        g = np.array([[0.5, -0.25], [0.1, 0.0]])
        assert scale_factor(g) == 1.0

    def test_two_entry(self):
        assert scale_factor(np.array([0.3, -0.5])) == 1.0


class TestNearest:
    def test_hand_evaluated(self):
        # gamma = 1; shifted = [0.8, 0.0]; *3 = [2.4, 0] -> [2, 0];
        # /3 - 1/2 = [1/6, -1/2].
        g = np.array([[0.3], [-0.5]])
        q = quantize_nearest(g, nearest_spec(2))
        assert q.scale == 1.0
        np.testing.assert_array_equal(q.codes, [[2], [0]])
        np.testing.assert_allclose(q.value, [[1 / 6], [-0.5]], rtol=0, atol=1e-15)

    def test_zero_matrix(self):
        q = quantize_nearest(np.zeros((2, 3)), nearest_spec(4))
        assert q.scale == 0.0
        np.testing.assert_array_equal(q.value, 0.0)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_grid_points_are_fixed(self, bits):
        spec = nearest_spec(bits)
        gamma = 1.7
        codes = np.arange(spec.levels + 1)
        g = gamma * (codes / spec.levels - 0.5)
        q = quantize_nearest(g, spec)
        np.testing.assert_array_equal(q.value, g)
        np.testing.assert_array_equal(q.codes, codes)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_half_step_error_bound(self, bits):
        # Max error of round-to-nearest is half a grid step, at every width.
        spec = nearest_spec(bits)
        rng = np.random.default_rng(bits)
        g = rng.uniform(-3, 3, size=(40, 7))
        q = quantize_nearest(g, spec)
        step = q.scale / spec.levels
        assert np.abs(q.value - g).max() <= 0.5 * step * (1 + 1e-12)

    def test_mode_enforced(self):
        with pytest.raises(ValueError):
            quantize_nearest(np.ones((2, 2)), landing_spec(4))


class TestLanding:
    def test_strongly_negative_pgrad_is_floor(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(-1, 1, size=(5, 4))
        q = quantize_landing(g, np.full_like(g, -10.0), landing_spec(3))
        qn = quantize_nearest(g, nearest_spec(3))
        assert np.all(q.value <= qn.value + 1e-15)
        # floor never exceeds the input
        assert np.all(q.value <= g + 1e-15)

    def test_strongly_positive_pgrad_is_one_step_above_floor(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(-1, 1, size=(5, 4))
        spec = landing_spec(3)
        up = quantize_landing(g, np.full_like(g, +10.0), spec)
        down = quantize_landing(g, np.full_like(g, -10.0), spec)
        step = up.scale / spec.levels
        np.testing.assert_allclose(up.value - down.value, step, rtol=0, atol=1e-15)
        assert np.all(up.value >= g - step)

    def test_zero_pgrad_ties_to_floor(self):
        # sigmoid(0) = 0.5 rounds to 0 under ties-to-even.
        rng = np.random.default_rng(2)
        g = rng.uniform(-1, 1, size=(6, 2))
        spec = landing_spec(4)
        tie = quantize_landing(g, np.zeros_like(g), spec)
        down = quantize_landing(g, np.full_like(g, -10.0), spec)
        np.testing.assert_array_equal(tie.value, down.value)

    def test_direction_bit_pattern(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-2, 2, size=(8, 3))
        pgrad = rng.standard_normal((8, 3))
        spec = landing_spec(5)
        q = quantize_landing(g, pgrad, spec)
        floor_only = quantize_landing(g, np.full_like(g, -10.0), spec)
        step = q.scale / spec.levels
        bits = np.rint((q.value - floor_only.value) / step)
        np.testing.assert_array_equal(bits, (pgrad > 0).astype(float))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            quantize_landing(np.ones((2, 2)), np.ones((3, 2)), landing_spec(4))


def exact_dithered_floor_expectation(g, pgrad, gamma, bits):
    """Independent oracle: exact integral of the dithered-floor quantizer.

    For each entry, with z = (g/gamma + 1/2) * M and v uniform on
    (-1/2, 1/2), floor(z + v) takes at most two values on the unit-length
    window [z - 1/2, z + 1/2); integrate piecewise and add the direction bit.
    """
    m = (1 << bits) - 1
    z = (np.asarray(g, dtype=float) / gamma + 0.5) * m
    lo = z - 0.5
    hi = z + 0.5
    first = np.floor(lo)
    boundary = np.minimum(np.ceil(lo), hi)
    boundary = np.where(boundary == lo, lo + 1.0, boundary)  # lo exactly integer
    efloor = first * (boundary - lo) + (first + 1.0) * (hi - boundary)
    b = (np.asarray(pgrad) > 0).astype(float)
    return gamma * ((efloor + b) / m - 0.5)


class TestDithered:
    def test_zero_stub_equals_landing(self):
        rng = np.random.default_rng(4)
        g = rng.uniform(-1, 1, size=(6, 4))
        pgrad = rng.standard_normal((6, 4))
        qd = quantize_dithered(g, pgrad, dithered_spec(3), ZeroDither())
        ql = quantize_landing(g, pgrad, landing_spec(3))
        np.testing.assert_array_equal(qd.value, ql.value)

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_monte_carlo_mean_matches_exact_integral(self, bits):
        # 1e5 dithered draws of one fixed matrix with pgrad = 0: the mean
        # must match the exact integral within 4 standard errors, and sit
        # within one grid step of the input.
        g = np.array([[0.31, -0.5], [0.11, 0.47]])
        pgrad = np.zeros_like(g)
        spec = dithered_spec(bits)
        rng = np.random.default_rng(1000 + bits)
        n_draws = 100_000
        total = np.zeros_like(g)
        total_sq = np.zeros_like(g)
        for _ in range(n_draws):
            v = quantize_dithered(g, pgrad, spec, rng).value
            total += v
            total_sq += v * v
        mean = total / n_draws
        std = np.sqrt(np.maximum(total_sq / n_draws - mean**2, 0.0))
        se = std / np.sqrt(n_draws)
        gamma = scale_factor(g)
        oracle = exact_dithered_floor_expectation(g, pgrad, gamma, bits)
        assert np.all(np.abs(mean - oracle) <= 4.0 * se + 1e-12)
        step = gamma / spec.levels
        assert np.abs(mean - g).max() <= step

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_error_bound_exhaustive_scan(self, bits):
        # Dense 1-D scan with a fixed anchor entry pinning gamma = 2.
        # Floor error <= 1 step, dither <= 1/2 step, direction bit <= 1 step:
        # the combination never exceeds 1.5 steps.
        spec = dithered_spec(bits)
        step = 2.0 / spec.levels
        scan = np.linspace(-1.0, 1.0, 4001)
        dithers = [ZeroDither(), ConstantDither(1e-9), ConstantDither(1 - 1e-9), ConstantDither(0.25)]
        for pg_val in (-5.0, 0.0, 5.0):
            for dither in dithers:
                g = np.stack([scan, np.ones_like(scan)], axis=1)
                pgrad = np.full_like(g, pg_val)
                q = quantize_dithered(g, pgrad, spec, dither)
                assert q.scale == 2.0
                assert np.abs(q.value - g).max() <= 1.5 * step + 1e-12

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_error_bound_random_dither(self, bits):
        spec = dithered_spec(bits)
        rng = np.random.default_rng(55)
        for _ in range(20):
            g = rng.uniform(-3, 3, size=(10, 6))
            pgrad = rng.standard_normal((10, 6)) * 5
            q = quantize_dithered(g, pgrad, spec, rng)
            step = q.scale / spec.levels
            assert np.abs(q.value - g).max() <= 1.5 * step * (1 + 1e-12)

    def test_seeded_determinism(self):
        g = np.random.default_rng(6).uniform(-1, 1, size=(5, 5))
        pgrad = np.zeros_like(g)
        spec = dithered_spec(4)
        a = quantize_dithered(g, pgrad, spec, np.random.default_rng(99))
        b = quantize_dithered(g, pgrad, spec, np.random.default_rng(99))
        np.testing.assert_array_equal(a.value, b.value)

    def test_zero_matrix_consumes_no_draws(self):
        rng = np.random.default_rng(7)
        before = rng.bit_generator.state
        q = quantize_dithered(np.zeros((3, 3)), np.zeros((3, 3)), dithered_spec(4), rng)
        assert q.scale == 0.0
        assert rng.bit_generator.state == before


class TestStacked:
    """A stacked (n, d, r) call equals the per-slice 2-D calls bit for bit."""

    @pytest.mark.parametrize("mode", [MODE_NEAREST, MODE_LANDING, MODE_DITHERED])
    def test_matches_per_slice_calls(self, mode):
        rng = np.random.default_rng(12)
        spec = QuantizerSpec(bits=4, mode=mode)
        g = rng.uniform(-2, 2, size=(5, 6, 3)) * rng.uniform(0.1, 10.0, size=(5, 1, 1))
        g[2] = 0.0
        pgrad = rng.standard_normal(g.shape)
        half = 0.5 / spec.levels
        noise = rng.uniform(-half, half, size=g.shape)

        def call(gi, pi, ni):
            if mode == MODE_NEAREST:
                return quantize_nearest(gi, spec)
            if mode == MODE_LANDING:
                return quantize_landing(gi, pi, spec)
            return quantize_dithered(gi, pi, spec, FixedDither(ni))

        stacked = call(g, pgrad, noise)
        assert stacked.scale.shape == (5,)
        assert stacked.value.shape == stacked.codes.shape == g.shape
        for i in range(5):
            single = call(g[i], pgrad[i], noise[i])
            assert isinstance(single.scale, float)
            assert stacked.value[i].tobytes() == single.value.tobytes()
            assert stacked.codes[i].tobytes() == single.codes.tobytes()
            assert stacked.scale[i] == single.scale
        assert stacked.scale[2] == 0.0
        assert not stacked.codes[2].any() and not stacked.value[2].any()

    def test_scale_factor_per_slice(self):
        g = np.zeros((2, 3, 4, 2))
        g[0, 1, 2, 1] = -0.75
        np.testing.assert_array_equal(scale_factor(g), [[0.0, 1.5, 0.0], [0.0, 0.0, 0.0]])


def codes_first_landing(g, pgrad, bits, noise=None):
    """Reference: the codes-first arithmetic the quantizer used to run.
    Float grid indices (floor plus direction bit) first, then values from
    them; a zero slice gives zero values and codes."""
    levels = (1 << bits) - 1
    gamma = scale_factor(g)
    safe = np.where(gamma == 0.0, 1.0, gamma)
    if g.ndim > 2:
        safe = safe[..., None, None]
    shifted = g / safe + 0.5
    if noise is not None:
        shifted = shifted + noise
    codes = np.floor(shifted * levels) + np.rint(0.5 * (1.0 + np.tanh(0.5 * pgrad)))
    value = safe * (codes / levels - 0.5)
    zero = gamma == 0.0
    value[zero] = 0.0
    codes[zero] = 0
    return value, gamma, codes.astype(np.int64)


class TestSnap:
    """The values-first core against quantize_landing and the codes-first reference."""

    @pytest.mark.parametrize("mode", [MODE_LANDING, MODE_DITHERED])
    @pytest.mark.parametrize("bits", [1, 3, 8, 16, 32])
    def test_matches_quantize_landing_and_reference(self, mode, bits):
        rng = np.random.default_rng(bits)
        spec = QuantizerSpec(bits=bits, mode=mode)
        magnitudes = np.array([1e-300, 1e-8, 1.0, 0.0, 1e8, 1e300])[:, None, None]
        g = rng.uniform(-2, 2, size=(6, 7, 3)) * magnitudes  # slice 3 all zero
        pgrad = rng.standard_normal(g.shape)
        pgrad[0, 0, :] = 0.0  # sigmoid ties round to 0
        noise = dither_noise(rng, spec, g.shape) if mode == MODE_DITHERED else None
        for gi, pi, ni in [(g, pgrad, noise), (g[2], pgrad[2], None if noise is None else noise[2])]:
            values, scales = snap(gi, pi, spec, ni)
            q = quantize_landing(gi, pi, spec, ni)
            assert values.tobytes() == q.value.tobytes()
            assert np.asarray(scales).tobytes() == np.asarray(q.scale).tobytes()
            ref_value, ref_scale, ref_codes = codes_first_landing(gi, pi, bits, ni)
            assert values.tobytes() == ref_value.tobytes()
            assert np.asarray(scales).tobytes() == np.asarray(ref_scale).tobytes()
            assert q.codes.tobytes() == ref_codes.tobytes()
        stacked_values, stacked_scales = snap(g, pgrad, spec, noise)
        assert stacked_scales[3] == 0.0 and not stacked_values[3].any()

    def test_dithered_is_snap_with_its_draws(self):
        rng = np.random.default_rng(21)
        spec = dithered_spec(6)
        g = rng.uniform(-1, 1, size=(4, 5, 2))
        g[1] = 0.0
        pgrad = rng.standard_normal(g.shape)
        noise = dither_noise(np.random.default_rng(5), spec, g.shape)
        q = quantize_dithered(g, pgrad, spec, np.random.default_rng(5))
        values, scales = snap(g, pgrad, spec, noise)
        assert q.value.tobytes() == values.tobytes()
        assert q.scale.tobytes() == scales.tobytes()

    def test_nearest_mode_rejected(self):
        with pytest.raises(ValueError):
            snap(np.ones((2, 2)), np.ones((2, 2)), nearest_spec(4))


class TestRangeInvariant:
    @pytest.mark.parametrize("mode", [MODE_NEAREST, MODE_LANDING, MODE_DITHERED])
    @pytest.mark.parametrize("bits", [1, 2, 8, 16])
    def test_output_range(self, mode, bits):
        rng = np.random.default_rng(bits)
        spec = QuantizerSpec(bits=bits, mode=mode)
        for _ in range(10):
            g = rng.uniform(-4, 4, size=(6, 3))
            pgrad = rng.standard_normal((6, 3))
            q = quantize(g, pgrad, spec, rng=rng)
            slack = 1.5 * q.scale / spec.levels
            assert q.value.min() >= g.min() - slack - 1e-12
            assert q.value.max() <= g.max() + slack + 1e-12


class TestReconstruction:
    @pytest.mark.parametrize("mode", [MODE_NEAREST, MODE_LANDING, MODE_DITHERED])
    def test_codes_scale_reproduce_value(self, mode):
        rng = np.random.default_rng(8)
        spec = QuantizerSpec(bits=6, mode=mode)
        g = rng.uniform(-2, 2, size=(7, 4))
        q = quantize(g, rng.standard_normal((7, 4)), spec, rng=rng)
        np.testing.assert_array_equal(dequantize(q.codes, q.scale, spec.bits), q.value)

    @pytest.mark.parametrize("bits", [1, 3, 8, 12])
    def test_pack_roundtrip(self, bits):
        rng = np.random.default_rng(9)
        spec = nearest_spec(bits)
        g = rng.uniform(-1, 1, size=(5, 3))
        q = quantize_nearest(g, spec)
        payload = pack_codes(q, spec)
        assert len(payload) == 8 + (q.codes.size * bits + 7) // 8
        back = unpack_codes(payload, q.codes.shape, spec)
        np.testing.assert_array_equal(back.codes, q.codes)
        assert back.scale == q.scale
        np.testing.assert_array_equal(back.value, q.value)

    def test_pack_pinned_layout(self):
        # 3-bit codes 1, 2, 3, 7 in row-major order, LSB-first: the code
        # stream is 100 010 110 111, i.e. bytes 0b11010001, 0b00001110.
        spec = nearest_spec(3)
        codes = np.array([[1, 2], [3, 7]], dtype=np.int64)
        q = QuantizedGradient(dequantize(codes, 0.5, 3), 0.5, 3, codes)
        payload = pack_codes(q, spec)
        assert payload == struct.pack("<d", 0.5) + bytes([0b11010001, 0b00001110])
        np.testing.assert_array_equal(unpack_codes(payload, (2, 2), spec).codes, codes)

    @pytest.mark.parametrize("bits", [1, 5, 8, 13, 32])
    def test_pack_matches_big_integer_reference(self, bits):
        rng = np.random.default_rng(bits)
        spec = nearest_spec(bits)
        codes = rng.integers(0, spec.levels, size=(7, 3), endpoint=True)
        q = QuantizedGradient(dequantize(codes, 1.0, bits), 1.0, bits, codes)
        word = 0
        for i, c in enumerate(codes.ravel().tolist()):
            word |= c << (i * bits)
        expected = word.to_bytes((codes.size * bits + 7) // 8, "little")
        assert pack_codes(q, spec)[8:] == expected

    def test_pack_rejects_out_of_range(self):
        # A direction bit on a top-of-grid entry overshoots the N-bit range.
        spec = landing_spec(2)
        g = np.array([[0.5], [-0.5]])
        q = quantize_landing(g, np.full_like(g, 10.0), spec)
        assert q.codes.max() == spec.levels + 1
        with pytest.raises(ValueError):
            pack_codes(q, spec)


class TestWireSize:
    def test_values(self):
        rng = np.random.default_rng(10)
        g = rng.standard_normal((10, 5))
        q8 = quantize_nearest(g, nearest_spec(8))
        assert wire_size_bits(q8, nearest_spec(8)) == 464
        g1 = np.ones((1, 1))
        q1 = quantize_nearest(g1, nearest_spec(1))
        assert wire_size_bits(q1, nearest_spec(1)) == 65

    def test_code_portion_linear_in_bits(self):
        rng = np.random.default_rng(11)
        g = rng.standard_normal((6, 6))
        q32 = quantize_nearest(g, nearest_spec(32))
        q8 = quantize_nearest(g, nearest_spec(8))
        code32 = wire_size_bits(q32, nearest_spec(32)) - 64
        code8 = wire_size_bits(q8, nearest_spec(8)) - 64
        assert code32 == 4 * code8
