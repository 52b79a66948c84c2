import struct

import numpy as np
import pytest

from qrgt import QuantizerSpec, dequantize, encode, scale_factor, snap, wire_size_bits
from qrgt.config import algo_config, build_problem, build_topology, parse_config
from qrgt.engine import _Engine, run
from qrgt.quantizers import dither_noise, pack_codes, unpack_codes


def constant_noise(spec, shape, fraction):
    """Dither noise pinned to a fraction of its range (-half, +half) step."""
    half = 0.5 / spec.levels
    return np.full(shape, -half + 2.0 * half * fraction)


def quantized(g, pgrad, spec, noise):
    """(values, scales, codes) of one snap."""
    values, scales = snap(g, pgrad, spec, noise)
    return values, scales, encode(values, scales, spec)


class TestSpec:
    @pytest.mark.parametrize("bits", [0, 33, -1])
    def test_bits_range(self, bits):
        with pytest.raises(ValueError):
            QuantizerSpec(bits=bits)

    @pytest.mark.parametrize("bits", [True, 2.5])
    def test_bits_must_be_an_integer(self, bits):
        # not read as a 1-bit quantizer, nor left to a TypeError in ``levels``
        with pytest.raises(ValueError, match=f"^bits: must be an integer, got {bits!r}$"):
            QuantizerSpec(bits=bits)

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


class TestLanding:
    def test_strongly_negative_pgrad_is_floor(self):
        rng = np.random.default_rng(0)
        g = rng.uniform(-1, 1, size=(5, 4))
        spec = QuantizerSpec(3)
        values, scale, codes = quantized(g, np.full_like(g, -10.0), spec, np.zeros_like(g))
        np.testing.assert_array_equal(codes, np.floor((g / scale + 0.5) * spec.levels))
        # floor never exceeds the input
        assert np.all(values <= g + 1e-15)

    def test_strongly_positive_pgrad_is_one_step_above_floor(self):
        rng = np.random.default_rng(1)
        g = rng.uniform(-1, 1, size=(5, 4))
        spec = QuantizerSpec(3)
        up, scale = snap(g, np.full_like(g, +10.0), spec, np.zeros_like(g))
        down, _ = snap(g, np.full_like(g, -10.0), spec, np.zeros_like(g))
        step = scale / spec.levels
        np.testing.assert_allclose(up - down, step, rtol=0, atol=1e-15)
        assert np.all(up >= g - step)

    def test_zero_pgrad_ties_to_floor(self):
        # sigmoid(0) = 0.5 rounds to 0 under ties-to-even.
        rng = np.random.default_rng(2)
        g = rng.uniform(-1, 1, size=(6, 2))
        spec = QuantizerSpec(4)
        tie, _ = snap(g, np.zeros_like(g), spec, np.zeros_like(g))
        down, _ = snap(g, np.full_like(g, -10.0), spec, np.zeros_like(g))
        np.testing.assert_array_equal(tie, down)

    def test_direction_bit_pattern(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(-2, 2, size=(8, 3))
        pgrad = rng.standard_normal((8, 3))
        spec = QuantizerSpec(5)
        values, scale = snap(g, pgrad, spec, np.zeros_like(g))
        floor_only, _ = snap(g, np.full_like(g, -10.0), spec, np.zeros_like(g))
        step = scale / spec.levels
        bits = np.rint((values - floor_only) / step)
        np.testing.assert_array_equal(bits, (pgrad > 0).astype(float))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            snap(np.ones((2, 2)), np.ones((3, 2)), QuantizerSpec(4), np.zeros((2, 2)))

    @pytest.mark.parametrize("noise", [np.zeros(2), 0.0, np.zeros((2, 3))])
    def test_noise_shape_mismatch(self, noise):
        # A noise of any other shape than g's is refused, even one that
        # would broadcast against g.
        g = np.ones((3, 2))
        with pytest.raises(ValueError, match="noise is"):
            snap(g, np.ones_like(g), QuantizerSpec(4), noise)


class TestDirectionBit:
    """snap's direction bit, pgrad > 2^-52, against the sigmoid form
    rint((1 + tanh(pgrad / 2)) / 2) that it replaced, on the doubles where
    the two could part: the threshold and the 8 doubles on each side of it,
    signed zeros, subnormals, huge values and infinities."""

    THRESHOLD = 2.0**-52

    @staticmethod
    def sigmoid_bit(p):
        return np.rint(0.5 * (1.0 + np.tanh(0.5 * p)))

    @classmethod
    def probes(cls):
        below = [cls.THRESHOLD]
        above = [cls.THRESHOLD]
        for _ in range(8):
            below.append(np.nextafter(below[-1], -np.inf))
            above.append(np.nextafter(above[-1], np.inf))
        tiny = np.finfo(float).tiny
        edges = [0.0, -0.0, 5e-324, -5e-324, tiny / 2, -tiny / 2, 1e300, -1e300, np.inf, -np.inf]
        return np.array(below + above[1:] + edges)

    def test_forms_agree(self):
        p = self.probes()
        assert p.size == 27
        np.testing.assert_array_equal(p > self.THRESHOLD, self.sigmoid_bit(p))
        # the sigmoid form turns from 0 to 1 between the threshold and the next double
        assert self.sigmoid_bit(self.THRESHOLD) == 0.0
        assert self.sigmoid_bit(np.nextafter(self.THRESHOLD, np.inf)) == 1.0

    def test_snap_raises_by_the_sigmoid_bit(self):
        p = self.probes()[:, None]
        g = np.random.default_rng(4).uniform(-1, 1, size=p.shape)
        spec = QuantizerSpec(6)
        values, scale = snap(g, p, spec, np.zeros_like(g))
        floor_only, _ = snap(g, np.full_like(g, -1.0), spec, np.zeros_like(g))
        np.testing.assert_array_equal(np.rint((values - floor_only) / (scale / spec.levels)), self.sigmoid_bit(p))

    def test_nan_pgrad_gives_bit_zero(self):
        # The sigmoid form gave a NaN value here.
        g = np.array([[0.3, -0.2], [0.1, 0.05]])
        spec = QuantizerSpec(4)
        values, scale = snap(g, np.array([[np.nan, -1.0], [1.0, np.nan]]), spec, np.zeros_like(g))
        floor_only, _ = snap(g, np.full_like(g, -1.0), spec, np.zeros_like(g))
        np.testing.assert_array_equal(np.rint((values - floor_only) / (scale / spec.levels)), [[0, 0], [1, 0]])


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
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_monte_carlo_mean_matches_exact_integral(self, bits):
        # 1e5 dithered draws of one fixed matrix with pgrad = 0: the mean
        # must match the exact integral within 4 standard errors, and sit
        # within one grid step of the input.
        g = np.array([[0.31, -0.5], [0.11, 0.47]])
        pgrad = np.zeros_like(g)
        spec = QuantizerSpec(bits)
        rng = np.random.default_rng(1000 + bits)
        n_draws = 100_000
        total = np.zeros_like(g)
        total_sq = np.zeros_like(g)
        for _ in range(n_draws):
            v, _ = snap(g, pgrad, spec, dither_noise(rng, spec, g.shape))
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
        spec = QuantizerSpec(bits)
        step = 2.0 / spec.levels
        scan = np.linspace(-1.0, 1.0, 4001)
        g = np.stack([scan, np.ones_like(scan)], axis=1)
        for pg_val in (-5.0, 0.0, 5.0):
            pgrad = np.full_like(g, pg_val)
            noises = [np.zeros_like(g)] + [constant_noise(spec, g.shape, f) for f in (1e-9, 1 - 1e-9, 0.25)]
            for noise in noises:
                values, scale = snap(g, pgrad, spec, noise)
                assert scale == 2.0
                assert np.abs(values - g).max() <= 1.5 * step + 1e-12

    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_error_bound_random_dither(self, bits):
        spec = QuantizerSpec(bits)
        rng = np.random.default_rng(55)
        for _ in range(20):
            g = rng.uniform(-3, 3, size=(10, 6))
            pgrad = rng.standard_normal((10, 6)) * 5
            values, scale = snap(g, pgrad, spec, dither_noise(rng, spec, g.shape))
            step = scale / spec.levels
            assert np.abs(values - g).max() <= 1.5 * step * (1 + 1e-12)

    def test_seeded_determinism(self):
        g = np.random.default_rng(6).uniform(-1, 1, size=(5, 5))
        pgrad = np.zeros_like(g)
        spec = QuantizerSpec(4)
        a, _ = snap(g, pgrad, spec, dither_noise(np.random.default_rng(99), spec, g.shape))
        b, _ = snap(g, pgrad, spec, dither_noise(np.random.default_rng(99), spec, g.shape))
        np.testing.assert_array_equal(a, b)


class TestDitherBuffer:
    @pytest.mark.parametrize("shape", [(10, 16, 10, 5), (10, 16, 784, 5)])
    def test_buffer_draw_is_uniform(self, shape):
        # Refilling one buffer gives, block after block, what a fresh
        # uniform draw from the same stream gives.
        spec = QuantizerSpec(8)
        half = 0.5 / spec.levels
        rng, fresh = np.random.default_rng(17), np.random.default_rng(17)
        buf = np.empty(shape)
        for _ in range(2):
            assert dither_noise(rng, spec, shape, buf) is buf
            assert buf.tobytes() == fresh.uniform(-half, half, shape).tobytes()


class TestStacked:
    """A stacked (n, d, r) call equals the per-slice 2-D calls bit for bit."""

    @pytest.mark.parametrize("mode", ["landing", "dithered"])
    def test_matches_per_slice_calls(self, mode):
        rng = np.random.default_rng(12)
        spec = QuantizerSpec(4)
        g = rng.uniform(-2, 2, size=(5, 6, 3)) * rng.uniform(0.1, 10.0, size=(5, 1, 1))
        g[2] = 0.0
        pgrad = rng.standard_normal(g.shape)
        noise = dither_noise(rng, spec, g.shape) if mode == "dithered" else np.zeros_like(g)

        values, scales, codes = quantized(g, pgrad, spec, noise)
        assert scales.shape == (5,)
        assert values.shape == codes.shape == g.shape
        for i in range(5):
            single = quantized(g[i], pgrad[i], spec, noise[i])
            assert isinstance(single[1], float)
            assert values[i].tobytes() == single[0].tobytes()
            assert codes[i].tobytes() == single[2].tobytes()
            assert scales[i] == single[1]
        assert scales[2] == 0.0
        assert not codes[2].any() and not values[2].any()

    def test_scale_factor_per_slice(self):
        g = np.zeros((2, 3, 4, 2))
        g[0, 1, 2, 1] = -0.75
        np.testing.assert_array_equal(scale_factor(g), [[0.0, 1.5, 0.0], [0.0, 0.0, 0.0]])


def codes_first_landing(g, pgrad, bits, noise):
    """Reference: the codes-first arithmetic the quantizer used to run.
    Float grid indices (floor plus direction bit) first, then values from
    them; a zero slice gives zero values and codes."""
    levels = (1 << bits) - 1
    gamma = scale_factor(g)
    safe = np.where(gamma == 0.0, 1.0, gamma)
    if g.ndim > 2:
        safe = safe[..., None, None]
    shifted = g / safe + 0.5 + noise
    codes = np.floor(shifted * levels) + np.rint(0.5 * (1.0 + np.tanh(0.5 * pgrad)))
    value = safe * (codes / levels - 0.5)
    zero = gamma == 0.0
    value[zero] = 0.0
    codes[zero] = 0
    return value, gamma, codes.astype(np.int64)


class TestSnap:
    """The values-first snap and ``encode`` against the codes-first reference."""

    @pytest.mark.parametrize("mode", ["landing", "dithered"])
    @pytest.mark.parametrize("bits", [1, 3, 8, 16, 32])
    def test_matches_codes_first_reference(self, mode, bits):
        rng = np.random.default_rng(bits)
        spec = QuantizerSpec(bits)
        magnitudes = np.array([1e-300, 1e-8, 1.0, 0.0, 1e8, 1e300])[:, None, None]
        g = rng.uniform(-2, 2, size=(6, 7, 3)) * magnitudes  # slice 3 all zero
        pgrad = rng.standard_normal(g.shape)
        pgrad[0, 0, :] = 0.0  # sigmoid ties round to 0
        noise = dither_noise(rng, spec, g.shape) if mode == "dithered" else np.zeros_like(g)
        for gi, pi, ni in [(g, pgrad, noise), (g[2], pgrad[2], noise[2])]:
            values, scales, codes = quantized(gi, pi, spec, ni)
            ref_value, ref_scale, ref_codes = codes_first_landing(gi, pi, bits, ni)
            assert values.tobytes() == ref_value.tobytes()
            assert np.asarray(scales).tobytes() == np.asarray(ref_scale).tobytes()
            assert codes.tobytes() == ref_codes.tobytes()
        stacked_values, stacked_scales = snap(g, pgrad, spec, noise)
        assert stacked_scales[3] == 0.0 and not stacked_values[3].any()

    def test_dithered_is_snap_with_its_draws(self):
        # dither_noise is one row-major uniform draw per entry on
        # (-half, +half) step, zero slices included; snap adds it before
        # flooring, as the codes-first reference does.
        spec = QuantizerSpec(6)
        rng = np.random.default_rng(21)
        g = rng.uniform(-1, 1, size=(4, 5, 2))
        g[1] = 0.0
        pgrad = rng.standard_normal(g.shape)
        half = 0.5 / spec.levels
        noise = dither_noise(np.random.default_rng(5), spec, g.shape)
        assert noise.tobytes() == np.random.default_rng(5).uniform(-half, half, g.shape).tobytes()
        assert np.abs(noise).max() < half
        values, scales, codes = quantized(g, pgrad, spec, noise)
        ref_value, ref_scale, ref_codes = codes_first_landing(g, pgrad, spec.bits, noise)
        assert values.tobytes() == ref_value.tobytes()
        assert scales.tobytes() == ref_scale.tobytes()
        assert codes.tobytes() == ref_codes.tobytes()


class TestRangeInvariant:
    @pytest.mark.parametrize("mode", ["landing", "dithered"])
    @pytest.mark.parametrize("bits", [1, 2, 8, 16])
    def test_output_range(self, mode, bits):
        rng = np.random.default_rng(bits)
        spec = QuantizerSpec(bits)
        for _ in range(10):
            g = rng.uniform(-4, 4, size=(6, 3))
            pgrad = rng.standard_normal((6, 3))
            noise = dither_noise(rng, spec, g.shape) if mode == "dithered" else np.zeros_like(g)
            values, scale = snap(g, pgrad, spec, noise)
            slack = 1.5 * scale / spec.levels
            assert values.min() >= g.min() - slack - 1e-12
            assert values.max() <= g.max() + slack + 1e-12


class TestReconstruction:
    @pytest.mark.parametrize("mode", ["landing", "dithered"])
    def test_codes_scale_reproduce_value(self, mode):
        rng = np.random.default_rng(8)
        spec = QuantizerSpec(6)
        g = rng.uniform(-2, 2, size=(7, 4))
        pgrad = rng.standard_normal((7, 4))
        noise = dither_noise(rng, spec, g.shape) if mode == "dithered" else np.zeros_like(g)
        values, scale, codes = quantized(g, pgrad, spec, noise)
        np.testing.assert_array_equal(dequantize(codes, scale, spec.bits), values)

    @pytest.mark.parametrize("bits", [1, 3, 8, 12])
    def test_pack_roundtrip(self, bits):
        # A snap with every direction bit clear stays on the N-bit grid.
        rng = np.random.default_rng(9)
        spec = QuantizerSpec(bits)
        g = rng.uniform(-1, 1, size=(5, 3))
        values, scale, codes = quantized(g, np.full_like(g, -10.0), spec, np.zeros_like(g))
        payload = pack_codes(codes, scale, spec)
        assert len(payload) == 8 + (codes.size * bits + 7) // 8
        back, back_scale = unpack_codes(payload, codes.shape, spec)
        np.testing.assert_array_equal(back, codes)
        assert back_scale == scale
        np.testing.assert_array_equal(dequantize(back, back_scale, bits), values)

    def test_pack_pinned_layout(self):
        # 3-bit codes 1, 2, 3, 7 in row-major order, LSB-first: the code
        # stream is 100 010 110 111, i.e. bytes 0b11010001, 0b00001110.
        spec = QuantizerSpec(3)
        codes = np.array([[1, 2], [3, 7]], dtype=np.int64)
        payload = pack_codes(codes, 0.5, spec)
        assert payload == struct.pack("<d", 0.5) + bytes([0b11010001, 0b00001110])
        np.testing.assert_array_equal(unpack_codes(payload, (2, 2), spec)[0], codes)

    @pytest.mark.parametrize("bits", [1, 5, 8, 13, 32])
    def test_pack_matches_big_integer_reference(self, bits):
        rng = np.random.default_rng(bits)
        spec = QuantizerSpec(bits)
        codes = rng.integers(0, spec.levels, size=(7, 3), endpoint=True)
        word = 0
        for i, c in enumerate(codes.ravel().tolist()):
            word |= c << (i * bits)
        expected = word.to_bytes((codes.size * bits + 7) // 8, "little")
        assert pack_codes(codes, 1.0, spec)[8:] == expected

    def test_pack_rejects_out_of_range(self):
        # A direction bit on a top-of-grid entry overshoots the N-bit range.
        spec = QuantizerSpec(2)
        g = np.array([[0.5], [-0.5]])
        _, scale, codes = quantized(g, np.full_like(g, 10.0), spec, np.zeros_like(g))
        assert codes.max() == spec.levels + 1
        with pytest.raises(ValueError):
            pack_codes(codes, scale, spec)

    def test_pack_refuses_a_stack_of_scales(self):
        spec = QuantizerSpec(4)
        with pytest.raises(ValueError, match=r"shape \(2,\)"):
            pack_codes(np.zeros((2, 3, 2), dtype=np.int64), np.array([1.0, 2.0]), spec)

    @pytest.mark.parametrize("bits", [3, 8])
    def test_unpack_checks_payload_length(self, bits):
        # 7 entries: 8 + ceil(7 N / 8) bytes, the last byte partly padding
        # at 3 bits. A short payload would otherwise decode its missing
        # bytes as zero codes.
        spec = QuantizerSpec(bits)
        codes = np.random.default_rng(bits).integers(0, spec.levels, size=(7, 1), endpoint=True)
        payload = pack_codes(codes, 1.0, spec)
        assert len(payload) == 8 + (7 * bits + 7) // 8
        for bad in (payload[:-3], payload + b"\x00"):
            with pytest.raises(ValueError, match="payload"):
                unpack_codes(bad, codes.shape, spec)
        np.testing.assert_array_equal(unpack_codes(payload, codes.shape, spec)[0], codes)


class TestWireSize:
    def test_values(self):
        assert wire_size_bits(50, QuantizerSpec(8)) == 464
        assert wire_size_bits(1, QuantizerSpec(1)) == 65

    def test_code_portion_linear_in_bits(self):
        code32 = wire_size_bits(36, QuantizerSpec(32)) - 64
        code8 = wire_size_bits(36, QuantizerSpec(8)) - 64
        assert code32 == 4 * code8


class TestRunMessages:
    """Every message a preset Q-RGT run sends, through the wire format."""

    @pytest.mark.parametrize("bits", [2, 8])
    def test_in_range_messages_round_trip_and_others_are_refused(self, bits, monkeypatch):
        cfg = parse_config(preset="synthetic", overrides={"bits": bits, "max_epochs": 200, "ds_tol": 0.0})
        inst = build_problem(cfg)
        spec = QuantizerSpec(bits)
        sent = []
        quantize_all = _Engine.quantize_all

        def recording(self, *args):
            values, scales, empty = quantize_all(self, *args)
            assert empty is None
            sent.append((values.copy(), scales.copy()))
            return values, scales, empty

        monkeypatch.setattr(_Engine, "quantize_all", recording)
        trace = run(inst, build_topology(cfg), algo_config(cfg, inst))
        assert len(trace.rows) == 200 and len(sent) == 201

        entries = inst.dims.d * inst.dims.r
        packed = refused = 0
        for values, scales in sent:
            codes = encode(values, scales, spec)
            for value, scale, code in zip(values, scales, codes):
                if code.min() >= 0 and code.max() <= spec.levels:
                    payload = pack_codes(code, scale, spec)
                    assert 0 <= 8 * len(payload) - wire_size_bits(entries, spec) < 8
                    back, back_scale = unpack_codes(payload, code.shape, spec)
                    assert back.tobytes() == code.tobytes()
                    assert back_scale == scale
                    assert dequantize(back, back_scale, bits).tobytes() == value.tobytes()
                    packed += 1
                else:
                    with pytest.raises(ValueError, match="N-bit range"):
                        pack_codes(code, scale, spec)
                    refused += 1
        assert packed + refused == 201 * inst.n_agents
        assert packed > 0 and refused > 0
