import re
import struct
import threading
import tracemalloc
import warnings
from collections import Counter

import numpy as np
import pytest

from qrgt import (
    SyntheticSpec,
    generate_synthetic,
    load_mnist,
    make_instance,
    mnist_blocks,
    random_stiefel,
    solve_ground_truth,
    subspace_distance,
    synthetic_blocks,
)
from qrgt import problems, workers
from qrgt.config import build_problem, parse_config
from qrgt.problems import DegenerateGapWarning, IdxFormatError
from qrgt.streams import STREAM_DATA, STREAM_SHUFFLE, stream_rng

from reference import fill_from, filled_blocks, global_objective, local_grad

MAGIC = 0x00000803


def write_idx3(path, images: np.ndarray) -> None:
    """images: (count, rows, cols) uint8."""
    header = struct.pack(">IIII", MAGIC, *images.shape)
    path.write_bytes(header + images.tobytes())


def small_spec(seed=0, n=4, m=50, d=6, r=2, eigengap=0.5):
    return SyntheticSpec(n=n, m=m, d=d, r=r, eigengap=eigengap, leading_sv=2.0, seed=seed)


def small_instance(**kw):
    return generate_synthetic(small_spec(**kw))


def synthetic_data(spec):
    """The agents' blocks of a synthetic instance, as a list."""
    return filled_blocks((spec.m,) * spec.n, spec.d, synthetic_blocks(spec)[0])


def mnist_data(path, n, seed):
    """The agents' row counts and blocks of an IDX3 file, as a list."""
    row_counts, d, fill = mnist_blocks(path, n, seed)
    return row_counts, filled_blocks(row_counts, d, fill)


class TestSyntheticSpec:
    def test_eigengap_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                SyntheticSpec(n=2, m=10, d=4, r=2, eigengap=bad)

    def test_rank_deficiency_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=2, m=1, d=4, r=2, eigengap=0.5)

    @pytest.mark.parametrize("bad", [0.0, -1.0, 1e200, float("nan")])
    def test_leading_sv_needs_a_positive_finite_square(self, bad):
        with pytest.raises(ValueError, match="leading_sv"):
            SyntheticSpec(n=2, m=10, d=4, r=2, eigengap=0.5, leading_sv=bad)

    @pytest.mark.parametrize(
        "field, value, word",
        [
            ("n", 2.5, "an integer"),
            ("n", True, "an integer"),
            ("m", True, "an integer"),
            ("d", 6.0, "an integer"),
            ("r", True, "an integer"),
            ("seed", 0.5, "an integer"),
            ("eigengap", "0.5", "a real number"),
            ("eigengap", True, "a real number"),
            ("leading_sv", False, "a real number"),
        ],
    )
    def test_non_number_rejected(self, field, value, word):
        # each is refused naming its field, not read as 1 or left to a TypeError
        kwargs = dict(n=2, m=20, d=6, r=2, eigengap=0.8, seed=0, leading_sv=1.0) | {field: value}
        with pytest.raises(ValueError, match=f"^{field}: must be {word}, got {re.escape(repr(value))}$"):
            SyntheticSpec(**kwargs)


    def test_negative_seed_rejected(self):
        # in AlgoConfig's words, not numpy's "expected non-negative integer"
        with pytest.raises(ValueError, match="^seed: must be >= 0, got -1$"):
            SyntheticSpec(n=2, m=20, d=6, r=2, eigengap=0.8, seed=-1)


class TestLocalGradient:
    def test_zero_point(self):
        inst = small_instance()
        assert np.all(local_grad(inst, 0, np.zeros((6, 2))) == 0.0)

    @pytest.mark.filterwarnings("ignore::qrgt.problems.DegenerateGapWarning")
    def test_identity_data(self, rng):
        inst = make_instance((5,), 5, fill_from([np.eye(5)]), r=2)
        x = random_stiefel(5, 2, rng)
        np.testing.assert_allclose(local_grad(inst, 0, x), -x, atol=1e-14)

    def test_agent_out_of_range(self):
        inst = small_instance()
        with pytest.raises(IndexError):
            local_grad(inst, 4, np.zeros((6, 2)))

    def test_matches_finite_differences(self):
        # f_i(x) = -||A_i x||^2 / 2 via central differences, step 1e-6.
        inst = small_instance(seed=3)
        rng = np.random.default_rng(4)
        a = synthetic_data(small_spec(seed=3))[1]
        eps = 1e-6
        for _ in range(20):
            x = rng.standard_normal((6, 2))
            h = rng.standard_normal((6, 2))
            h /= np.linalg.norm(h)
            f = lambda y: -0.5 * np.sum((a @ y) ** 2)
            fd = (f(x + eps * h) - f(x - eps * h)) / (2 * eps)
            an = float(np.sum(local_grad(inst, 1, x) * h))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    def test_gram_and_direct_paths_agree(self, rng):
        # An agent with fewer rows than columns (m_i < d) gets the same
        # gradient from its Gram as from the two data products.
        tall = rng.standard_normal((10, 4))
        wide = rng.standard_normal((2, 4))
        inst = make_instance((10, 2), 4, fill_from([tall, wide]), r=2)
        x = rng.standard_normal((4, 2))
        np.testing.assert_allclose(
            local_grad(inst, 1, x), -(wide.T @ (wide @ x)), atol=1e-13
        )

    def test_average_matches_global_gradient(self, rng):
        inst = small_instance(seed=5)
        x = rng.standard_normal((6, 2))
        avg = np.mean(
            [local_grad(inst, i, x) for i in range(inst.n_agents)], axis=0
        )
        np.testing.assert_allclose(avg, -(inst.mean_gram @ x), rtol=1e-10, atol=1e-12)


class TestGlobalObjective:
    def test_zero(self):
        inst = small_instance()
        assert global_objective(inst, np.zeros((6, 2))) == 0.0

    def test_at_optimum(self):
        inst = small_instance(seed=6)
        assert global_objective(inst, inst.x_star) == pytest.approx(inst.f_star, rel=1e-12)

    def test_ground_truth_dominates(self):
        inst = small_instance(seed=7)
        rng = np.random.default_rng(8)
        for _ in range(100):
            x = random_stiefel(6, 2, rng)
            assert global_objective(inst, x) >= inst.f_star - 1e-10


class TestGroundTruth:
    def test_identity_single_agent(self):
        with pytest.warns(DegenerateGapWarning):
            x_star, f_star = solve_ground_truth(np.eye(4), n=1, r=2)
        # Flat spectrum: any orthonormal pair is optimal; value is -r/2.
        assert f_star == pytest.approx(-1.0)
        assert np.allclose(x_star.T @ x_star, np.eye(2), atol=1e-12)

    def test_full_rank_spans_everything(self, rng):
        data = [rng.standard_normal((20, 4)) for _ in range(3)]
        x_star, f_star = solve_ground_truth(sum(a.T @ a for a in data), n=3, r=4)
        frob_sq = sum(np.sum(a**2) for a in data)
        assert f_star == pytest.approx(-frob_sq / (2 * 3), rel=1e-12)

    def test_planted_recovery(self):
        inst = generate_synthetic(
            SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, seed=42)
        )
        assert subspace_distance(inst.x_star, inst.planted_basis) <= 1e-8

    def test_x_star_on_manifold(self):
        inst = small_instance(seed=9)
        assert np.linalg.norm(inst.x_star.T @ inst.x_star - np.eye(2)) <= 1e-10


class TestGenerateSynthetic:
    def test_spectrum_profile(self):
        spec = SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, leading_sv=3.0, seed=1)
        stacked = np.vstack(synthetic_data(spec))
        sv = np.linalg.svd(stacked, compute_uv=False)
        expected = 3.0 * 0.8 ** (np.arange(10) / 2)
        np.testing.assert_allclose(sv, expected, rtol=1e-8)

    def test_consecutive_ratio_is_sqrt_gap(self):
        data = synthetic_data(small_spec(seed=2, eigengap=0.6))
        sv = np.linalg.svd(np.vstack(data), compute_uv=False)
        np.testing.assert_allclose(sv[1:] / sv[:-1], np.sqrt(0.6), rtol=1e-8)

    def test_relative_gap_monotone_in_eigengap(self):
        # sigma_r / sigma_{r+1} = eigengap^{-1/2} shrinks toward 1 as the
        # eigengap parameter approaches 1.
        gaps = []
        for delta in (0.3, 0.5, 0.7, 0.9):
            data = synthetic_data(small_spec(seed=11, eigengap=delta))
            sv = np.linalg.svd(np.vstack(data), compute_uv=False)
            gaps.append(sv[1] / sv[2])  # r = 2
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_seed_determinism(self):
        for x, y in zip(synthetic_data(small_spec(seed=12)), synthetic_data(small_spec(seed=12))):
            np.testing.assert_array_equal(x, y)
        a = small_instance(seed=12)
        b = small_instance(seed=12)
        np.testing.assert_array_equal(a.grams, b.grams)
        np.testing.assert_array_equal(a.x_star, b.x_star)

    def test_row_split_even(self):
        inst = small_instance(n=4, m=50)
        assert inst.row_counts == (50, 50, 50, 50)
        assert [a.shape for a in synthetic_data(small_spec(n=4, m=50))] == [(50, 6)] * 4

    @pytest.mark.parametrize("n, m, d", [(4, 50, 6), (16, 1000, 10), (3, 2, 5)])
    def test_block_draws_equal_one_tall_draw(self, n, m, d):
        # generate_synthetic draws one (m, d) block per agent: the same
        # values, in the same order, as one (n*m, d) draw of the stream.
        rng = stream_rng(7, STREAM_DATA)
        blocks = [rng.standard_normal((m, d)) for _ in range(n)]
        tall = stream_rng(7, STREAM_DATA).standard_normal((n * m, d))
        assert np.concatenate(blocks).tobytes() == tall.tobytes()

    @pytest.mark.parametrize("n, m, d", [(4, 50, 6), (3, 2, 5)])
    def test_matches_tall_svd_construction(self, n, m, d):
        # Reference: the SVD of the whole stacked draw, spectrum replaced.
        spec = SyntheticSpec(n=n, m=m, d=d, r=2, eigengap=0.5, leading_sv=2.0, seed=3)
        inst = generate_synthetic(spec)
        g = stream_rng(spec.seed, STREAM_DATA).standard_normal((n * m, d))
        u, _, vt = np.linalg.svd(g, full_matrices=False)
        sv = spec.leading_sv * spec.eigengap ** (np.arange(d) / 2.0)
        np.testing.assert_allclose(np.vstack(synthetic_data(spec)), (u * sv) @ vt, rtol=0, atol=1e-12)
        planted = vt.T[:, :2]
        np.testing.assert_allclose(
            inst.planted_basis @ inst.planted_basis.T, planted @ planted.T, rtol=0, atol=1e-12
        )

    def test_square_case_spectrum_over_seeds(self):
        # n*m = d: the stacked draw is square and at times ill-conditioned;
        # the tall-skinny QR keeps the spectrum to 1e-10 on every seed
        # (a factor from eigh(g^T g) misses by ~1e-8 on some of them).
        sv = 0.5 ** (np.arange(4) / 2.0)
        for seed in range(200):
            data = synthetic_data(SyntheticSpec(n=2, m=2, d=4, r=2, eigengap=0.5, seed=seed))
            got = np.linalg.svd(np.vstack(data), compute_uv=False)
            np.testing.assert_allclose(got, sv, rtol=1e-10, err_msg=f"seed {seed}")


class TestMakeInstance:
    def test_streamed_grams_equal_full_block_grams(self):
        spec = SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, seed=2)
        inst = generate_synthetic(spec)
        data = synthetic_data(spec)
        assert len(data) == inst.n_agents == 16
        for gram, a in zip(inst.grams, data):
            assert gram.tobytes() == np.matmul(a.T, a).tobytes()

    def test_keeps_row_counts_not_blocks(self, rng):
        blocks = [rng.standard_normal((m, 4)) for m in (3, 7, 2)]
        inst = make_instance((3, 7, 2), 4, fill_from(blocks), r=2)
        assert inst.row_counts == (3, 7, 2)
        assert inst.n_agents == 3 and inst.total_rows == 12
        np.testing.assert_array_equal(inst.mean_gram, sum(a.T @ a for a in blocks) / 3)

    def test_no_agents_rejected(self):
        with pytest.raises(ValueError, match="need at least one agent"):
            make_instance((), 4, fill_from([]), r=2)


class TestMnist:
    def make_images(self, count=40, rows=4, cols=5, seed=0):
        rng = np.random.default_rng(seed)
        return rng.integers(0, 256, size=(count, rows, cols), dtype=np.uint8)

    def test_roundtrip_shape_and_range(self, tmp_path):
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images())
        inst = load_mnist(path, n=4, r=3, seed=1)
        assert inst.n_agents == 4
        assert inst.total_rows == 40
        assert inst.dims.d == 20
        stacked = np.vstack(mnist_data(path, n=4, seed=1)[1])
        assert stacked.shape == (40, 20)
        assert stacked.min() >= 0.0 and stacked.max() <= 1.0

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.idx3"
        images = self.make_images()
        payload = struct.pack(">IIII", 0x00000801, *images.shape) + images.tobytes()
        path.write_bytes(payload)
        with pytest.raises(IdxFormatError, match="magic"):
            load_mnist(path, n=4)

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "short.idx3"
        images = self.make_images()
        write_idx3(path, images)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(IdxFormatError, match="expected"):
            load_mnist(path, n=4)

    def test_truncated_header_rejected(self, tmp_path):
        path = tmp_path / "stub.idx3"
        path.write_bytes(b"\x00\x00\x08")
        with pytest.raises(IdxFormatError, match="header"):
            load_mnist(path, n=4)

    def test_file_closed_on_malformed_input(self, tmp_path):
        path = tmp_path / "stub.idx3"
        path.write_bytes(b"\x00\x00\x08")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(IdxFormatError):
                load_mnist(path, n=4)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_remainder_goes_to_last_agent(self, tmp_path):
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=50))
        inst = load_mnist(path, n=16, r=2, seed=0)
        row_counts, blocks = mnist_data(path, n=16, seed=0)
        assert inst.row_counts == row_counts
        sizes = [a.shape[0] for a in blocks]
        assert list(row_counts) == sizes
        assert sizes[:-1] == [3] * 15
        assert sizes[-1] == 5

    def test_partition_complete_no_row_lost(self, tmp_path):
        # Multiset of row payloads is preserved across shuffle + split.
        path = tmp_path / "images.idx3"
        images = self.make_images(count=30, rows=3, cols=3, seed=5)
        write_idx3(path, images)
        original = Counter(
            (images.reshape(30, -1).astype(float) / 255.0)[i].tobytes() for i in range(30)
        )
        loaded = Counter(
            row.tobytes() for a in mnist_data(path, n=4, seed=9)[1] for row in a
        )
        assert loaded == original

    def test_peak_memory_holds_one_float_copy(self, tmp_path):
        # The agents' blocks are views of a single float64 image matrix, and
        # no second float64 copy exists while it is built.
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=20000, rows=10, cols=10, seed=3))
        tracemalloc.start()
        try:
            inst = load_mnist(path, n=2, r=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.total_rows == 20000
        assert peak < 1.5 * 20000 * 100 * 8

    def test_fewer_images_than_agents_rejected(self, tmp_path):
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=10))
        with pytest.raises(IdxFormatError, match="10 images for 16 agents"):
            load_mnist(path, n=16)

    @pytest.mark.parametrize(
        "n, error", [(0, "n: must be >= 1, got 0"), (-1, "n: must be >= 1, got -1"), (2.5, "n: must be an integer, got 2.5")]
    )
    def test_agent_count_checked_before_the_split(self, tmp_path, n, error):
        # not a ZeroDivisionError from the split, nor a slice of the permutation
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=10))
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            load_mnist(path, n=n)

    @pytest.mark.parametrize(
        "seed, error", [(-1, "seed: must be >= 0, got -1"), (1.5, "seed: must be an integer, got 1.5"), (True, "seed: must be an integer, got True")]
    )
    def test_seed_checked_before_the_shuffle(self, tmp_path, seed, error):
        # not numpy's SeedSequence error, and True is not read as seed 1
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=10))
        with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
            mnist_blocks(path, 2, seed=seed)

    def test_streamed_grams_equal_full_block_grams(self, tmp_path):
        # Reference: the whole shuffled float64 matrix, split into row views,
        # and the Gram of each view; the streamed stack matches bit for bit.
        path = tmp_path / "images.idx3"
        images = self.make_images(count=203, rows=6, cols=7, seed=4)
        write_idx3(path, images)
        perm = stream_rng(5, STREAM_SHUFFLE).permutation(203)
        full = np.divide(images.reshape(203, -1)[perm], 255.0, dtype=float)
        inst = load_mnist(path, n=6, r=2, seed=5)
        bounds = [0, 33, 66, 99, 132, 165, 203]
        for i, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            a = full[lo:hi]
            assert inst.grams[i].tobytes() == np.matmul(a.T, a).tobytes()

    def test_peak_memory_below_one_block_pair(self, tmp_path):
        # n=8: each agent's float64 block is 1/8 of the data. The blocks are
        # made one at a time and dropped once their Gram is written, so the
        # peak stays well below the float64 data size (two blocks alive at
        # once would reach about 0.45 of it; one full matrix, 1.0).
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=20000, rows=10, cols=10, seed=3))
        tracemalloc.start()
        try:
            inst = load_mnist(path, n=8, r=5, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert inst.total_rows == 20000
        assert peak < 0.5 * 20000 * 100 * 8

    def test_shuffle_depends_on_seed(self, tmp_path):
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=64, seed=2))
        a = mnist_data(path, n=4, seed=1)[1]
        b = mnist_data(path, n=4, seed=1)[1]
        c = mnist_data(path, n=4, seed=2)[1]
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])
        np.testing.assert_array_equal(
            load_mnist(path, n=4, r=2, seed=1).grams, load_mnist(path, n=4, r=2, seed=1).grams
        )
        assert not np.array_equal(
            load_mnist(path, n=4, r=2, seed=1).grams, load_mnist(path, n=4, r=2, seed=2).grams
        )


class TestSplitBuild:
    """make_instance split over the pinned pool builds the one-thread
    instance bit for bit, with one caller-owned buffer per chunk."""

    @staticmethod
    def recorded_build(monkeypatch, build):
        """``build()`` and the (lo, hi, buffer rows, thread) of each chunk it ran."""
        chunks = []
        chunk_grams = problems._chunk_grams

        def recording(fill, row_counts, grams, buf, lo, hi):
            chunks.append((lo, hi, buf.shape[0], threading.current_thread() is threading.main_thread()))
            chunk_grams(fill, row_counts, grams, buf, lo, hi)

        with monkeypatch.context() as patch:
            patch.setattr(problems, "_chunk_grams", recording)
            inst = build()
        return inst, sorted(chunks)

    def assert_serial_equal(self, monkeypatch, split, build):
        with monkeypatch.context() as patch:
            patch.setattr(workers, "SPLIT_GRAM_BYTES", 1 << 62)
            serial, chunks = self.recorded_build(monkeypatch, build)
        assert chunks == [(0, split.n_agents, max(split.row_counts), True)]
        assert split.row_counts == serial.row_counts
        assert split.grams.tobytes() == serial.grams.tobytes()
        assert split.mean_gram.tobytes() == serial.mean_gram.tobytes()
        assert split.x_star.tobytes() == serial.x_star.tobytes()
        assert split.f_star == serial.f_star

    def test_synthetic_preset_bit_equal(self, monkeypatch, split_forced):
        cfg = parse_config(preset="synthetic")
        split, chunks = self.recorded_build(monkeypatch, lambda: build_problem(cfg))
        assert chunks == [(0, 8, 1000, False), (8, 16, 1000, False)]
        self.assert_serial_equal(monkeypatch, split, lambda: build_problem(cfg))

    def test_idx_uneven_three_chunks_bit_equal(self, monkeypatch, split_forced, tmp_path):
        # 53 images over 5 agents: rows (10, 10, 10, 10, 13), chunks of 1, 2 and 2
        # agents; the last chunk's buffer has 13 rows and agent 3 fills 10 of them.
        monkeypatch.setattr(workers, "_THREADS", 3)
        path = tmp_path / "images.idx3"
        write_idx3(path, TestMnist().make_images(count=53, seed=8))
        build = lambda: load_mnist(path, n=5, r=2, seed=3)
        split, chunks = self.recorded_build(monkeypatch, build)
        assert chunks == [(0, 1, 10, False), (1, 3, 10, False), (3, 5, 13, False)]
        assert split.row_counts == (10, 10, 10, 10, 13)
        self.assert_serial_equal(monkeypatch, split, build)

    @pytest.mark.parametrize("failing, named", [({3}, 3), ({1, 3}, 1)])
    def test_producer_error_reaches_caller(self, monkeypatch, split_forced, failing, named):
        # n=4 on two threads: chunks (0, 2) and (2, 4). The first failing
        # agent in chunk order is named, as the one-thread build names it.
        blocks = [np.random.default_rng(i).standard_normal((3, 4)) for i in range(4)]

        def fill(i, out):
            if i in failing:
                raise ValueError(f"agent {i}: no data")
            out[...] = blocks[i]

        with pytest.raises(ValueError, match=f"^agent {named}: no data$"):
            make_instance((3,) * 4, 4, fill, r=2)
        pool = workers._pool
        assert pool is not None
        with monkeypatch.context() as patch:
            patch.setattr(workers, "SPLIT_GRAM_BYTES", 1 << 62)
            with pytest.raises(ValueError, match=f"^agent {named}: no data$"):
                make_instance((3,) * 4, 4, fill, r=2)
        # the same pool builds the next instance
        inst = make_instance((3,) * 4, 4, fill_from(blocks), r=2)
        assert workers._pool is pool
        for i, a in enumerate(blocks):
            assert inst.grams[i].tobytes() == np.matmul(a.T, a).tobytes()

    def test_split_peak_adds_one_block_per_extra_chunk(self, monkeypatch, split_forced):
        # Three chunks of 1, 2 and 2 agents, each block 1 MiB: the split
        # build may hold two more blocks than the one-thread build, in its
        # two extra buffers, plus 64 KiB for the futures and the tasks.
        monkeypatch.setattr(workers, "_THREADS", 3)
        m, d = 2048, 64
        rng = np.random.default_rng(6)
        blocks = [rng.standard_normal((m, d)) for _ in range(5)]
        fill = fill_from(blocks)
        make_instance((m,) * 5, d, fill, r=2)  # start the pool before tracing

        def peak():
            tracemalloc.start()
            try:
                make_instance((m,) * 5, d, fill, r=2)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        split = peak()
        with monkeypatch.context() as patch:
            patch.setattr(workers, "SPLIT_GRAM_BYTES", 1 << 62)
            serial = peak()
        block = m * d * 8
        assert serial >= block + 5 * d * d * 8  # the one buffer and the Grams
        assert split <= serial + 2 * block + 64 * 1024


def assert_symmetric_grams(inst):
    assert inst.grams.tobytes() == np.swapaxes(inst.grams, 1, 2).tobytes()
    assert inst.mean_gram.tobytes() == inst.mean_gram.T.tobytes()


class TestGramSymmetry:
    """Every Gram and the mean Gram equal their transposes byte for byte,
    so -G x is the gradient of the objective with no symmetrization."""

    def build_all(self, tmp_path):
        path = tmp_path / "images.idx3"
        write_idx3(path, TestMnist().make_images(count=53, seed=8))
        return [build_problem(parse_config(preset="synthetic")), load_mnist(path, n=5, r=2, seed=3)]

    def test_one_thread_build(self, tmp_path):
        for inst in self.build_all(tmp_path):
            assert_symmetric_grams(inst)

    def test_split_build(self, monkeypatch, split_forced, tmp_path):
        monkeypatch.setattr(workers, "_THREADS", 3)
        for inst in self.build_all(tmp_path):
            assert_symmetric_grams(inst)

