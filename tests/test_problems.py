import struct
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from qrgt import (
    SyntheticSpec,
    estimate_smoothness,
    generate_synthetic,
    global_objective,
    load_mnist,
    local_euclidean_grad,
    make_instance,
    random_stiefel,
    solve_ground_truth,
    subspace_distance,
)
from qrgt.problems import DegenerateGapWarning, IdxFormatError

MAGIC = 0x00000803


def write_idx3(path, images: np.ndarray) -> None:
    """images: (count, rows, cols) uint8."""
    header = struct.pack(">IIII", MAGIC, *images.shape)
    path.write_bytes(header + images.tobytes())


def small_instance(seed=0, n=4, m=50, d=6, r=2, eigengap=0.5):
    return generate_synthetic(
        SyntheticSpec(n=n, m=m, d=d, r=r, eigengap=eigengap, leading_sv=2.0, seed=seed)
    )


class TestSyntheticSpec:
    def test_eigengap_range(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                SyntheticSpec(n=2, m=10, d=4, r=2, eigengap=bad)

    def test_rank_deficiency_rejected(self):
        with pytest.raises(ValueError):
            SyntheticSpec(n=2, m=1, d=4, r=2, eigengap=0.5)


class TestLocalGradient:
    def test_zero_point(self):
        inst = small_instance()
        assert np.all(local_euclidean_grad(inst, 0, np.zeros((6, 2))) == 0.0)

    @pytest.mark.filterwarnings("ignore::qrgt.problems.DegenerateGapWarning")
    def test_identity_data(self, rng):
        inst = make_instance([np.eye(5)], r=2)
        x = random_stiefel(5, 2, rng)
        np.testing.assert_allclose(local_euclidean_grad(inst, 0, x), -x, atol=1e-14)

    def test_agent_out_of_range(self):
        inst = small_instance()
        with pytest.raises(IndexError):
            local_euclidean_grad(inst, 4, np.zeros((6, 2)))

    def test_matches_finite_differences(self):
        # f_i(x) = -||A_i x||^2 / 2 via central differences, step 1e-6.
        inst = small_instance(seed=3)
        rng = np.random.default_rng(4)
        a = inst.local_data[1]
        eps = 1e-6
        for _ in range(20):
            x = rng.standard_normal((6, 2))
            h = rng.standard_normal((6, 2))
            h /= np.linalg.norm(h)
            f = lambda y: -0.5 * np.sum((a @ y) ** 2)
            fd = (f(x + eps * h) - f(x - eps * h)) / (2 * eps)
            an = float(np.sum(local_euclidean_grad(inst, 1, x) * h))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))

    def test_gram_and_direct_paths_agree(self, rng):
        # An agent with fewer rows than columns (m_i < d) gets the same
        # gradient from its Gram as from the two data products.
        tall = rng.standard_normal((10, 4))
        wide = rng.standard_normal((2, 4))
        inst = make_instance([tall, wide], r=2)
        x = rng.standard_normal((4, 2))
        np.testing.assert_allclose(
            local_euclidean_grad(inst, 1, x), -(wide.T @ (wide @ x)), atol=1e-13
        )

    def test_average_matches_global_gradient(self, rng):
        inst = small_instance(seed=5)
        x = rng.standard_normal((6, 2))
        avg = np.mean(
            [local_euclidean_grad(inst, i, x) for i in range(inst.n_agents)], axis=0
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
        inst = generate_synthetic(spec)
        stacked = np.vstack(inst.local_data)
        sv = np.linalg.svd(stacked, compute_uv=False)
        expected = 3.0 * 0.8 ** (np.arange(10) / 2)
        np.testing.assert_allclose(sv, expected, rtol=1e-8)

    def test_consecutive_ratio_is_sqrt_gap(self):
        inst = small_instance(seed=2, eigengap=0.6)
        sv = np.linalg.svd(np.vstack(inst.local_data), compute_uv=False)
        np.testing.assert_allclose(sv[1:] / sv[:-1], np.sqrt(0.6), rtol=1e-8)

    def test_relative_gap_monotone_in_eigengap(self):
        # sigma_r / sigma_{r+1} = eigengap^{-1/2} shrinks toward 1 as the
        # eigengap parameter approaches 1.
        gaps = []
        for delta in (0.3, 0.5, 0.7, 0.9):
            inst = small_instance(seed=11, eigengap=delta)
            sv = np.linalg.svd(np.vstack(inst.local_data), compute_uv=False)
            gaps.append(sv[1] / sv[2])  # r = 2
        assert all(a > b for a, b in zip(gaps, gaps[1:]))

    def test_seed_determinism(self):
        a = small_instance(seed=12)
        b = small_instance(seed=12)
        for x, y in zip(a.local_data, b.local_data):
            np.testing.assert_array_equal(x, y)
        np.testing.assert_array_equal(a.x_star, b.x_star)

    def test_row_split_even(self):
        inst = small_instance(n=4, m=50)
        assert [a.shape[0] for a in inst.local_data] == [50, 50, 50, 50]


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
        stacked = np.vstack(inst.local_data)
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

    def test_remainder_goes_to_last_agent(self, tmp_path):
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=50))
        inst = load_mnist(path, n=16, r=2, seed=0)
        sizes = [a.shape[0] for a in inst.local_data]
        assert sizes[:-1] == [3] * 15
        assert sizes[-1] == 5

    def test_partition_complete_no_row_lost(self, tmp_path):
        # Multiset of row payloads is preserved across shuffle + split.
        path = tmp_path / "images.idx3"
        images = self.make_images(count=30, rows=3, cols=3, seed=5)
        write_idx3(path, images)
        inst = load_mnist(path, n=4, r=2, seed=9)
        original = Counter(
            (images.reshape(30, -1).astype(float) / 255.0)[i].tobytes() for i in range(30)
        )
        loaded = Counter(
            row.tobytes() for a in inst.local_data for row in a
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

    def test_shuffle_depends_on_seed(self, tmp_path):
        path = tmp_path / "images.idx3"
        write_idx3(path, self.make_images(count=64, seed=2))
        a = load_mnist(path, n=4, r=2, seed=1)
        b = load_mnist(path, n=4, r=2, seed=1)
        c = load_mnist(path, n=4, r=2, seed=2)
        np.testing.assert_array_equal(a.local_data[0], b.local_data[0])
        assert not np.array_equal(a.local_data[0], c.local_data[0])


class TestSmoothness:
    def test_diagonal_case_exact(self):
        # One agent, A = diag(2, 1): gram eigenvalues {4, 1}; L = 4 and
        # L_f = sqrt(4^2 + 1^2) for r = 2.
        inst = make_instance([np.diag([2.0, 1.0])], r=2)
        consts = estimate_smoothness(inst)
        assert consts.L == pytest.approx(4.0, rel=1e-12)
        assert consts.L_f == pytest.approx(np.sqrt(17.0), rel=1e-12)
        assert consts.L_m == pytest.approx(consts.L_g)

    def test_bounds_hold_on_manifold(self, rng):
        inst = small_instance(seed=13)
        consts = estimate_smoothness(inst)
        for _ in range(50):
            x = random_stiefel(6, 2, rng)
            egrad_norm = np.linalg.norm(inst.mean_gram @ x)
            assert egrad_norm <= consts.L * np.sqrt(2) + 1e-12
            for i in range(inst.n_agents):
                assert np.linalg.norm(local_euclidean_grad(inst, i, x)) <= consts.L_f + 1e-12
