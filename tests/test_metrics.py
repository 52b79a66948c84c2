import numpy as np
import pytest

from qrgt import (
    SyntheticSpec,
    consensus_error,
    evaluate,
    distance_to_manifold,
    generate_synthetic,
    random_stiefel,
    subspace_distance,
)

from qrgt import metrics, workers

from conftest import stiefel_points
from reference import wide_instance


def random_orthogonal(r, rng):
    """Haar-ish orthogonal matrix including reflections."""
    q, _ = np.linalg.qr(rng.standard_normal((r, r)))
    if rng.random() < 0.5:
        q[:, 0] = -q[:, 0]
    return q


class TestMeanPoint:
    def test_mean_generally_off_manifold(self):
        # Two points with disjoint column supports average to singular
        # values of sqrt(2)/2 each: distance to the manifold is strictly positive.
        x1 = np.eye(4, 2)
        x2 = np.zeros((4, 2))
        x2[2, 0] = 1.0
        x2[3, 1] = 1.0
        xbar = np.mean([x1, x2], axis=0)
        sv = np.linalg.svd(xbar, compute_uv=False)
        np.testing.assert_allclose(sv, 0.5 * np.sqrt(2), atol=1e-12)
        assert distance_to_manifold(xbar) == pytest.approx(np.sqrt(2) * (1 - 0.5 * np.sqrt(2)))


class TestSubspaceDistance:
    def test_self_distance(self, rng):
        x = random_stiefel(7, 3, rng)
        assert subspace_distance(x, x) == pytest.approx(0.0, abs=1e-7)

    def test_rotation_invariance(self, rng):
        x = random_stiefel(7, 3, rng)
        for _ in range(20):
            o = random_orthogonal(3, rng)
            assert subspace_distance(x @ o, x) <= 1e-10

    def test_two_sided_rotation_invariance(self, rng):
        x = random_stiefel(8, 3, rng)
        y = random_stiefel(8, 3, rng)
        base = subspace_distance(x, y)
        for _ in range(20):
            o1 = random_orthogonal(3, rng)
            o2 = random_orthogonal(3, rng)
            assert abs(subspace_distance(x @ o1, y @ o2) - base) <= 1e-10

    def test_orthogonal_column_spaces(self):
        x = np.eye(8, 3)
        y = np.zeros((8, 3))
        y[3:6] = np.eye(3)
        assert subspace_distance(x, y) == pytest.approx(np.sqrt(6.0), rel=1e-12)

    def test_never_exceeds_plain_distance(self, rng):
        for x in stiefel_points(6, 2, 50, seed=41):
            y = random_stiefel(6, 2, rng)
            assert subspace_distance(x, y) <= np.linalg.norm(x - y) + 1e-12

    def test_brute_force_never_beats_closed_form(self):
        # 1e5 random orthogonal 2x2 candidates (rotations and reflections)
        # against the Procrustes solution.
        rng = np.random.default_rng(43)
        x = random_stiefel(8, 2, rng)
        y = random_stiefel(8, 2, rng)
        closed = subspace_distance(x, y)
        thetas = rng.uniform(0, 2 * np.pi, size=100_000)
        c, s = np.cos(thetas), np.sin(thetas)
        rotations = np.stack([np.stack([c, -s], axis=1), np.stack([s, c], axis=1)], axis=1)
        reflections = rotations.copy()
        reflections[:, :, 1] = -reflections[:, :, 1]
        candidates = np.concatenate([rotations, reflections])
        vals = np.linalg.norm(np.einsum("dr,nrk->ndk", x, candidates) - y, axis=(1, 2))
        assert vals.min() >= closed - 1e-9

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            subspace_distance(np.eye(4, 2), np.eye(4, 3))


class TestConsensusError:
    def test_all_equal(self, rng):
        x = random_stiefel(5, 2, rng)
        assert consensus_error([x] * 4 ) == pytest.approx(0.0, abs=1e-15)

    def test_antipodal_pair(self, rng):
        z = random_stiefel(5, 2, rng)
        expected = np.sqrt(2) * np.linalg.norm(z)
        assert consensus_error([z, -z]) == pytest.approx(expected, rel=1e-12)


class TestEvaluate:
    @pytest.fixture(scope="class")
    def inst(self):
        return generate_synthetic(
            SyntheticSpec(n=4, m=60, d=8, r=3, eigengap=0.6, leading_sv=2.0, seed=19)
        )

    def test_at_optimum(self, inst):
        row = evaluate([inst.x_star] * 4, inst)
        assert row.consensus_error == pytest.approx(0.0, abs=1e-12)
        assert abs(row.f_gap) <= 1e-10
        assert row.ds <= 1e-7
        assert row.grad_norm <= 1e-8
        assert row.dist_mean <= 1e-10

    def test_spread_ensemble(self, inst, rng):
        states = [random_stiefel(8, 3, rng) for _ in range(4)]
        row = evaluate(states, inst)
        assert row.consensus_error > 0
        assert row.dist_mean > 0  # Euclidean mean leaves the manifold
        assert np.isfinite([row.grad_norm, row.f_gap, row.ds]).all()


class TestEvaluateProduct:
    """evaluate's mean_gram @ xbar, taken as (xbar^T mean_gram)^T on wide
    Grams, is byte-equal to the plain product, at d = 784 and on the preset,
    on either side of the width threshold."""

    @pytest.fixture(scope="class", params=["wide", "preset"])
    def inst(self, request):
        if request.param == "wide":
            return wide_instance()
        return generate_synthetic(
            SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, leading_sv=300.0, seed=0)
        )

    @pytest.mark.parametrize("threshold", [0, 1 << 62])
    def test_gram_product_bit_equal(self, inst, monkeypatch, threshold):
        monkeypatch.setattr(workers, "TRANSPOSE_MIN_D", threshold)
        seen = []
        project = metrics._tangent_project

        def recording(x, y):
            assert y.flags.c_contiguous  # the layout the plain product has
            seen.append(y.copy())
            return project(x, y)

        monkeypatch.setattr(metrics, "_tangent_project", recording)
        rng = np.random.default_rng(7)
        n, d, r = inst.n_agents, inst.dims.d, inst.dims.r
        for k in range(10):
            X = rng.standard_normal((n, d, r))
            row = evaluate(X, inst)
            xbar = np.mean(X, axis=0)
            gram_x = inst.mean_gram @ xbar
            assert seen[k].tobytes() == (-gram_x).tobytes()
            assert row.f_gap == float(-0.5 * np.sum(xbar * gram_x)) - inst.f_star
