import numpy as np
import pytest

from qrgt import (
    SyntheticSpec,
    consensus_error,
    evaluate,
    evaluate_means,
    distance_to_manifold,
    generate_synthetic,
    random_stiefel,
    subspace_distance,
)

from qrgt import engine, metrics, workers

from conftest import evaluate_state, stiefel_points
from reference import ref_evaluate, wide_instance


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
        consensus, grad_norm, f_gap, ds, dist_mean = evaluate_state(np.array([inst.x_star] * 4), inst)
        assert consensus == pytest.approx(0.0, abs=1e-12)
        assert abs(f_gap) <= 1e-10
        assert ds <= 1e-7
        assert grad_norm <= 1e-8
        assert dist_mean <= 1e-10

    def test_spread_ensemble(self, inst, rng):
        states = np.array([random_stiefel(8, 3, rng) for _ in range(4)])
        consensus, grad_norm, f_gap, ds, dist_mean = evaluate_state(states, inst)
        assert consensus > 0
        assert dist_mean > 0  # Euclidean mean leaves the manifold
        assert np.isfinite([grad_norm, f_gap, ds]).all()

    def test_evaluate_writes_the_mean(self, inst, rng):
        X = rng.standard_normal((4, 8, 3))
        xbar = np.full((8, 3), np.nan)
        assert evaluate(X, xbar) == consensus_error(X) == float(np.linalg.norm(X - X.mean(axis=0)))
        assert xbar.tobytes() == np.mean(X, axis=0).tobytes()


@pytest.fixture(scope="module", params=["wide", "preset"])
def block_inst(request):
    """An instance at d = 784 and the synthetic preset's instance at d = 10."""
    if request.param == "wide":
        return wide_instance()
    return generate_synthetic(
        SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, leading_sv=300.0, seed=0)
    )


def random_block(inst, k, seed):
    """k stacked states of ``inst``'s shape and the (k, d, r) stack of their
    agent means, each written by ``evaluate``."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((k, inst.n_agents, inst.dims.d, inst.dims.r))
    xbars = np.empty((k, inst.dims.d, inst.dims.r))
    consensus = [evaluate(X, xbar) for X, xbar in zip(states, xbars)]
    return states, xbars, consensus


class TestEvaluateProduct:
    """evaluate_means' mean_gram @ xbar over a block of means, taken as one
    product of the stacked (xbar^T) with mean_gram on wide Grams, is
    byte-equal to the plain product of each mean, at d = 784 and on the
    preset, on either side of the width threshold."""

    @pytest.mark.parametrize("threshold", [0, 1 << 62])
    def test_gram_product_bit_equal(self, block_inst, monkeypatch, threshold):
        inst = block_inst
        monkeypatch.setattr(workers, "TRANSPOSE_MIN_D", threshold)
        seen = []
        project = metrics._tangent_project

        def recording(x, y):
            assert y.flags.c_contiguous  # the layout the plain product has
            seen.append(y.copy())
            return project(x, y)

        monkeypatch.setattr(metrics, "_tangent_project", recording)
        _, xbars, _ = random_block(inst, engine.BLOCK, seed=7)
        means = evaluate_means(xbars, inst)
        assert len(seen) == 1 and seen[0].shape == xbars.shape
        for k, xbar in enumerate(xbars):
            gram_x = inst.mean_gram @ xbar
            assert seen[0][k].tobytes() == (-gram_x).tobytes()
            assert means.f_gap[k] == float(-0.5 * np.sum(xbar * gram_x)) - inst.f_star

    @pytest.mark.parametrize("threshold", [0, 1 << 62])
    def test_stacked_product_is_separate_products(self, block_inst, monkeypatch, threshold):
        # One stacked neg_gram_products call over a block of means gives
        # what a call per mean gives; at d = 784 with the transposed
        # orientation that is one GEMM of the (B r, d) transposes with G
        # against B GEMMs of (r, d), which OpenBLAS does not promise.
        monkeypatch.setattr(workers, "TRANSPOSE_MIN_D", threshold)
        _, xbars, _ = random_block(block_inst, engine.BLOCK, seed=8)
        G = block_inst.mean_gram
        stacked = workers.neg_gram_products(G, xbars)
        separate = np.array([workers.neg_gram_products(G, xbar) for xbar in xbars])
        assert stacked.flags.c_contiguous
        assert stacked.tobytes() == separate.tobytes()


class TestBlockMetrics:
    """A block of means gives, per mean, the bits of the one-state
    formulas of ``reference.ref_evaluate``."""

    @pytest.mark.parametrize("k", [1, 3, 10])
    def test_block_is_the_reference(self, block_inst, k):
        inst = block_inst
        states, xbars, consensus = random_block(inst, k, seed=k)
        means = evaluate_means(xbars, inst)
        got = np.column_stack([consensus, means.grad_norm, means.f_gap, means.ds, means.dist_mean])
        expected = np.array([ref_evaluate(X, inst) for X in states])
        assert got.tobytes() == expected.tobytes()

    def test_norms_are_norm(self, rng):
        for shape in [(10, 10, 5), (3, 784, 5), (1, 6, 2), (4, 5, 5)]:
            a = rng.standard_normal(shape)
            expected = [metrics._norm(s) for s in a]
            assert metrics._norms(a).tolist() == expected
            assert expected == [float(np.linalg.norm(s)) for s in a]
        assert metrics._norms(np.zeros((2, 3, 1))).tolist() == [0.0, 0.0]
