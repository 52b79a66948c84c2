import dataclasses

import numpy as np
import pytest

from qrgt import (
    SyntheticSpec,
    agent_means,
    consensus_error,
    evaluate,
    evaluate_means,
    distance_to_manifold,
    generate_synthetic,
    random_stiefel,
    subspace_distance,
)

from qrgt import AlgoConfig, Topology, engine, metrics, run, workers

from conftest import evaluate_state, stiefel_points
from reference import ref_evaluate, svd_subspace_distance, wide_instance


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
        # a stack of x is measured against one xstar of its trailing shape
        for x_shape, xstar_shape in [((4, 2), (4, 3)), ((3, 4, 2), (4, 3)), ((3, 4, 2), (3, 4, 2)), ((4,), (4, 1))]:
            with pytest.raises(ValueError):
                subspace_distance(np.ones(x_shape), np.ones(xstar_shape))

    def test_xstar_must_be_orthonormal(self, rng):
        x = rng.standard_normal((3, 10, 5))
        xstar = random_stiefel(10, 5, rng)
        off = xstar.copy()
        off[2, 1] += 1e-9  # moves xstar^T xstar - I by about 1e-9
        for bad in (2.0 * xstar, off, np.ones((10, 5))):
            with pytest.raises(ValueError, match="not orthonormal"):
                subspace_distance(x, bad)
        nearly = xstar.copy()
        nearly[2, 1] += 1e-13
        assert np.isfinite(subspace_distance(x, nearly)).all()

    def test_matches_svd_procrustes(self, rng):
        # Against the SVD form, x^T xstar = U S V^T and ||x U V^T - xstar||:
        # within 1e-14 for points near a rotated xstar, as a run's means
        # come, and for points with a column orthogonal to xstar's span, whose
        # A = xstar^T x is singular. Far from xstar a singular value s of A
        # well below 1 carries about eps ||A||^2 / s from the Gram A^T A,
        # hence the relative bound there.
        xstar = random_stiefel(10, 5, rng)

        def rotated(scale):
            o = np.linalg.qr(rng.standard_normal((5, 5)))[0]
            return xstar @ o + scale * rng.standard_normal((10, 5))

        near = [rotated(scale) for scale in (1e-9, 1e-5, 1e-2) for _ in range(20)]
        for _ in range(20):
            x = random_stiefel(10, 5, rng)
            v = rng.standard_normal(10)
            x[:, 1] = v - xstar @ (xstar.T @ v)
            near.append(x)
        far = [rotated(0.5) for _ in range(20)]
        for cases, atol, rtol in [(near, 1e-14, 0.0), (far, 0.0, 1e-12)]:
            expected = [svd_subspace_distance(x, xstar) for x in cases]
            np.testing.assert_allclose(subspace_distance(np.array(cases), xstar), expected, rtol=rtol, atol=atol)

    def test_stack_is_separate_calls(self, rng):
        # one value per (d, r) slice, bit for bit what a call per slice gives
        x = rng.standard_normal((7, 10, 5))
        xstar = random_stiefel(10, 5, rng)
        stacked = subspace_distance(x, xstar)
        assert stacked.shape == (7,)
        assert stacked.tobytes() == np.array([subspace_distance(s, xstar) for s in x]).tobytes()


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

    def test_evaluate_keeps_the_state(self, rng):
        X = rng.standard_normal((4, 8, 3))
        slot = np.full((4, 8, 3), np.nan)
        assert evaluate(X, slot) is None
        assert slot.tobytes() == X.tobytes()

    def test_agent_means_are_the_mean(self, rng):
        states = rng.standard_normal((3, 4, 8, 3))
        kept = states.copy()
        xbars, consensus = agent_means(states)
        for X, xbar, error, deviation in zip(kept, xbars, consensus, states):
            assert xbar.tobytes() == np.mean(X, axis=0).tobytes()
            assert error == consensus_error(X) == float(np.linalg.norm(X - X.mean(axis=0)))
            assert deviation.tobytes() == (X - xbar).tobytes()  # overwritten in place
        X = kept[0].copy()
        consensus_error(X)
        assert X.tobytes() == kept[0].tobytes()  # consensus_error leaves its input alone


@pytest.fixture(scope="module", params=["wide", "preset"])
def block_inst(request):
    """An instance at d = 784 and the synthetic preset's instance at d = 10."""
    if request.param == "wide":
        return wide_instance()
    return generate_synthetic(
        SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, leading_sv=300.0, seed=0)
    )


def random_block(inst, k, seed):
    """k stacked states of ``inst``'s shape, the (k, d, r) stack of their
    agent means and their consensus errors, from ``agent_means``."""
    rng = np.random.default_rng(seed)
    states = rng.standard_normal((k, inst.n_agents, inst.dims.d, inst.dims.r))
    return states, *agent_means(states.copy())


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
        project = metrics.tangent_project

        def recording(x, y):
            assert y.flags.c_contiguous  # the layout the plain product has
            seen.append(y.copy())
            return project(x, y)

        monkeypatch.setattr(metrics, "tangent_project", recording)
        _, xbars, _ = random_block(inst, engine.BLOCK, seed=7)
        _, f_gap, _, _ = evaluate_means(xbars, inst)
        assert len(seen) == 1 and seen[0].shape == xbars.shape
        for k, xbar in enumerate(xbars):
            gram_x = inst.mean_gram @ xbar
            assert seen[0][k].tobytes() == (-gram_x).tobytes()
            assert f_gap[k] == float(-0.5 * np.sum(xbar * gram_x)) - inst.f_star

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
        got = np.column_stack([consensus, *evaluate_means(xbars, inst)])
        expected = np.array([ref_evaluate(X, inst) for X in states])
        assert got.tobytes() == expected.tobytes()

    def test_distances_are_the_public_functions(self, block_inst):
        # ds and dist_mean come from one stacked eigvalsh call with the bits
        # of subspace_distance and distance_to_manifold, at both widths.
        for inst in (block_inst, wide_instance()):
            _, xbars, _ = random_block(inst, engine.BLOCK, seed=9)
            _, _, ds, dist_mean = evaluate_means(xbars, inst)
            assert ds.tobytes() == subspace_distance(xbars, inst.x_star).tobytes()
            assert dist_mean.tobytes() == distance_to_manifold(xbars).tobytes()

    def test_xstar_checked_once_per_run(self, block_inst, monkeypatch):
        # run() checks x*'s columns before its first epoch; a block does not.
        topology, cfg = Topology.ring(block_inst.n_agents), AlgoConfig(alpha=1e-5, max_epochs=25)
        bad = dataclasses.replace(block_inst, x_star=2.0 * block_inst.x_star)
        with pytest.raises(ValueError, match="x_star's columns are not orthonormal"):
            run(bad, topology, cfg)
        checked = []
        monkeypatch.setattr(metrics, "_check_orthonormal", None)
        monkeypatch.setattr(engine, "_check_orthonormal", lambda x, name: checked.append(name))
        run(block_inst, topology, cfg)
        assert checked == ["x_star"]

    def test_norms_are_norm(self, rng):
        for shape in [(10, 10, 5), (3, 784, 5), (1, 6, 2), (4, 5, 5), (10, 16, 10, 5)]:
            a = rng.standard_normal(shape)
            assert metrics._norms(a).tolist() == [float(np.linalg.norm(s)) for s in a]
        assert metrics._norms(np.zeros((2, 3, 1))).tolist() == [0.0, 0.0]
