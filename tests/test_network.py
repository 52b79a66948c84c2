import numpy as np
import pytest

from qrgt import Topology, build_metropolis, mix, second_singular_value
from qrgt.network import GraphError, UniformMixingWarning


class TestTopology:
    def test_ring_degrees(self):
        topo = Topology.ring(6)
        assert topo.n == 6
        assert np.all(topo.degrees == 2)

    def test_ring_two_agents_single_edge(self):
        topo = Topology.ring(2)
        assert topo.edges == frozenset({(0, 1)})

    def test_complete(self):
        topo = Topology.complete(5)
        assert len(topo.edges) == 10

    @pytest.mark.parametrize("build", ["ring", "complete"])
    def test_one_agent_rejected(self, build):
        # The count is checked before the edges: a ring of one agent would
        # otherwise be refused as the self-loop (0, 0).
        with pytest.raises(GraphError, match="^n: need at least 2 agents, got 1$"):
            getattr(Topology, build)(1)

    def test_erdos_renyi_negative_count_rejected(self):
        with pytest.raises(GraphError, match="^n: need at least 2 agents, got -1$"):
            Topology.erdos_renyi(-1, 0.5, 0)

    def test_disconnected_rejected(self):
        with pytest.raises(GraphError):
            Topology.from_edges(4, [(0, 1), (2, 3)])

    def test_self_loop_rejected(self):
        with pytest.raises(GraphError):
            Topology.from_edges(3, [(0, 0), (0, 1), (1, 2)])

    def test_out_of_range_rejected(self):
        with pytest.raises(GraphError):
            Topology.from_edges(3, [(0, 5)])

    def test_erdos_renyi_connected_and_logged(self):
        topo = Topology.erdos_renyi(16, p=0.3, seed=7)
        assert topo.edges != Topology.complete(16).edges
        assert topo.resamples >= 0  # resample count retained for provenance

    def test_erdos_renyi_deterministic(self):
        a = Topology.erdos_renyi(12, p=0.3, seed=3)
        b = Topology.erdos_renyi(12, p=0.3, seed=3)
        assert a.edges == b.edges
        assert a.resamples == b.resamples

    def test_edge_file_roundtrip(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("0 1\n1 2\n2 3\n3 0\n")
        topo = Topology.from_edge_file(path)
        assert topo.n == 4
        assert topo.edges == Topology.ring(4).edges

    def test_edge_file_malformed(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0 1 2\n")
        with pytest.raises(GraphError):
            Topology.from_edge_file(path)


class TestMetropolis:
    def test_ring4_exact(self):
        # Every degree is 2, so all edge weights and diagonals equal 1/3;
        # the circulant spectrum is 1/3 + (2/3) cos(2 pi k / 4).
        mixing = build_metropolis(Topology.ring(4))
        expected = np.array(
            [
                [1 / 3, 1 / 3, 0, 1 / 3],
                [1 / 3, 1 / 3, 1 / 3, 0],
                [0, 1 / 3, 1 / 3, 1 / 3],
                [1 / 3, 0, 1 / 3, 1 / 3],
            ]
        )
        np.testing.assert_allclose(mixing.W, expected, atol=1e-15)
        assert abs(mixing.sigma2 - 1 / 3) <= 1e-12

    def test_triangle_is_uniform_boundary_case(self):
        # Ring of 3 = complete triangle: uniform weights, sigma_2 = 0.
        with pytest.warns(UniformMixingWarning):
            mixing = build_metropolis(Topology.ring(3))
        np.testing.assert_allclose(mixing.W, np.full((3, 3), 1 / 3), atol=1e-15)
        assert mixing.sigma2 == pytest.approx(0.0, abs=1e-13)

    def test_star3_hand_weights(self):
        # Center 0 with leaves 1, 2: edge weight 1/3, leaf diagonal 2/3.
        mixing = build_metropolis(Topology.from_edges(3, [(0, 1), (0, 2)]))
        expected = np.array([[1 / 3, 1 / 3, 1 / 3], [1 / 3, 2 / 3, 0], [1 / 3, 0, 2 / 3]])
        np.testing.assert_allclose(mixing.W, expected, atol=1e-15)

    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_doubly_stochastic(self, n):
        mixing = build_metropolis(Topology.ring(n))
        W = mixing.W
        np.testing.assert_allclose(W, W.T, atol=1e-15)
        np.testing.assert_allclose(W.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(W.sum(axis=1), 1.0, atol=1e-12)
        assert W.min() >= 0
        diag = np.diag(W)
        assert np.all((0 < diag) & (diag < 1))

    def test_power_stays_doubly_stochastic(self):
        mixing = build_metropolis(Topology.ring(8), t=5)
        Wt = mixing.W_t
        np.testing.assert_allclose(Wt, Wt.T, atol=1e-13)
        np.testing.assert_allclose(Wt.sum(axis=1), 1.0, atol=1e-12)

    def test_power_one_is_w(self):
        mixing = build_metropolis(Topology.ring(8))
        assert mixing.W_t.tobytes() == mixing.W.tobytes()

    def test_small_power_is_the_matrix_power(self):
        for t in (2, 5, 40):
            mixing = build_metropolis(Topology.erdos_renyi(10, 0.4, seed=1), t=t)
            np.testing.assert_allclose(mixing.W_t, np.linalg.matrix_power(mixing.W, t), rtol=0, atol=1e-15)

    @pytest.mark.parametrize("t", [10**3, 10**6, 10**12, 10**18])
    @pytest.mark.parametrize("n", [16, 7])
    def test_large_power_keeps_its_sums(self, n, t):
        # A plain power of W loses its sums in proportion to t: on a ring of
        # 16, 2.2e-12 from 1 at t = 10^6 and 7.7 at t = 10^18.
        Wt = build_metropolis(Topology.ring(n), t=t).W_t
        eps = np.finfo(float).eps
        assert np.abs(Wt.sum(axis=1) - 1.0).max() <= n * eps
        assert np.abs(Wt.sum(axis=0) - 1.0).max() <= n * eps
        np.testing.assert_array_equal(Wt, Wt.T)
        np.testing.assert_allclose(Wt, 1.0 / n, rtol=0, atol=1e-15)

    def test_bad_t(self):
        with pytest.raises(ValueError):
            build_metropolis(Topology.ring(4), t=0)


class TestSecondSingularValue:
    def test_identity(self):
        assert second_singular_value(np.eye(4)) == pytest.approx(1.0)

    def test_uniform_rank_one(self):
        assert second_singular_value(np.full((5, 5), 0.2)) == pytest.approx(0.0, abs=1e-12)

    def test_ring4(self):
        W = build_metropolis(Topology.ring(4)).W
        assert second_singular_value(W) == pytest.approx(1 / 3, abs=1e-12)

    def test_asymmetric_rejected(self):
        W = np.array([[0.5, 0.5], [0.4, 0.6]])
        with pytest.raises(ValueError):
            second_singular_value(W)

    def test_non_stochastic_rejected(self):
        with pytest.raises(ValueError):
            second_singular_value(np.eye(3) * 0.9)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match=r"^W must be a nonempty square matrix, got shape \(0, 0\)$"):
            second_singular_value(np.zeros((0, 0)))


class TestMix:
    def test_consensus_fixed_point(self, rng):
        mixing = build_metropolis(Topology.ring(5))
        z = rng.standard_normal((4, 2))
        stacked = [z.copy() for _ in range(5)]
        out = mix(mixing, stacked)
        for i in range(5):
            np.testing.assert_allclose(out[i], z, atol=1e-14)

    def test_identity_matrix_passthrough(self, rng):
        from qrgt.network import MixingMatrix

        mixing = MixingMatrix(W=np.eye(3), sigma2=1.0, W_t=np.eye(3))
        X = rng.standard_normal((3, 4, 2))
        np.testing.assert_array_equal(mix(mixing, X), X)

    def test_long_power_reaches_mean(self, rng):
        mixing = build_metropolis(Topology.ring(4), t=64)
        X = rng.standard_normal((4, 6, 3))
        out = mix(mixing, X)
        mean = X.mean(axis=0)
        for i in range(4):
            np.testing.assert_allclose(out[i], mean, atol=1e-6)

    def test_mean_preserved(self, rng):
        mixing = build_metropolis(Topology.erdos_renyi(10, 0.4, seed=1), t=3)
        X = rng.standard_normal((10, 5, 2)) * 7.3
        out = mix(mixing, X)
        np.testing.assert_allclose(
            out.mean(axis=0), X.mean(axis=0), rtol=1e-12, atol=1e-12
        )

    def test_spectral_contraction(self, rng):
        # ||X - mean|| shrinks by at least sigma_2^t under one application.
        for t in (1, 2, 4):
            mixing = build_metropolis(Topology.ring(6), t=t)
            X = rng.standard_normal((6, 4, 2))
            dev_before = np.linalg.norm(X - X.mean(axis=0))
            out = mix(mixing, X)
            dev_after = np.linalg.norm(out - out.mean(axis=0))
            assert dev_after <= mixing.sigma2**t * dev_before + 1e-10

    def test_length_mismatch(self, rng):
        mixing = build_metropolis(Topology.ring(4))
        with pytest.raises(ValueError):
            mix(mixing, rng.standard_normal((5, 3, 2)))

    def test_scalar_rejected(self):
        with pytest.raises(ValueError, match=r"^stacked: expected 4 stacked blocks, got shape \(\)$"):
            mix(build_metropolis(Topology.ring(4)), 3.0)
