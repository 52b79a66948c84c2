import numpy as np
import pytest

from qrgt import (
    ManifoldDims,
    SmoothnessConstants,
    distance_to_manifold,
    is_on_manifold,
    landing_field,
    manifold_defect,
    penalty,
    penalty_grad,
    random_stiefel,
    retract,
    riemannian_grad,
    tangent_project,
)
from qrgt.stiefel import DegenerateProjectionWarning, RetractionError

from conftest import random_tangent, stiefel_points


class TestManifoldDims:
    def test_valid(self):
        dims = ManifoldDims(10, 5)
        assert dims.proximal_radius == 1.0

    @pytest.mark.parametrize("d,r", [(3, 4), (0, 1), (5, 0)])
    def test_invalid_shape(self, d, r):
        with pytest.raises(ValueError):
            ManifoldDims(d, r)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            ManifoldDims(3, 2, proximal_radius=0.0)


class TestSmoothnessConstants:
    def test_lg_is_sum(self):
        c = SmoothnessConstants(L=2.0, L_f=3.0)
        assert c.L_g == 5.0
        assert c.L_m == 5.0  # defaults to L_g

    def test_lm_below_lg_rejected(self):
        with pytest.raises(ValueError):
            SmoothnessConstants(L=2.0, L_f=3.0, L_m=4.0)

    def test_lm_above_lg_ok(self):
        c = SmoothnessConstants(L=1.0, L_f=1.0, L_m=7.0)
        assert c.L_m == 7.0


class TestTangentProject:
    def test_symmetric_combination_annihilated(self, rng):
        # y = x A with A symmetric lies entirely in the normal space.
        x = random_stiefel(6, 3, rng)
        a = rng.standard_normal((3, 3))
        y = x @ (a + a.T)
        assert np.allclose(tangent_project(x, y), 0.0, atol=1e-12)

    def test_hand_evaluated_axis_case(self):
        # x = e1 in R^3, y = ones: projection removes the x-component only.
        x = np.array([[1.0], [0.0], [0.0]])
        y = np.ones((3, 1))
        expected = np.array([[0.0], [1.0], [1.0]])
        np.testing.assert_allclose(tangent_project(x, y), expected, atol=1e-15)

    def test_tangent_fixed_point(self, rng):
        x = random_stiefel(7, 2, rng)
        y = random_tangent(x, rng)
        np.testing.assert_allclose(tangent_project(x, y), y, atol=1e-12)

    def test_shape_mismatch(self, rng):
        with pytest.raises(ValueError):
            tangent_project(np.eye(3, 2), np.ones((4, 2)))

    def test_tangency_idempotence_contraction(self):
        # The three algebraic properties, on 100 random points each.
        rng = np.random.default_rng(7)
        for x in stiefel_points(8, 3, 100, seed=11):
            y = rng.standard_normal((8, 3)) * rng.uniform(0.1, 10)
            g = tangent_project(x, y)
            assert np.linalg.norm(x.T @ g + g.T @ x) <= 1e-10 * np.linalg.norm(y)
            np.testing.assert_allclose(tangent_project(x, g), g, atol=1e-12 * np.linalg.norm(y))
            assert np.linalg.norm(g) <= np.linalg.norm(y) * (1 + 1e-12)

    def test_contraction_off_manifold(self, rng):
        # General bound ||P(y)|| <= ||y|| + ||x||^2 ||y|| / 2 for arbitrary x.
        for _ in range(20):
            x = rng.standard_normal((6, 2)) * 2.0
            y = rng.standard_normal((6, 2))
            g = tangent_project(x, y)
            bound = np.linalg.norm(y) * (1 + 0.5 * np.linalg.norm(x) ** 2)
            assert np.linalg.norm(g) <= bound * (1 + 1e-12)

    def test_batched_matches_loop(self, rng):
        X = np.stack(stiefel_points(5, 2, 4, seed=3))
        Y = rng.standard_normal((4, 5, 2))
        batched = tangent_project(X, Y)
        for i in range(4):
            np.testing.assert_array_equal(batched[i], tangent_project(X[i], Y[i]))


class TestRiemannianGrad:
    def test_zero_gradient(self, rng):
        x = random_stiefel(5, 2, rng)
        assert np.all(riemannian_grad(x, np.zeros((5, 2))) == 0.0)

    def test_point_itself_is_normal(self, rng):
        x = random_stiefel(5, 2, rng)
        np.testing.assert_allclose(riemannian_grad(x, x), 0.0, atol=1e-14)

    def test_tangency_identity(self, rng):
        x = random_stiefel(8, 3, rng)
        g = riemannian_grad(x, rng.standard_normal((8, 3)))
        assert np.linalg.norm(x.T @ g + g.T @ x) <= 1e-10


class TestDistanceToManifold:
    def test_on_manifold_zero(self, rng):
        x = random_stiefel(9, 4, rng)
        assert distance_to_manifold(x) <= 1e-12

    def test_doubled_point(self, rng):
        x = 2.0 * random_stiefel(6, 3, rng)
        assert abs(distance_to_manifold(x) - np.sqrt(3)) <= 1e-12

    def test_known_singular_values(self):
        x = np.diag([1.5, 0.5])
        assert abs(distance_to_manifold(x) - np.sqrt(0.25 + 0.25)) <= 1e-12

    def test_rank_deficient_warns(self):
        x = np.zeros((4, 2))
        x[0, 0] = 1.0
        with pytest.warns(DegenerateProjectionWarning):
            val = distance_to_manifold(x)
        assert abs(val - 1.0) <= 1e-12  # singular values {1, 0}

    def test_dominated_by_penalty_in_band(self):
        # (s-1)^2 <= (s^2-1)^2 for s in [0, 2], so dist^2 <= penalty there.
        rng = np.random.default_rng(5)
        for _ in range(50):
            u = random_stiefel(6, 3, rng)
            v = random_stiefel(3, 3, rng)
            s = rng.uniform(0.05, 2.0, size=3)
            x = (u * s) @ v.T
            assert distance_to_manifold(x) ** 2 <= penalty(x) + 1e-12


class TestPenalty:
    def test_on_manifold_zero(self, rng):
        assert penalty(random_stiefel(7, 3, rng)) == pytest.approx(0.0, abs=1e-24)

    def test_doubled_point(self, rng):
        q = random_stiefel(7, 3, rng)
        assert penalty(2.0 * q) == pytest.approx(9 * 3, rel=1e-12)

    def test_zero_matrix(self):
        assert penalty(np.zeros((4, 2))) == pytest.approx(2.0)

    def test_grad_on_manifold_zero(self, rng):
        np.testing.assert_allclose(penalty_grad(random_stiefel(6, 2, rng)), 0.0, atol=1e-13)

    def test_grad_doubled_point(self, rng):
        q = random_stiefel(6, 2, rng)
        np.testing.assert_allclose(penalty_grad(2.0 * q), 24.0 * q, atol=1e-12)

    def test_grad_matches_finite_differences(self):
        # Central differences with step 1e-6 against the closed form.
        rng = np.random.default_rng(17)
        eps = 1e-6
        for _ in range(100):
            x = rng.standard_normal((5, 3)) * rng.uniform(0.3, 2.0)
            h = rng.standard_normal((5, 3))
            h /= np.linalg.norm(h)
            fd = (penalty(x + eps * h) - penalty(x - eps * h)) / (2 * eps)
            an = float(np.sum(penalty_grad(x) * h))
            assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


class TestRetract:
    @pytest.mark.parametrize("method", ["qr", "polar"])
    def test_zero_step_identity(self, rng, method):
        x = random_stiefel(6, 3, rng)
        np.testing.assert_allclose(retract(x, np.zeros_like(x), method), x, atol=1e-12)

    @pytest.mark.parametrize("method", ["qr", "polar"])
    def test_feasibility(self, method):
        rng = np.random.default_rng(23)
        for x in stiefel_points(8, 3, 100, seed=29):
            xi = random_tangent(x, rng, norm=rng.uniform(0.01, 2.0))
            y = retract(x, xi, method)
            assert manifold_defect(y) <= 1e-10

    def test_polar_of_orthonormal_sum(self, rng):
        # If x + xi already has orthonormal columns the polar factor is itself.
        x = np.eye(4, 2)
        xi = np.zeros((4, 2))
        xi[2, 0] = 1.0
        y = (x + xi) / np.linalg.norm((x + xi), axis=0)
        np.testing.assert_allclose(retract(y, np.zeros_like(y), "polar"), y, atol=1e-12)

    @pytest.mark.parametrize("method", ["qr", "polar"])
    def test_second_order_error_ratio(self, method):
        # ||R_x(t xi) - (x + t xi)|| should scale like t^2: the error ratio
        # between t = 1e-2 and t = 1e-3 sits near 100.
        rng = np.random.default_rng(31)
        for x in stiefel_points(8, 3, 100, seed=37):
            xi = random_tangent(x, rng)
            errs = [
                np.linalg.norm(retract(x, t * xi, method) - (x + t * xi))
                for t in (1e-2, 1e-3)
            ]
            slope = np.log10(errs[0] / errs[1])
            assert 1.85 <= slope <= 2.15

    def test_rank_deficient_raises(self, rng):
        x = random_stiefel(5, 2, rng)
        with pytest.raises(RetractionError, match="argument is numerically rank-deficient"):
            retract(x, -x, "qr")

    @pytest.mark.parametrize("method", ["qr", "polar"])
    @pytest.mark.parametrize("shape", [(16, 10, 5), (4, 784, 5)])
    def test_stack_matches_per_slice_bitwise(self, rng, method, shape):
        x = rng.standard_normal(shape)
        xi = 0.1 * rng.standard_normal(shape)
        stacked = retract(x, xi, method)
        per_slice = np.stack([retract(a, b, method) for a, b in zip(x, xi)])
        assert stacked.tobytes() == per_slice.tobytes()

    def test_rank_deficient_slice_named(self, rng):
        x = np.stack([random_stiefel(5, 2, rng) for _ in range(6)])
        xi = np.zeros_like(x)
        xi[4] = -x[4]
        with pytest.raises(RetractionError, match="slice 4 "):
            retract(x, xi, "qr")

    def test_nan_slice_flows_through(self, rng):
        x = np.stack([random_stiefel(5, 2, rng) for _ in range(3)])
        xi = np.zeros_like(x)
        xi[1] = np.nan
        y = retract(x, xi, "qr")
        assert np.isnan(y[1]).all()
        np.testing.assert_array_equal(y[[0, 2]], retract(x[[0, 2]], xi[[0, 2]], "qr"))

    def test_unknown_method(self, rng):
        x = random_stiefel(5, 2, rng)
        with pytest.raises(ValueError):
            retract(x, np.zeros_like(x), "cayley")


class TestLandingField:
    def test_zero_gradient_on_manifold(self, rng):
        x = random_stiefel(6, 3, rng)
        consts = SmoothnessConstants(L=1.0, L_f=1.0)
        np.testing.assert_allclose(landing_field(x, np.zeros_like(x), consts), 0.0, atol=1e-12)

    def test_on_manifold_equals_riemannian_grad(self, rng):
        x = random_stiefel(6, 3, rng)
        egrad = rng.standard_normal((6, 3))
        consts = SmoothnessConstants(L=1.0, L_f=1.0, landing_weight=2.5)
        np.testing.assert_allclose(
            landing_field(x, egrad, consts), riemannian_grad(x, egrad), atol=1e-12
        )

    def test_zero_weight_anywhere(self, rng):
        x = rng.standard_normal((6, 3))
        egrad = rng.standard_normal((6, 3))
        consts = SmoothnessConstants(L=1.0, L_f=1.0, landing_weight=0.0)
        field = landing_field(x, egrad, consts)
        np.testing.assert_array_equal(field, riemannian_grad(x, egrad))


def test_on_manifold_predicate(rng):
    x = random_stiefel(5, 3, rng)
    assert is_on_manifold(x)
    assert not is_on_manifold(1.01 * x)
    assert is_on_manifold(1.01 * x, tol=1.0)
