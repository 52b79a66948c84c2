import warnings

import numpy as np
import pytest

from qrgt import (
    ManifoldDims,
    SmoothnessConstants,
    distance_to_manifold,
    penalty_grad,
    random_stiefel,
    retract,
    tangent_project,
)
from qrgt import stiefel
from qrgt.stiefel import CHOLESKY_K, RetractionError

from conftest import random_tangent, stiefel_points
from reference import householder_retract, manifold_defect, penalty, svd_distance_to_manifold


class TestManifoldDims:
    def test_valid(self):
        dims = ManifoldDims(10, 5)
        assert (dims.d, dims.r) == (10, 5)

    @pytest.mark.parametrize("d,r", [(3, 4), (0, 1), (5, 0)])
    def test_invalid_shape(self, d, r):
        with pytest.raises(ValueError):
            ManifoldDims(d, r)


class TestSmoothnessConstants:
    def test_lg_is_sum(self):
        c = SmoothnessConstants(L=2.0, L_f=3.0)
        assert c.L_g == 5.0


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

    @pytest.mark.parametrize("d", [10, 784])
    def test_negate_projects_the_negation(self, rng, d):
        # The engine's gradient from P = G x: the projection of -P with no
        # negated copy, bit for bit, off the manifold too.
        x = rng.standard_normal((16, d, 5))
        P = rng.standard_normal((16, d, 5))
        out = np.empty_like(P)
        assert stiefel._tangent_project(x, P, out, negate=True) is out
        assert out.tobytes() == tangent_project(x, -P).tobytes()


class TestRiemannianGrad:
    """The Riemannian gradient is the tangent projection of the Euclidean one."""

    def test_zero_gradient(self, rng):
        x = random_stiefel(5, 2, rng)
        assert np.all(tangent_project(x, np.zeros((5, 2))) == 0.0)

    def test_point_itself_is_normal(self, rng):
        x = random_stiefel(5, 2, rng)
        np.testing.assert_allclose(tangent_project(x, x), 0.0, atol=1e-14)

    def test_tangency_identity(self, rng):
        x = random_stiefel(8, 3, rng)
        g = tangent_project(x, rng.standard_normal((8, 3)))
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

    def test_rank_deficient_has_a_distance(self):
        x = np.zeros((4, 2))
        x[0, 0] = 1.0
        assert abs(distance_to_manifold(x) - 1.0) <= 1e-12  # singular values {1, 0}

    def test_rank_deficient_is_the_svd_form(self, rng):
        # A zero column, or a column that repeats another up to sign and
        # scale: the Gram's eigenvalue at 0 comes out a rounding off 0, and
        # is read as 0, so the distance has no NaN and no warning and is the
        # singular-value form's.
        cases = []
        for d, r in [(10, 5), (6, 2), (784, 5), (3, 3)]:
            for _ in range(20):
                x = rng.standard_normal((d, r)) / np.sqrt(d)
                j, k = rng.choice(r, 2, replace=False)
                zeroed, repeated = x.copy(), x.copy()
                zeroed[:, j] = 0.0
                repeated[:, j] = rng.choice([1.0, -1.0, 0.5, 2.0]) * x[:, k]
                cases += [zeroed, repeated]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = [float(distance_to_manifold(x)) for x in cases]
        assert np.isfinite(got).all()
        expected = [float(svd_distance_to_manifold(x)) for x in cases]
        assert np.abs(np.subtract(got, expected)).max() <= 1e-14

    def test_zero_matrix(self):
        for shape in [(4, 2), (3, 5, 2)]:
            assert (distance_to_manifold(np.zeros(shape)) == np.sqrt(2.0)).all()

    def test_stack_matches_per_slice_bitwise(self, rng):
        x = rng.standard_normal((6, 7, 3))
        stacked = distance_to_manifold(x)
        assert stacked.shape == (6,)
        assert stacked.tobytes() == np.array([distance_to_manifold(a) for a in x]).tobytes()

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
    def test_zero_step_identity(self, rng):
        x = random_stiefel(6, 3, rng)
        np.testing.assert_allclose(retract(x, np.zeros_like(x)), x, atol=1e-12)

    def test_feasibility(self):
        rng = np.random.default_rng(23)
        for x in stiefel_points(8, 3, 100, seed=29):
            xi = random_tangent(x, rng, norm=rng.uniform(0.01, 2.0))
            y = retract(x, xi)
            assert manifold_defect(y) <= 1e-10

    def test_second_order_error_ratio(self):
        # ||R_x(t xi) - (x + t xi)|| should scale like t^2: the error ratio
        # between t = 1e-2 and t = 1e-3 sits near 100.
        rng = np.random.default_rng(31)
        for x in stiefel_points(8, 3, 100, seed=37):
            xi = random_tangent(x, rng)
            errs = [
                np.linalg.norm(retract(x, t * xi) - (x + t * xi))
                for t in (1e-2, 1e-3)
            ]
            slope = np.log10(errs[0] / errs[1])
            assert 1.85 <= slope <= 2.15

    def test_rank_deficient_raises(self, rng):
        x = random_stiefel(5, 2, rng)
        with pytest.raises(RetractionError, match="argument is numerically rank-deficient"):
            retract(x, -x)

    @pytest.mark.parametrize("shape", [(16, 10, 5), (4, 784, 5)])
    def test_stack_matches_per_slice_bitwise(self, rng, shape):
        x = rng.standard_normal(shape)
        xi = 0.1 * rng.standard_normal(shape)
        stacked = retract(x, xi)
        per_slice = np.stack([retract(a, b) for a, b in zip(x, xi)])
        assert stacked.tobytes() == per_slice.tobytes()

    def test_rank_deficient_slice_named(self, rng):
        x = np.stack([random_stiefel(5, 2, rng) for _ in range(6)])
        xi = np.zeros_like(x)
        xi[4] = -x[4]
        with pytest.raises(RetractionError, match="slice 4 "):
            retract(x, xi)

    def test_nan_slice_flows_through(self, rng):
        x = np.stack([random_stiefel(5, 2, rng) for _ in range(3)])
        xi = np.zeros_like(x)
        xi[1] = np.nan
        y = retract(x, xi)
        assert np.isnan(y[1]).all()
        np.testing.assert_array_equal(y[[0, 2]], retract(x[[0, 2]], xi[[0, 2]]))


def with_spectrum(d, lam, rng):
    """A random (d, r) matrix whose Gram has the eigenvalues ``lam``."""
    u = random_stiefel(d, len(lam), rng)
    v = random_stiefel(len(lam), len(lam), rng)
    return (u * np.sqrt(lam)) @ v.T


def takes_cholesky_path(y):
    """Whether the Cholesky factorization of retract's augmented matrix of
    the one (d, r) matrix y succeeds, that is y passes the screen."""
    try:
        np.linalg.cholesky(stiefel._augmented(y))
    except np.linalg.LinAlgError:
        return False
    return True


class TestCholeskyRetraction:
    """retract reads the Q factor from one Cholesky factorization of the
    augmented Gram; slices it refuses fall back to Householder QR."""

    @pytest.mark.parametrize("d", [10, 784])
    def test_agrees_with_householder(self, rng, d):
        x = np.stack([random_stiefel(d, 5, rng) for _ in range(16)])
        xi = tangent_project(x, 0.1 * rng.standard_normal(x.shape))
        assert np.abs(retract(x, xi) - householder_retract(x, xi)).max() <= 1e-14

    def test_mixed_stack(self, rng):
        # A well-conditioned slice takes the Cholesky path; one with
        # kappa^2 > K, a zero slice and a NaN slice fail the stacked call,
        # which is then redone slice by slice.
        good = with_spectrum(10, [1.0, 1.1, 0.9, 1.2, 0.8], rng)
        ill = with_spectrum(10, [1.0, 1.0, 1.0, 1.0, 0.5 / CHOLESKY_K], rng)
        nan = np.full((10, 5), np.nan)
        assert takes_cholesky_path(good) and not takes_cholesky_path(ill)
        y = np.stack([good, ill, nan, good[::-1]])
        zero = np.zeros_like(y)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            q = retract(y, zero)
            per_slice = [retract(a, b) for a, b in zip(y, zero)]
            with pytest.raises(RetractionError, match="slice 2 is numerically rank-deficient"):
                retract(np.stack([good, ill, np.zeros((10, 5)), nan]), np.zeros((4, 10, 5)))
        for i in (0, 1, 3):
            assert q[i].tobytes() == per_slice[i].tobytes()
        assert np.isnan(q[2]).all() and np.isnan(per_slice[2]).all()
        assert q[1].tobytes() == householder_retract(ill, np.zeros_like(ill)).tobytes()
        assert np.abs(q[1].T @ q[1] - np.eye(5)).max() <= 1e-14

    @pytest.mark.parametrize("d", [10, 784])
    def test_reused_buffer_is_a_new_buffer(self, rng, d):
        # The engine's one buffer, refilled by each call, against retract's
        # new buffer per call: a healthy stack, one whose ill slice sends the
        # call to the per-slice fallback (which reads the buffer), one with
        # a NaN slice, and a healthy one again.
        good = [with_spectrum(d, [1.0, 1.1, 0.9, 1.2, 0.8], rng) for _ in range(4)]
        ill = with_spectrum(d, [1.0, 1.0, 1.0, 1.0, 0.5 / CHOLESKY_K], rng)
        nan = np.full((d, 5), np.nan)
        stacks = [good, [good[0], ill, good[2], good[3]], [good[0], good[1], nan, good[3]], good[::-1]]
        m = stiefel._augmented_buffer((4,), 5)
        for slices in stacks:
            y = np.stack(slices)
            xi = 1e-6 * rng.standard_normal(y.shape)
            refused = [not takes_cholesky_path(a + b) for a, b in zip(y, xi)]
            assert refused == [a is ill for a in slices]
            assert stiefel._retract(y, xi, m).tobytes() == retract(y, xi).tobytes()
        deficient = np.stack([good[0], good[1], good[2], np.zeros((d, 5))])
        with pytest.raises(RetractionError, match="slice 3 is numerically rank-deficient"):
            stiefel._retract(deficient, np.zeros_like(deficient), m)

    @pytest.mark.parametrize("d", [10, 784])
    def test_orthonormal_just_inside_the_screen(self, rng, d):
        # lambda_min(G) > tr(G) / K allows kappa^2 up to K - (r - 1): the
        # largest eigenvalue just below that over four at 1.
        worst = 0.0
        for _ in range(20):
            y = with_spectrum(d, [CHOLESKY_K - 4.5, 1.0, 1.0, 1.0, 1.0], rng)
            assert takes_cholesky_path(y)
            q = retract(y, np.zeros_like(y))
            worst = max(worst, np.abs(q.T @ q - np.eye(5)).max())
        assert worst <= 1e-12

    def test_ill_conditioned_slice_orthonormal(self, rng):
        # kappa^2 = 1e12 still has a Cholesky factor, whose Q would lose
        # about 1e-4 of orthogonality; the screen sends it to Householder QR.
        y = with_spectrum(10, [1.0, 1.0, 1.0, 1.0, 1e-12], rng)
        q = retract(np.stack([y, y]), np.zeros((2, 10, 5)))
        assert np.abs(q.swapaxes(-1, -2) @ q - np.eye(5)).max() <= 1e-14
