"""The row panels of the Gram products, the local gradients' and the
metrics', and the column panels of ``mix``: every BLAS call stays within ``workers.SMALL_GEMM``
multiply-adds, a cut product stays within a rounding bound of the uncut
one, and a product of one panel is the plain call, bit for bit."""

import numpy as np
import pytest

from qrgt import AlgoConfig, SyntheticSpec, Topology, build_metropolis, generate_synthetic, mix, workers
from qrgt.engine import _Engine

from reference import wide_instance


@pytest.fixture
def matmul_calls(monkeypatch):
    """(a, b, out) of every ``np.matmul`` call from now on; the package
    takes every Gram product and every mix by ``np.matmul``."""
    matmul = np.matmul
    calls = []

    def recording(a, b, out=None, **kwargs):
        calls.append((a, b, out))
        return matmul(a, b, out=out, **kwargs)

    monkeypatch.setattr(np, "matmul", recording)
    return calls


def gemm_size(a, b):
    """M N K of each BLAS call of the (stacked) product a @ b."""
    return a.shape[-2] * a.shape[-1] * b.shape[-1]


@pytest.fixture(scope="module")
def wide():
    return wide_instance()


@pytest.fixture(scope="module")
def preset():
    return generate_synthetic(
        SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, leading_sv=300.0, seed=0)
    )


class TestPanels:
    @pytest.mark.parametrize(
        "length, unit",
        [(784, 784 * 5), (3920, 16 * 16), (3906, 16 * 16), (10, 50), (785, 785 * 5), (7, 2 * 10**6)],
    )
    def test_cover_and_bound(self, length, unit):
        cuts = workers.panels(length, unit)
        assert [lo for lo, _ in cuts] == [0] + [hi for _, hi in cuts[:-1]]
        assert cuts[-1][1] == length
        sizes = [hi - lo for lo, hi in cuts]
        assert max(sizes) - min(sizes) <= 1
        if len(cuts) > 1:
            assert max(sizes) * unit <= workers.SMALL_GEMM
            # one panel fewer would break the bound
            assert -(-length // (len(cuts) - 1)) * unit > workers.SMALL_GEMM
        else:
            assert length * unit <= workers.SMALL_GEMM or unit > workers.SMALL_GEMM

    def test_mnist_shape(self):
        # Four panels of 196 rows per agent, and two of 1960 columns for mix
        # at n = 16, whose one product has M N K = 16 * 16 * 3920 = 1,003,520.
        assert workers.panels(784, 784 * 5) == [(0, 196), (196, 392), (392, 588), (588, 784)]
        assert workers.panels(3920, 16 * 16) == [(0, 1960), (1960, 3920)]


class TestProducts:
    def test_every_call_within_the_bound(self, matmul_calls, wide):
        # local_grads at d = 784 and mix at the MNIST shape (n = 16, d = 784).
        X = np.random.default_rng(1).standard_normal((4, 784, 5))
        _Engine(wide, build_metropolis(Topology.ring(4)), AlgoConfig(alpha=1e-3)).local_grads(X)
        assert len(matmul_calls) == 4
        mix(build_metropolis(Topology.ring(16)), np.random.default_rng(2).standard_normal((16, 784, 5)))
        assert len(matmul_calls) == 6
        assert max(gemm_size(a, b) for a, b, _ in matmul_calls) <= workers.SMALL_GEMM

    def test_wide_panels_near_the_plain_product(self, wide):
        # A panel may take another kernel than the uncut product, so its
        # rows may round differently, but within a GEMM's error bound.
        eps = np.finfo(float).eps
        rng = np.random.default_rng(3)
        eng = _Engine(wide, build_metropolis(Topology.ring(4)), AlgoConfig(alpha=1e-3))
        for _ in range(3):
            X = rng.standard_normal((4, 784, 5))
            error = eng.local_grads(X) - np.matmul(wide.grams, X)
            for G, x, e in zip(wide.grams, X, error):
                assert np.linalg.norm(e) <= 8 * 784 * eps * np.linalg.norm(G) * np.linalg.norm(x)

    def test_mean_gram_panels_near_the_plain_product(self, wide):
        # The metrics' (d, d) mean Gram over a block of ten means.
        eps = np.finfo(float).eps
        G = wide.mean_gram
        X = np.random.default_rng(6).standard_normal((10, 784, 5))
        for x, e in zip(X, workers.gram_products(G, X) - np.matmul(G, X)):
            assert np.linalg.norm(e) <= 8 * 784 * eps * np.linalg.norm(G) * np.linalg.norm(x)

    def test_wide_mix_near_the_plain_product(self):
        eps = np.finfo(float).eps
        mixing = build_metropolis(Topology.ring(16))
        X = np.random.default_rng(4).standard_normal((16, 784, 5))
        error = mix(mixing, X) - (mixing.W_t @ X.reshape(16, -1)).reshape(X.shape)
        assert np.linalg.norm(error) <= 8 * 16 * eps * np.linalg.norm(mixing.W_t) * np.linalg.norm(X)

    def test_preset_products_are_the_plain_calls(self, matmul_calls, preset):
        # One panel each: the plain call on the whole operands, bit for bit.
        mixing = build_metropolis(Topology.ring(16))
        X = np.random.default_rng(5).standard_normal((16, 10, 5))
        grads = _Engine(preset, mixing, AlgoConfig(alpha=1e-3)).local_grads(X)
        mixed = mix(mixing, X)
        (G, x, _), (W, flat, out) = matmul_calls
        assert G is preset.grams and x is X
        assert W is mixing.W_t and flat.base is X and out is None
        assert grads.tobytes() == np.matmul(preset.grams, X).tobytes()
        assert mixed.tobytes() == (mixing.W_t @ X.reshape(16, -1)).reshape(X.shape).tobytes()
