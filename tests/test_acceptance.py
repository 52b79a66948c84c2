"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
report; the long MNIST-scale end-to-end check is marked slow and deselected
with `-m "not slow"`.
"""

import struct
import time

import numpy as np
import pytest

from qrgt import (
    AlgoConfig,
    QuantizerSpec,
    SyntheticSpec,
    Topology,
    build_metropolis,
    consensus_error,
    generate_synthetic,
    load_mnist,
    mnist_blocks,
    penalty_grad,
    random_stiefel,
    retract,
    run,
    snap,
    subspace_distance,
    tangent_project,
)
from qrgt.cli import execute
from qrgt.config import parse_config
from qrgt.quantizers import dequantize, dither_noise, encode

from reference import manifold_defect, penalty
from test_quantizers import constant_noise, exact_dithered_floor_expectation


def report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def grad_norms(trace):
    return np.array([row.grad_norm for row in trace.rows])


# ---------------------------------------------------------------- shared runs

RING16 = Topology.ring(16)


@pytest.fixture(scope="module")
def preset_instance():
    # reference synthetic configuration: n=16, m=1000, d=10, r=5, gap 0.8
    return generate_synthetic(
        SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, leading_sv=300.0, seed=0)
    )


@pytest.fixture(scope="module")
def preset_runs(preset_instance):
    alpha = 16 * 0.01 / preset_instance.total_rows
    tic = time.perf_counter()
    traces = {
        "rgt": run(
            preset_instance,
            RING16,
            AlgoConfig(alpha=alpha, t=1, max_epochs=10000, ds_tol=1e-8, seed=0,
                       algorithm="rgt"),
        )
    }
    for bits in (2, 4, 8):
        traces[f"q{bits}"] = run(
            preset_instance,
            RING16,
            AlgoConfig(alpha=alpha, t=1, bits=bits, max_epochs=10000, ds_tol=1e-8, seed=0),
        )
    traces["elapsed"] = time.perf_counter() - tic
    return traces


# ---------------------------------------------------------------- criterion 1


def test_criterion_1_geometry_suite():
    tic = time.perf_counter()
    rng = np.random.default_rng(101)
    eps = 1e-6
    for _ in range(100):
        d, r = 8, 3
        x = random_stiefel(d, r, rng)
        y = rng.standard_normal((d, r)) * rng.uniform(0.1, 5.0)

        g = tangent_project(x, y)
        assert np.linalg.norm(x.T @ g + g.T @ x) <= 1e-10 * np.linalg.norm(y)
        np.testing.assert_allclose(tangent_project(x, g), g, atol=1e-12 * np.linalg.norm(y))

        xi = tangent_project(x, rng.standard_normal((d, r)))
        xi /= np.linalg.norm(xi)
        assert manifold_defect(retract(x, 0.3 * xi)) <= 1e-10
        errs = [np.linalg.norm(retract(x, t * xi) - (x + t * xi)) for t in (1e-2, 1e-3)]
        assert 1.85 <= np.log10(errs[0] / errs[1]) <= 2.15

        z = rng.standard_normal((d, r))
        h = rng.standard_normal((d, r))
        h /= np.linalg.norm(h)
        fd = (penalty(z + eps * h) - penalty(z - eps * h)) / (2 * eps)
        an = float(np.sum(penalty_grad(z) * h))
        assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))
    elapsed = time.perf_counter() - tic
    report("criterion-1 geometry", elapsed < 5.0, f"100 instances in {elapsed:.2f}s (budget 5s)")


# ---------------------------------------------------------------- criterion 2


def test_criterion_2_quantizer_suite():
    tic = time.perf_counter()

    # exhaustive 1-D scan: anchor entry pins gamma = 2
    scan = np.linspace(-1.0, 1.0, 4001)
    for bits in (2, 4, 8):
        spec = QuantizerSpec(bits=bits)
        step = 2.0 / spec.levels
        g = np.stack([scan, np.ones_like(scan)], axis=1)
        noises = [np.zeros_like(g)] + [constant_noise(spec, g.shape, f) for f in (1e-9, 1 - 1e-9)]
        for pg_val in (-5.0, 0.0, 5.0):
            pgrad = np.full_like(g, pg_val)
            for noise in noises:
                values, _ = snap(g, pgrad, spec, noise)
                assert np.abs(values - g).max() <= 1.5 * step + 1e-12

    # Monte Carlo bias of the dithered quantizer, 1e5 draws
    g = np.array([[0.31, -0.5], [0.11, 0.47]])
    pgrad = np.zeros_like(g)
    spec = QuantizerSpec(bits=4)
    rng = np.random.default_rng(2024)
    n_draws = 100_000
    total = np.zeros_like(g)
    total_sq = np.zeros_like(g)
    for _ in range(n_draws):
        v, _ = snap(g, pgrad, spec, dither_noise(rng, spec, g.shape))
        total += v
        total_sq += v * v
    mean = total / n_draws
    se = np.sqrt(np.maximum(total_sq / n_draws - mean**2, 0.0)) / np.sqrt(n_draws)
    oracle = exact_dithered_floor_expectation(g, pgrad, 1.0, 4)
    assert np.all(np.abs(mean - oracle) <= 4.0 * se + 1e-12)
    assert np.abs(mean - g).max() <= 1.0 / spec.levels

    # bit-exact code/scale reconstruction
    spec = QuantizerSpec(bits=6)
    rng = np.random.default_rng(5)
    g = rng.uniform(-2, 2, (9, 4))
    values, scale = snap(g, rng.standard_normal(g.shape), spec, dither_noise(rng, spec, g.shape))
    np.testing.assert_array_equal(dequantize(encode(values, scale, spec), scale, 6), values)

    elapsed = time.perf_counter() - tic
    report("criterion-2 quantizers", elapsed < 10.0, f"scan+MC+reconstruction in {elapsed:.2f}s (budget 10s)")


# ---------------------------------------------------------------- criterion 3


def test_criterion_3_mixing_suite():
    tic = time.perf_counter()

    for n in (4, 8, 16):
        W = build_metropolis(Topology.ring(n)).W
        assert np.abs(W - W.T).max() <= 1e-12
        assert np.abs(W.sum(axis=0) - 1.0).max() <= 1e-12
        assert np.abs(W.sum(axis=1) - 1.0).max() <= 1e-12

    sigma2 = build_metropolis(Topology.ring(4)).sigma2
    assert abs(sigma2 - 1 / 3) <= 1e-12

    # per-epoch contraction with the additive step term:
    # ||x_k - xbar_k|| <= sigma2^t ||x_{k-1} - xbar_{k-1}|| + alpha ||s_{k-1} - sbar_{k-1}||
    inst = generate_synthetic(SyntheticSpec(n=4, m=40, d=6, r=2, eigengap=0.6, leading_sv=2.0, seed=3))
    for t in (1, 2):
        cfg = AlgoConfig(alpha=1e-2, t=t, bits=4, max_epochs=120, seed=5)
        trace = run(inst, Topology.ring(4), cfg, diagnostics=True)
        sig_eff = trace.sigma2**t
        xs = trace.columns["consensus_error"]  # entries 0 to K: the start first
        ss = np.sqrt(trace.columns["s_consensus_sq"])
        assert len(xs) == len(ss) == len(trace.rows) + 1 == cfg.max_epochs + 1
        for k in range(1, len(xs)):
            assert xs[k] <= sig_eff * xs[k - 1] + cfg.alpha * ss[k - 1] + 1e-10

    elapsed = time.perf_counter() - tic
    report("criterion-3 mixing", elapsed < 5.0, f"stochasticity+spectrum+contraction in {elapsed:.2f}s (budget 5s)")


# ---------------------------------------------------------------- criterion 4


def test_criterion_4_ground_truth():
    tic = time.perf_counter()

    inst = generate_synthetic(SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, seed=11))
    recovery = subspace_distance(inst.x_star, inst.planted_basis)
    assert recovery <= 1e-8

    rng = np.random.default_rng(404)
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

    elapsed = time.perf_counter() - tic
    report(
        "criterion-4 ground truth",
        elapsed < 30.0,
        f"planted recovery {recovery:.1e}; 2e5 Procrustes samples beaten by <= 1e-9; {elapsed:.2f}s (budget 30s)",
    )


# ---------------------------------------------------------------- criterion 5


def test_criterion_5_synthetic_reproduction(preset_runs):
    rgt = preset_runs["rgt"]
    assert rgt.termination == "DsTolerance", f"RGT ended with {rgt.termination}"
    assert rgt.final.epoch <= 10000
    assert rgt.final.ds <= 1e-8

    finals_ds = [preset_runs[f"q{b}"].final.ds for b in (2, 4, 8)]
    finals_dist = [preset_runs[f"q{b}"].final.dist_mean for b in (2, 4, 8)]
    assert finals_ds[0] >= finals_ds[1] >= finals_ds[2], f"ds not ordered: {finals_ds}"
    assert finals_dist[0] >= finals_dist[1] >= finals_dist[2], f"dist not ordered: {finals_dist}"

    g_r = grad_norms(rgt)
    g_q = grad_norms(preset_runs["q8"])
    plateau = np.median(g_q[int(0.8 * len(g_q)) :])
    k = min(len(g_r), len(g_q))
    pre = g_q[:k] > 3 * plateau
    assert pre.sum() > 100, "pre-plateau comparison window is empty"
    ratio = np.maximum(g_q[:k][pre] / g_r[:k][pre], g_r[:k][pre] / g_q[:k][pre])
    assert ratio.max() <= 3.0, f"grad-norm ratio {ratio.max():.2f} exceeds 3"

    elapsed = preset_runs["elapsed"]
    report(
        "criterion-5 synthetic reproduction",
        elapsed < 120.0,
        f"RGT stop at epoch {rgt.final.epoch}; ds by bits {[f'{v:.1e}' for v in finals_ds]}; "
        f"max pre-plateau grad ratio {ratio.max():.2f}; {elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------- criterion 6


def test_criterion_6_rate_law():
    tic = time.perf_counter()
    inst = generate_synthetic(SyntheticSpec(n=16, m=1000, d=10, r=5, eigengap=0.8, seed=0))
    # gap^2 / (16 (L + L_f)) on this instance and ring, as the deleted safety step bound gave; ROADMAP item 6 will measure one
    alpha = 0.0009768004977661001

    K = 50_000
    cfg = AlgoConfig(alpha=alpha, t=1, bits=16, max_epochs=2 * K, seed=0)
    trace = run(inst, RING16, cfg)
    assert trace.termination == "MaxEpochs"

    g2 = grad_norms(trace) ** 2
    ratio_g = g2[:K].min() / g2[: 2 * K].min()
    assert 1.3 <= ratio_g <= 4.0, f"grad-norm ratio {ratio_g:.2f} outside [1.3, 4]"

    # consensus starts at zero, up to the rounding of the agent mean, and
    # needs a few mixing times to reach its working level, so its minimum is
    # taken after a burn-in window
    c2 = np.array([row.consensus_error for row in trace.rows]) ** 2
    burn = 1000
    ratio_c = c2[burn:K].min() / c2[burn : 2 * K].min()
    assert 1.3 <= ratio_c <= 4.0, f"consensus ratio {ratio_c:.2f} outside [1.3, 4]"

    # the identity underpinning the rate law holds all along
    assert max(trace.diagnostics.tracker_residual) <= 1e-10

    elapsed = time.perf_counter() - tic
    report(
        "criterion-6 rate law",
        elapsed < 120.0,
        f"alpha={alpha:.2e}; grad ratio {ratio_g:.2f}, consensus ratio {ratio_c:.2f} in [1.3, 4]; "
        f"{elapsed:.1f}s (budget 120s)",
    )


# ---------------------------------------------------------------- criterion 7


def test_criterion_7_tracker_identity(preset_runs):
    worst = max(max(preset_runs[k].diagnostics.tracker_residual) for k in ("rgt", "q2", "q4", "q8"))
    report(
        "criterion-7 tracker identity",
        worst <= 1e-10,
        f"max ||mean(s) - mean(gamma)|| / max(1, ||mean(gamma)||) = {worst:.2e} <= 1e-10",
    )


# ---------------------------------------------------------------- criterion 8


def test_criterion_8_determinism(tmp_path, preset_instance):
    cfg = parse_config(
        preset="synthetic", overrides={"out": str(tmp_path / "a.csv"), "seed": 42}
    )
    execute(cfg)
    first = (tmp_path / "a.csv").read_bytes()
    execute(cfg)
    identical = (tmp_path / "a.csv").read_bytes() == first
    report("criterion-8 determinism", identical, f"byte-identical CSV: {identical}")


# ---------------------------------------------------------------- criterion 9


def write_mnist_scale_fixture(path, count=60000, side=28, seed=0):
    """IDX3 file with a realistic decaying spectrum: low-rank structure over
    a constant background plus pixel noise, quantized to bytes."""
    rank = 15
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((rank, side * side))
    scales = 25.0 * 0.82 ** np.arange(rank)
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", 0x00000803, count, side, side))
        for start in range(0, count, 10000):
            rows = min(10000, count - start)
            p = rng.standard_normal((rows, rank)) * scales
            block = 128.0 + p @ q / np.sqrt(3.0) + rng.normal(0.0, 8.0, size=(rows, side * side))
            f.write(np.clip(np.rint(block), 0, 255).astype(np.uint8).tobytes())


@pytest.mark.slow
def test_criterion_9_mnist_protocol(tmp_path):
    tic = time.perf_counter()
    path = tmp_path / "images.idx3"
    write_mnist_scale_fixture(path)

    inst = load_mnist(path, n=16, r=5, seed=0)
    assert inst.total_rows == 60000
    assert inst.dims.d == 784
    assert inst.row_counts == (3750,) * 16
    # the instance keeps no pixels: check the blocks as the loader makes them
    row_counts, d, fill = mnist_blocks(path, n=16, seed=0)
    assert row_counts == inst.row_counts and d == 784
    stacked_min, stacked_max = np.inf, -np.inf
    a = np.empty((3750, d))
    for i in range(16):
        fill(i, a)
        stacked_min, stacked_max = min(stacked_min, a.min()), max(stacked_max, a.max())
    assert 0.0 <= stacked_min and stacked_max <= 1.0

    alpha = 0.01 / 60000
    rgt = run(inst, RING16, AlgoConfig(alpha=alpha, max_epochs=2000, ds_tol=1e-8, seed=0,
                                       algorithm="rgt"))
    q8 = run(inst, RING16, AlgoConfig(alpha=alpha, bits=8, max_epochs=2000, ds_tol=1e-8, seed=0))

    f_r = np.array([row.f_gap for row in rgt.rows])
    f_q = np.array([row.f_gap for row in q8.rows])
    k = min(len(f_r), len(f_q))
    plateau = np.median(f_q[int(0.8 * len(f_q)) :])
    pre = f_q[:k] > 3 * plateau
    if not pre.any():  # no plateau reached within the cap: compare everywhere
        pre = np.ones(k, dtype=bool)
    ratio = np.maximum(f_q[:k][pre] / f_r[:k][pre], f_r[:k][pre] / f_q[:k][pre])
    assert ratio.max() <= 3.0, f"f_gap ratio {ratio.max():.2f} exceeds 3"

    elapsed = time.perf_counter() - tic
    report(
        "criterion-9 mnist protocol",
        elapsed < 900.0,
        f"60000x784 ingested, 3750 rows/agent; RGT {rgt.termination}, Q-RGT {q8.termination}; "
        f"max f_gap ratio {ratio.max():.2f}; {elapsed:.0f}s (budget 900s)",
    )


# ---------------------------------------------------------------- criterion 10

FLOOR_BITS = (4, 6, 8, 10, 12, 16)
# consensus x (2^N - 1) on the plateau: seed 0 read 0.2375-0.2637 over
# FLOOR_BITS, and the band is 0.8 times its lowest reading to 1.2 times its
# highest; seeds 1-4 read 0.2479-0.2801, inside it
FLOOR_BAND = (0.19, 0.32)


def test_criterion_10_consensus_floor(preset_instance):
    # The consensus error of Q-RGT settles on a floor set by the bit count.
    # The paper bounds it by a function of the quantization levels; its
    # constant is not in the repository, so this checks the measured scaling
    # law instead: the floor halves with each extra bit, and stays within a
    # fixed band once scaled by the number of grid steps, 2^N - 1.
    tic = time.perf_counter()
    alpha = 16 * 0.01 / preset_instance.total_rows
    floors = []
    for bits in FLOOR_BITS:
        trace = run(preset_instance, RING16, AlgoConfig(alpha=alpha, bits=bits, max_epochs=3000, seed=0))
        assert len(trace.rows) == 3000, f"{bits} bits ended with {trace.termination}"
        floors.append(np.median([row.consensus_error for row in trace.rows[-600:]]))
    slope = np.polyfit(FLOOR_BITS, np.log2(floors), 1)[0]
    scaled = np.array(floors) * (2.0 ** np.array(FLOOR_BITS) - 1)
    in_band = bool(((FLOOR_BAND[0] <= scaled) & (scaled <= FLOOR_BAND[1])).all())
    elapsed = time.perf_counter() - tic
    report(
        "criterion-10 consensus floor (measured scaling law)",
        -1.1 <= slope <= -0.9 and in_band and elapsed < 60.0,
        f"log2 slope {slope:.3f} per bit in [-1.1, -0.9]; consensus x (2^N - 1) "
        f"{scaled.min():.3f}-{scaled.max():.3f} in [{FLOOR_BAND[0]}, {FLOOR_BAND[1]}] "
        f"over bits {list(FLOOR_BITS)}; {elapsed:.1f}s (budget 60s)",
    )
