import tracemalloc

import numpy as np
import pytest

from qrgt import (
    AlgoConfig,
    QuantizerSpec,
    SmoothnessConstants,
    SyntheticSpec,
    Topology,
    build_metropolis,
    generate_synthetic,
    init_state,
    local_euclidean_grad,
    make_instance,
    manifold_defect,
    penalty_grad,
    qrgt_epoch,
    quantize_landing,
    retract,
    rgt_epoch,
    run,
    safety_step_bound,
    step_size_bounds,
    tangent_project,
)
from qrgt.engine import (
    TERMINATION_DIVERGED,
    TERMINATION_DS,
    TERMINATION_MAX_EPOCHS,
    StepSizeError,
    _Engine,
)
from qrgt.network import MixingMatrix
from qrgt.quantizers import MODE_DITHERED
from qrgt.streams import STREAM_DITHER, stream_rng


def small_instance(seed=0, n=4, leading_sv=2.0):
    return generate_synthetic(
        SyntheticSpec(n=n, m=40, d=6, r=2, eigengap=0.6, leading_sv=leading_sv, seed=seed)
    )


def single_agent_identity_instance(d=5, r=2):
    with pytest.warns(Warning):
        return make_instance([np.eye(d)], r=r)


def identity_mixing(n=1):
    return MixingMatrix(W=np.eye(n), sigma2=0.0, t=1, W_t=np.eye(n))


class TestAlgoConfig:
    def test_defaults_valid(self):
        AlgoConfig(alpha=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=0.1, max_epochs=0),
            dict(alpha=0.1, algorithm="dgd"),
            dict(alpha=0.1, retraction="cayley"),
            dict(alpha=0.1, bits=0),
            dict(alpha=0.1, ds_tolerance=-1.0),
        ],
    )
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AlgoConfig(**kwargs)


class TestInit:
    def test_shared_start_zero_consensus(self):
        inst = small_instance()
        state = init_state(inst, AlgoConfig(alpha=1e-3, seed=5))
        for x in state.x[1:]:
            np.testing.assert_array_equal(x, state.x[0])

    def test_start_on_manifold(self):
        inst = small_instance()
        state = init_state(inst, AlgoConfig(alpha=1e-3, seed=5))
        assert manifold_defect(state.x[0]) <= 1e-10

    def test_tracker_seeded_with_first_gradient(self):
        inst = small_instance()
        state = init_state(inst, AlgoConfig(alpha=1e-3, seed=5))
        for i in range(inst.n_agents):
            np.testing.assert_array_equal(state.s[i], state.g[i])

    def test_seed_determinism(self):
        inst = small_instance()
        a = init_state(inst, AlgoConfig(alpha=1e-3, seed=9))
        b = init_state(inst, AlgoConfig(alpha=1e-3, seed=9))
        c = init_state(inst, AlgoConfig(alpha=1e-3, seed=10))
        np.testing.assert_array_equal(a.x[0], b.x[0])
        assert not np.array_equal(a.x[0], c.x[0])

    def test_rgt_tracker_is_exact_gradient(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, seed=5, algorithm="rgt")
        state = init_state(inst, cfg)
        for i in range(inst.n_agents):
            expected = tangent_project(state.x[i], local_euclidean_grad(inst, i, state.x[i]))
            np.testing.assert_array_equal(state.s[i], expected)


class TestQrgtEpoch:
    def test_stationary_at_identity_gram(self):
        # Gram = I makes every on-manifold point stationary: the Riemannian
        # gradient of -x vanishes (to roundoff, which sets the quantizer
        # scale), so one epoch leaves the iterate in place.
        inst = single_agent_identity_instance()
        cfg = AlgoConfig(alpha=1e-2, bits=32, seed=3)
        state = init_state(inst, cfg)
        assert np.abs(state.s[0]).max() <= 1e-14
        after = qrgt_epoch(state, inst, identity_mixing(), cfg, epoch=1)
        np.testing.assert_allclose(after.x[0], state.x[0], rtol=0, atol=1e-15)

    def test_tracker_mean_identity_over_run(self):
        inst = small_instance(seed=1)
        cfg = AlgoConfig(alpha=1e-3, bits=4, seed=2, max_epochs=200)
        trace = run(inst, Topology.ring(4), cfg)
        assert max(trace.diagnostics.tracker_residual) <= 1e-10

    def test_tracker_mean_identity_rgt(self):
        inst = small_instance(seed=1)
        cfg = AlgoConfig(alpha=1e-3, seed=2, max_epochs=100, algorithm="rgt")
        trace = run(inst, Topology.ring(4), cfg)
        assert max(trace.diagnostics.tracker_residual) <= 1e-10

    def test_full_precision_matches_exact_tracking_loop(self):
        # bits = 32 without dither is indistinguishable (to 1e-6 over 100
        # epochs) from the same tracking recursion with exact gradients.
        inst = generate_synthetic(
            SyntheticSpec(n=16, m=100, d=10, r=5, eigengap=0.8, leading_sv=20.0, seed=7)
        )
        mixing = build_metropolis(Topology.ring(16))
        alpha = 1e-4
        cfg = AlgoConfig(alpha=alpha, bits=32, dither=False, seed=11)
        state = init_state(inst, cfg)
        for epoch in range(1, 101):
            state = qrgt_epoch(state, inst, mixing, cfg, epoch=epoch)

        # independent plain-numpy reference
        ref_cfg = AlgoConfig(alpha=alpha, bits=32, dither=False, seed=11)
        ref = init_state(inst, ref_cfg)
        x0 = ref.x[0]
        n = inst.n_agents
        X = np.stack([x0] * n)
        G = np.stack(
            [
                tangent_project(x0, local_euclidean_grad(inst, i, x0))
                for i in range(n)
            ]
        )
        S = G.copy()
        for _ in range(100):
            X = np.tensordot(mixing.W_t, X, axes=(1, 0)) - alpha * S
            Gn = np.stack(
                [
                    tangent_project(X[i], local_euclidean_grad(inst, i, X[i]))
                    for i in range(n)
                ]
            )
            S = np.tensordot(mixing.W_t, S, axes=(1, 0)) + Gn - G
            G = Gn
        assert np.abs(state.x - X).max() <= 1e-6

    def test_epoch_keyed_dither_reproducible(self):
        inst = small_instance(seed=4)
        mixing = build_metropolis(Topology.ring(4))
        cfg = AlgoConfig(alpha=1e-3, bits=3, seed=6)
        state = init_state(inst, cfg)
        a = qrgt_epoch(state, inst, mixing, cfg, epoch=1)
        b = qrgt_epoch(state, inst, mixing, cfg, epoch=1)
        c = qrgt_epoch(state, inst, mixing, cfg, epoch=2)
        np.testing.assert_array_equal(a.x[0], b.x[0])
        np.testing.assert_array_equal(a.g[0], b.g[0])
        assert not np.array_equal(a.g[0], c.g[0])


class TestQuantizeAll:
    def test_matches_quantizer_on_fresh_epoch_stream(self):
        # The engine's quantizer equals the public stacked quantizer fed one
        # (n, d, r) block from a freshly built (seed, epoch) dither stream,
        # whatever epochs the engine served before.
        inst = generate_synthetic(
            SyntheticSpec(n=4, m=40, d=5, r=3, eigengap=0.6, leading_sv=2.0, seed=4)
        )
        cfg = AlgoConfig(alpha=1e-3, bits=3, seed=6)
        eng = _Engine(inst, None, cfg)
        X = init_state(inst, cfg).x + 0.05 * np.random.default_rng(1).standard_normal((4, 5, 3))
        RG = tangent_project(X, eng.local_grads(X))
        PG = penalty_grad(X)
        spec = QuantizerSpec(bits=3, mode=MODE_DITHERED)
        half = 0.5 / spec.levels
        for epoch in (5, 7, 2):
            values, scales, _ = eng.quantize_all(RG, PG, epoch)
            noise = stream_rng(cfg.seed, STREAM_DITHER, epoch).uniform(-half, half, RG.shape)
            q = quantize_landing(RG, PG, spec, noise)
            assert values.tobytes() == q.value.tobytes()
            assert scales.tobytes() == q.scale.tobytes()


class TestEngineBuild:
    def test_holds_no_copy_of_the_grams(self):
        # The engine reads the instance's Gram stack in place; building one
        # allocates far less than that stack.
        inst = generate_synthetic(
            SyntheticSpec(n=4, m=200, d=200, r=2, eigengap=0.6, leading_sv=2.0, seed=0)
        )
        cfg = AlgoConfig(alpha=1e-3, seed=0)
        tracemalloc.start()
        try:
            eng = _Engine(inst, None, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert eng.inst is inst
        assert peak < inst.grams.nbytes / 2


class TestRgtEpoch:
    def test_feasibility_every_epoch(self):
        inst = small_instance(seed=2)
        mixing = build_metropolis(Topology.ring(4))
        cfg = AlgoConfig(alpha=5e-3, algorithm="rgt", seed=1)
        state = init_state(inst, cfg)
        for epoch in range(1, 30):
            state = rgt_epoch(state, inst, mixing, cfg, epoch=epoch)
            assert max(manifold_defect(x) for x in state.x) <= 1e-8

    @pytest.mark.parametrize("retraction", ["qr", "polar"])
    def test_single_agent_reduces_to_centralized_descent(self, retraction):
        inst = single_agent_identity_instance(d=6, r=2)
        # break the flat spectrum so the gradient is nonzero
        inst = make_instance([np.diag([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])], r=2)
        cfg = AlgoConfig(alpha=1e-2, algorithm="rgt", retraction=retraction, seed=8)
        state = init_state(inst, cfg)
        x_ref = state.x[0].copy()
        for epoch in range(1, 20):
            state = rgt_epoch(state, inst, identity_mixing(), cfg, epoch=epoch)
            g = tangent_project(x_ref, local_euclidean_grad(inst, 0, x_ref))
            x_ref = retract(x_ref, -cfg.alpha * g, retraction)
            np.testing.assert_allclose(state.x[0], x_ref, atol=1e-12)


class TestStepSizeBounds:
    def test_hand_arithmetic(self):
        consts = SmoothnessConstants(L=0.5, L_f=0.5)  # L_m = 1
        bounds = step_size_bounds(consts, sigma2=1 / 3, n=16)
        assert bounds["descent"] == pytest.approx(0.125)
        assert bounds["consensus"] == pytest.approx((2 / 3) ** 2 / 16)
        assert bounds["stability"] == pytest.approx((2 / 3) ** 2 / 4)
        assert bounds["rate"] == pytest.approx(np.sqrt(16 * (2 / 3) ** 3 / 3) / 16)
        assert bounds["consensus_rate"] == pytest.approx((16 * (2 / 3) ** 3) ** 0.25 / 16)
        assert safety_step_bound(consts, 1 / 3, 16) == pytest.approx(1 / 36)

    def test_vanishes_as_network_disconnects(self):
        consts = SmoothnessConstants(L=0.5, L_f=0.5)
        assert safety_step_bound(consts, 0.9999, 16) < 1e-7
        assert safety_step_bound(consts, 0.9999, 16) < safety_step_bound(consts, 0.5, 16)

    def test_at_most_halved_when_lm_doubles(self):
        a = SmoothnessConstants(L=1.0, L_f=1.0)
        b = SmoothnessConstants(L=2.0, L_f=2.0)
        for sigma2 in (0.0, 0.3, 0.9):
            assert safety_step_bound(b, sigma2, 8) <= safety_step_bound(a, sigma2, 8) / 2 * (
                1 + 1e-12
            )

    def test_sigma2_out_of_range(self):
        consts = SmoothnessConstants(L=1.0, L_f=1.0)
        with pytest.raises(ValueError):
            step_size_bounds(consts, 1.0, 4)
        with pytest.raises(ValueError):
            step_size_bounds(consts, -0.1, 4)


class TestRun:
    def test_single_epoch_single_row(self):
        inst = small_instance()
        trace = run(inst, Topology.ring(4), AlgoConfig(alpha=1e-3, max_epochs=1, seed=0))
        assert len(trace.rows) == 1
        assert trace.termination == TERMINATION_MAX_EPOCHS

    def test_early_stop(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, max_epochs=50, ds_tolerance=10.0, seed=0)
        trace = run(inst, Topology.ring(4), cfg)
        assert trace.termination == TERMINATION_DS
        assert len(trace.rows) == 1

    def test_divergence_detected(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e6, max_epochs=200, seed=0)
        trace = run(inst, Topology.ring(4), cfg)
        assert trace.termination == TERMINATION_DIVERGED

    def test_wire_accounting(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, max_epochs=3, bits=8, seed=0)
        trace = run(inst, Topology.ring(4), cfg)
        per_epoch = 4 * (6 * 2 * 8 + 64)
        assert [row.wire_bits_cum for row in trace.rows] == [
            2 * per_epoch,
            3 * per_epoch,
            4 * per_epoch,
        ]

    def test_rgt_has_no_quantized_payload(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, max_epochs=2, algorithm="rgt", seed=0)
        trace = run(inst, Topology.ring(4), cfg)
        assert all(row.wire_bits_cum == 0 for row in trace.rows)

    def test_seed_determinism_bitwise(self):
        inst = small_instance(seed=3)
        cfg = AlgoConfig(alpha=1e-3, max_epochs=40, bits=4, seed=21)
        t1 = run(inst, Topology.ring(4), cfg)
        t2 = run(inst, Topology.ring(4), cfg)
        for r1, r2 in zip(t1.rows, t2.rows):
            assert (r1.consensus_error, r1.grad_norm, r1.f_gap, r1.ds, r1.dist_mean) == (
                r2.consensus_error,
                r2.grad_norm,
                r2.f_gap,
                r2.ds,
                r2.dist_mean,
            )

    def test_safety_refusal(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=10.0, max_epochs=1, seed=0, enforce_safety=True)
        with pytest.raises(StepSizeError, match="step size 10 exceeds the safety bound"):
            run(inst, Topology.ring(4), cfg)

    def test_consensus_contraction_inequality(self):
        # One-epoch consensus bound with Young's-inequality constants:
        # ||x_k - xbar_k||^2 <= (1+s)s/2 ||x_{k-1} - xbar_{k-1}||^2
        #                     + (1+s)/(1-s) a^2 ||s_{k-1} - sbar_{k-1}||^2
        # where s is the contraction factor of the applied power W^t.
        for t in (1, 2):
            inst = small_instance(seed=6)
            cfg = AlgoConfig(alpha=1e-2, t=t, bits=4, max_epochs=150, seed=13)
            trace = run(inst, Topology.ring(4), cfg)
            sig = trace.sigma2**t
            xs = trace.diagnostics.x_consensus_sq
            ss = trace.diagnostics.s_consensus_sq
            for k in range(1, len(xs)):
                bound = (
                    0.5 * (1 + sig) * sig * xs[k - 1]
                    + (1 + sig) / (1 - sig) * cfg.alpha**2 * ss[k - 1]
                )
                assert xs[k] <= bound + 1e-8

    def test_full_diagnostics_max_dist(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, max_epochs=5, seed=0)
        trace = run(inst, Topology.ring(4), cfg, full_diagnostics=True)
        assert len(trace.diagnostics.max_dist) == len(trace.rows) + 1
        assert all(np.isfinite(v) for v in trace.diagnostics.max_dist)
