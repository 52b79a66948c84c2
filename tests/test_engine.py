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
    retract,
    rgt_epoch,
    run,
    safety_step_bound,
    snap,
    step_size_bounds,
    tangent_project,
)
from qrgt import engine
from qrgt.config import algo_config, build_problem, build_topology, parse_config
from qrgt.engine import (
    TERMINATION_DIVERGED,
    TERMINATION_DS,
    TERMINATION_MAX_EPOCHS,
    StepSizeError,
    _Engine,
)
from qrgt.network import MixingMatrix
from qrgt.quantizers import dither_noise
from qrgt.streams import STREAM_DITHER, stream_rng


def small_instance(seed=0, n=4, leading_sv=2.0):
    return generate_synthetic(
        SyntheticSpec(n=n, m=40, d=6, r=2, eigengap=0.6, leading_sv=leading_sv, seed=seed)
    )


def single_agent_identity_instance(d=5, r=2):
    with pytest.warns(Warning):
        return make_instance((d,), [np.eye(d)], r=r)


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


def advanced_dither(seed, epoch, shape, spec):
    """Block ``epoch`` of the run's dither stream, from a fresh generator."""
    rng = stream_rng(seed, STREAM_DITHER)
    rng.bit_generator.advance(epoch * int(np.prod(shape)))
    half = 0.5 / spec.levels
    return rng.uniform(-half, half, shape)


class TestQuantizeAll:
    def test_matches_quantizer_on_fresh_epoch_stream(self):
        # The engine's quantizer equals the public stacked quantizer fed
        # block k of the run's dither stream (draws [kB, (k+1)B)), taken
        # from a fresh generator advanced by kB, whatever epochs the engine
        # served before: 5, 7 and 2 each jump, 3 continues after 2.
        inst = generate_synthetic(
            SyntheticSpec(n=4, m=40, d=5, r=3, eigengap=0.6, leading_sv=2.0, seed=4)
        )
        cfg = AlgoConfig(alpha=1e-3, bits=3, seed=6)
        eng = _Engine(inst, None, cfg)
        X = init_state(inst, cfg).x + 0.05 * np.random.default_rng(1).standard_normal((4, 5, 3))
        RG = tangent_project(X, eng.local_grads(X))
        PG = penalty_grad(X)
        spec = QuantizerSpec(bits=3)
        for epoch in (5, 7, 2, 3):
            values, scales, _ = eng.quantize_all(RG, PG, epoch)
            ref_values, ref_scales = snap(RG, PG, spec, advanced_dither(cfg.seed, epoch, RG.shape, spec))
            assert values.tobytes() == ref_values.tobytes()
            assert scales.tobytes() == ref_scales.tobytes()

    def test_run_draws_blocks_in_order(self, monkeypatch):
        # run() continues one generator from epoch to epoch; each block it
        # draws equals the advanced draw for that epoch, the init being 0.
        drawn = []

        def recording(rng, spec, shape):
            drawn.append((spec, dither_noise(rng, spec, shape)))
            return drawn[-1][1]

        monkeypatch.setattr(engine, "dither_noise", recording)
        cfg = AlgoConfig(alpha=1e-3, bits=5, max_epochs=6, seed=8)
        trace = run(small_instance(seed=3), Topology.ring(4), cfg)
        assert len(trace.rows) == 6 and len(drawn) == 7
        for epoch, (spec, noise) in enumerate(drawn):
            assert noise.tobytes() == advanced_dither(cfg.seed, epoch, noise.shape, spec).tobytes()


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
        inst = make_instance((6,), [np.diag([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])], r=2)
        cfg = AlgoConfig(alpha=1e-2, algorithm="rgt", retraction=retraction, seed=8)
        state = init_state(inst, cfg)
        x_ref = state.x[0].copy()
        for epoch in range(1, 20):
            state = rgt_epoch(state, inst, identity_mixing(), cfg, epoch=epoch)
            g = tangent_project(x_ref, local_euclidean_grad(inst, 0, x_ref))
            x_ref = retract(x_ref, -cfg.alpha * g, retraction)
            np.testing.assert_allclose(state.x[0], x_ref, atol=1e-12)


def per_agent_retract(x, xi, method):
    """Reference retraction: one 2-D call per agent."""
    return np.stack([retract(a, b, method) for a, b in zip(x, xi)])


class TestBatchedRetraction:
    @pytest.mark.parametrize("retraction", ["qr", "polar"])
    def test_preset_epochs_match_per_agent_loop_bitwise(self, monkeypatch, retraction):
        cfg = parse_config(
            preset="synthetic", overrides={"algorithm": "rgt", "retraction": retraction}
        )
        inst = build_problem(cfg)
        algo = algo_config(cfg, inst)
        mixing = build_metropolis(build_topology(cfg), algo.t)

        def advance(epochs=200):
            eng = _Engine(inst, mixing, algo)
            state = eng.initial_state()[0]
            for epoch in range(1, epochs + 1):
                state = eng.rgt_step(state, epoch)[0]
            return state

        batched = advance()
        monkeypatch.setattr(engine, "retract", per_agent_retract)
        reference = advance()
        for name in ("x", "s", "g"):
            assert getattr(batched, name).tobytes() == getattr(reference, name).tobytes()

    def test_one_retract_call_per_epoch(self, monkeypatch):
        calls = []

        def counting(x, xi, method):
            calls.append(x.shape)
            return retract(x, xi, method)

        monkeypatch.setattr(engine, "retract", counting)
        cfg = AlgoConfig(alpha=5e-3, algorithm="rgt", max_epochs=7, seed=1)
        trace = run(small_instance(seed=2), Topology.ring(4), cfg)
        assert len(trace.rows) == 7
        assert calls == [(4, 6, 2)] * 7


def old_divergence_rule(X, r):
    """The two-pass rule the engine used to apply: any non-finite entry,
    or some agent's Frobenius norm above 1e3 sqrt(r)."""
    if not np.isfinite(X).all():
        return True
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.sum(X.reshape(X.shape[0], -1) ** 2, axis=1))
    return bool(norms.max() > 1e3 * np.sqrt(r))


class TestDiverged:
    def cases(self):
        r = 2
        bound = 1e3 * np.sqrt(r)
        base = np.random.default_rng(4).standard_normal((5, 6, r))
        unit = base[3] / np.linalg.norm(base[3])
        for label, agent, entry in [
            ("nan", 2, np.nan),
            ("+inf", 1, np.inf),
            ("-inf", 4, -np.inf),
            ("overflow", 3, 1e200),  # finite entry whose square overflows
        ]:
            X = base.copy()
            X[agent, 1, 0] = entry
            yield label, X, agent
        for label, factor in [("above", 1 + 1e-9), ("below", 1 - 1e-9), ("far below", 0.5)]:
            X = base.copy()
            X[3] = unit * bound * factor
            yield label, X, 3
        yield "healthy", base, None

    def test_agrees_with_two_pass_rule(self):
        for label, X, agent in self.cases():
            why = engine._diverged(X, 2)
            assert (why is not None) == old_divergence_rule(X, 2), label
            if why is not None:
                assert why.startswith(f"agent {agent} has "), (label, why)

    def test_names_the_check(self):
        checks = {label: engine._diverged(X, 2) for label, X, _ in self.cases()}
        for label in ("nan", "+inf", "-inf"):
            assert checks[label].endswith("non-finite entries")
        assert checks["overflow"] == "agent 3 has norm inf > 1e3*sqrt(r) = 1414"
        assert checks["above"] == "agent 3 has norm 1414 > 1e3*sqrt(r) = 1414"
        assert checks["below"] is None and checks["healthy"] is None

    def test_first_tripping_agent_is_named(self):
        X = np.zeros((4, 3, 2))
        X[2, 0, 0] = 5e3
        X[3, 0, 0] = np.nan
        assert engine._diverged(X, 2).startswith("agent 2 has norm 5000 > ")

    def test_run_keeps_the_line(self):
        inst = small_instance()
        trace = run(inst, Topology.ring(4), AlgoConfig(alpha=1e6, max_epochs=200, seed=0))
        assert trace.termination == TERMINATION_DIVERGED
        assert trace.divergence.startswith(f"diverged at epoch {len(trace.rows) + 1}: agent ")
        healthy = run(inst, Topology.ring(4), AlgoConfig(alpha=1e-3, max_epochs=3, seed=0))
        assert healthy.divergence is None


class TestBenchmarkHooks:
    """The names a benchmark wraps to clock and trace a run: the module-level
    evaluate, mix, tangent_project, penalty_grad and retract of the engine,
    and _Engine.local_grads and _Engine.quantize_all."""

    EPOCHS = 5

    def counted_run(self, monkeypatch, algorithm, bits=4):
        calls = {}
        returned = []

        def counter(name, fn):
            def wrapped(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                out = fn(*args, **kwargs)
                if name == "quantize_all":
                    returned.append(out)
                return out

            return wrapped

        for name in ("evaluate", "mix", "tangent_project", "penalty_grad", "retract"):
            monkeypatch.setattr(engine, name, counter(name, getattr(engine, name)))
        for name in ("local_grads", "quantize_all"):
            monkeypatch.setattr(_Engine, name, counter(name, getattr(_Engine, name)))
        cfg = AlgoConfig(alpha=1e-3, bits=bits, algorithm=algorithm, max_epochs=self.EPOCHS, seed=2)
        trace = run(small_instance(seed=5), Topology.ring(4), cfg)
        assert len(trace.rows) == self.EPOCHS
        return calls, returned

    def test_qrgt(self, monkeypatch):
        calls, returned = self.counted_run(monkeypatch, "qrgt", bits=4)
        k = self.EPOCHS
        assert calls["evaluate"] == k
        assert calls["quantize_all"] == k + 1  # once per epoch plus once at init
        assert calls["mix"] == 2 * k
        assert calls["local_grads"] == calls["tangent_project"] == calls["penalty_grad"] == k + 1
        assert "retract" not in calls
        levels = (1 << 4) - 1
        for values, scales, ratios in returned:
            assert values.shape == (4, 6, 2) and scales.shape == ratios.shape == (4,)
            assert (scales > 0).all()
            idx = (values / scales[:, None, None] + 0.5) * levels
            np.testing.assert_allclose(idx, np.rint(idx), rtol=0, atol=1e-9)

    def test_rgt(self, monkeypatch):
        calls, _ = self.counted_run(monkeypatch, "rgt")
        k = self.EPOCHS
        assert calls["evaluate"] == k
        assert calls["retract"] == k
        assert calls["mix"] == 2 * k
        assert calls["local_grads"] == k + 1
        assert "quantize_all" not in calls and "penalty_grad" not in calls


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
