import dataclasses
import gc
import multiprocessing
import os
import subprocess
import sys
import threading
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

from qrgt import (
    AlgoConfig,
    QuantizerSpec,
    SyntheticSpec,
    Topology,
    agent_means,
    build_metropolis,
    distance_to_manifold,
    evaluate_means,
    generate_synthetic,
    make_instance,
    penalty_grad,
    retract,
    run,
    snap,
    tangent_project,
)
from qrgt import engine, metrics, workers
from qrgt.config import algo_config, build_problem, build_topology, parse_config
from qrgt.engine import (
    TERMINATION_DIVERGED,
    TERMINATION_DS,
    TERMINATION_MAX_EPOCHS,
    TraceRow,
    _Engine,
)
from qrgt.network import MixingMatrix, mix
from qrgt.quantizers import dither_noise
from qrgt.streams import STREAM_DITHER, stream_rng

from reference import (
    fill_from,
    local_grad,
    manifold_defect,
    panel_products,
    reference_run,
    svd_distance_to_manifold,
    svd_subspace_distance,
    wide_instance,
)


def small_instance(seed=0, n=4, leading_sv=2.0):
    return generate_synthetic(
        SyntheticSpec(n=n, m=40, d=6, r=2, eigengap=0.6, leading_sv=leading_sv, seed=seed)
    )


def single_agent_identity_instance(d=5, r=2):
    with pytest.warns(Warning):
        return make_instance((d,), d, fill_from([np.eye(d)]), r=r)


def identity_mixing(n=1):
    return MixingMatrix(W=np.eye(n), sigma2=0.0, W_t=np.eye(n))


def ring_engine(inst, cfg):
    """The engine of a run of ``cfg`` on ``inst`` over a ring."""
    return _Engine(inst, build_metropolis(Topology.ring(inst.n_agents), cfg.t), cfg)


def start(inst, cfg):
    """The initial pair ``(x, sg)`` of a run of ``cfg`` on ``inst``."""
    return ring_engine(inst, cfg).initial_state()


@pytest.fixture
def kernel_chunks(monkeypatch):
    """The agent ranges [lo, hi) of every stacked Gram product run from now
    on, in the order they ran, each read from where its Gram view starts in
    the whole stack."""
    ran = []
    kernel = workers._products

    def recording(G, X, out=None):
        if G.ndim == 3:
            whole = G if G.base is None else G.base
            lo = (G.ctypes.data - whole.ctypes.data) // G.strides[0]
            ran.append((lo, lo + len(G)))
        return kernel(G, X, out)

    monkeypatch.setattr(workers, "_products", recording)
    return ran


def python_c(script, env):
    """Run ``python -c script`` on this package's sources; fails on a nonzero exit."""
    src = str(Path(engine.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return proc


class TestAlgoConfig:
    def test_defaults_valid(self):
        AlgoConfig(alpha=0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(alpha=0.0),
            dict(alpha=0.1, max_epochs=0),
            dict(alpha=0.1, algorithm="dgd"),
            dict(alpha=0.1, bits=0),
            dict(alpha=0.1, ds_tol=-1.0),
            # values run() cannot use: each is refused here, naming its field
            dict(alpha=0.1, max_epochs=2.5),
            dict(alpha=0.1, max_epochs=True),
            dict(alpha=0.1, bits=8.0),
            dict(alpha=0.1, bits=True),
            dict(alpha=0.1, t=1.0),
            dict(alpha=0.1, t=False),
            dict(alpha=0.1, t=0),
            dict(alpha=0.1, seed=-1),
            dict(alpha=0.1, seed=0.5),
            dict(alpha=0.1, seed=False),
            dict(alpha=True),
            dict(alpha="0.1"),
            dict(alpha=0.1, ds_tol=True),
            dict(alpha=0.1, ds_tol="1"),
        ],
    )
    def test_invalid(self, kwargs):
        field = next(iter(kwargs.keys() - {"alpha"}), "alpha")
        with pytest.raises(ValueError, match=f"^{field}: must be"):
            AlgoConfig(**kwargs)

    def test_numpy_integers_accepted(self):
        cfg = AlgoConfig(alpha=0.1, t=np.int64(2), bits=np.int32(4), max_epochs=np.int64(3), seed=np.uint8(1))
        assert len(run(small_instance(), Topology.ring(4), cfg).rows) == 3

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["alpha", "ds_tol"])
    def test_non_finite_rejected(self, name, value):
        # nan passes every ordered comparison's negation: nan <= 0 is false
        with pytest.raises(ValueError, match=f"^{name}: must be .* and finite, got {value}$"):
            AlgoConfig(**{"alpha": 0.1, name: value})


class TestInit:
    def test_shared_start_zero_consensus(self):
        inst = small_instance()
        x, _ = start(inst, AlgoConfig(alpha=1e-3, seed=5))
        for xi in x[1:]:
            np.testing.assert_array_equal(xi, x[0])

    def test_start_on_manifold(self):
        inst = small_instance()
        x, _ = start(inst, AlgoConfig(alpha=1e-3, seed=5))
        assert manifold_defect(x[0]) <= 1e-10

    def test_tracker_seeded_with_first_gradient(self):
        inst = small_instance()
        _, (s, g) = start(inst, AlgoConfig(alpha=1e-3, seed=5))
        for i in range(inst.n_agents):
            np.testing.assert_array_equal(s[i], g[i])

    def test_seed_determinism(self):
        inst = small_instance()
        a, _ = start(inst, AlgoConfig(alpha=1e-3, seed=9))
        b, _ = start(inst, AlgoConfig(alpha=1e-3, seed=9))
        c, _ = start(inst, AlgoConfig(alpha=1e-3, seed=10))
        np.testing.assert_array_equal(a[0], b[0])
        assert not np.array_equal(a[0], c[0])

    def test_rgt_tracker_is_exact_gradient(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, seed=5, algorithm="rgt")
        x, (s, _) = start(inst, cfg)
        for i in range(inst.n_agents):
            expected = tangent_project(x[i], local_grad(inst, i, x[i]))
            np.testing.assert_array_equal(s[i], expected)


class TestQrgtEpoch:
    def test_stationary_at_identity_gram(self):
        # Gram = I makes every on-manifold point stationary: the Riemannian
        # gradient of -x vanishes (to roundoff, which sets the quantizer
        # scale), so one epoch leaves the iterate in place.
        inst = single_agent_identity_instance()
        cfg = AlgoConfig(alpha=1e-2, bits=32, seed=3)
        eng = _Engine(inst, identity_mixing(), cfg)
        x, sg = eng.initial_state()
        assert np.abs(sg[0, 0]).max() <= 1e-14
        after, _ = eng.step(x, sg, np.empty_like(sg))
        np.testing.assert_allclose(after[0], x[0], rtol=0, atol=1e-15)

    def test_tracker_mean_identity_over_run(self):
        inst = small_instance(seed=1)
        cfg = AlgoConfig(alpha=1e-3, bits=4, seed=2, max_epochs=200)
        trace = run(inst, Topology.ring(4), cfg)
        assert max(trace.diagnostics.tracker_residual) <= 1e-10

    @pytest.mark.parametrize("t", [10**3, 10**5, 10**9])
    def test_tracker_mean_identity_at_large_t(self, t):
        # The identity rests on the column sums of W^t; a plain matrix
        # power broke it without an error from t = 10^5 on (2.5e-10).
        inst, topology, algo = TestReferenceRun.preset(t=t, max_epochs=300)
        trace = run(inst, topology, algo)
        assert trace.termination == TERMINATION_MAX_EPOCHS
        assert max(trace.diagnostics.tracker_residual) <= 1e-10

    def test_tracker_mean_identity_rgt(self):
        inst = small_instance(seed=1)
        cfg = AlgoConfig(alpha=1e-3, seed=2, max_epochs=100, algorithm="rgt")
        trace = run(inst, Topology.ring(4), cfg)
        assert max(trace.diagnostics.tracker_residual) <= 1e-10

    def test_full_precision_matches_exact_tracking_loop(self):
        # bits = 32 is indistinguishable (to 1e-6 over 100 epochs) from the
        # same tracking recursion with exact gradients.
        inst = generate_synthetic(
            SyntheticSpec(n=16, m=100, d=10, r=5, eigengap=0.8, leading_sv=20.0, seed=7)
        )
        mixing = build_metropolis(Topology.ring(16))
        alpha = 1e-4
        cfg = AlgoConfig(alpha=alpha, bits=32, seed=11)
        eng = _Engine(inst, mixing, cfg)
        x, sg = eng.initial_state()
        x0 = x[0].copy()
        for _ in range(100):
            x, sg = eng.step(x, sg, np.empty_like(sg))

        # independent plain-numpy reference
        n = inst.n_agents
        X = np.stack([x0] * n)
        G = np.stack(
            [
                tangent_project(x0, local_grad(inst, i, x0))
                for i in range(n)
            ]
        )
        S = G.copy()
        for _ in range(100):
            X = np.tensordot(mixing.W_t, X, axes=(1, 0)) - alpha * S
            Gn = np.stack(
                [
                    tangent_project(X[i], local_grad(inst, i, X[i]))
                    for i in range(n)
                ]
            )
            S = np.tensordot(mixing.W_t, S, axes=(1, 0)) + Gn - G
            G = Gn
        assert np.abs(x - X).max() <= 1e-6

    def test_epoch_keyed_dither_reproducible(self):
        # Two engines of one seed draw the same epoch-1 dither; the next
        # epoch's draw differs, even from the same state.
        inst = small_instance(seed=4)
        cfg = AlgoConfig(alpha=1e-3, bits=3, seed=6)
        first, second = ring_engine(inst, cfg), ring_engine(inst, cfg)
        x, sg = first.initial_state()
        second.initial_state()
        xa, (_, ga) = first.step(x, sg, np.empty_like(sg))
        xb, (_, gb) = second.step(x, sg, np.empty_like(sg))
        _, (_, gc) = first.step(x, sg, np.empty_like(sg))
        np.testing.assert_array_equal(xa[0], xb[0])
        np.testing.assert_array_equal(ga[0], gb[0])
        assert not np.array_equal(ga[0], gc[0])


def advanced_dither(seed, epoch, shape, spec):
    """Block ``epoch`` of the run's dither stream, from a fresh generator."""
    rng = stream_rng(seed, STREAM_DITHER)
    rng.bit_generator.advance(epoch * int(np.prod(shape)))
    half = 0.5 / spec.levels
    return rng.uniform(-half, half, shape)


class TestQuantizeAll:
    def test_matches_quantizer_on_fresh_epoch_stream(self):
        # The engine's k-th quantizer call equals the public stacked
        # quantizer fed block k of the run's dither stream (draws
        # [kB, (k+1)B)), taken from a fresh generator advanced by kB.
        inst = generate_synthetic(
            SyntheticSpec(n=4, m=40, d=5, r=3, eigengap=0.6, leading_sv=2.0, seed=4)
        )
        cfg = AlgoConfig(alpha=1e-3, bits=3, seed=6)
        eng = ring_engine(inst, cfg)
        X = start(inst, cfg)[0] + 0.05 * np.random.default_rng(1).standard_normal((4, 5, 3))
        RG = tangent_project(X, eng.local_grads(X))
        # quantize_all takes the engine's penalty_grad, a quarter of the
        # public one; entries at the quarter threshold 2^-54 and next to it
        # must set the bits the whole gradient sets against 2^-52.
        PQ = engine.penalty_grad(X)
        PQ.flat[:4] = [2.0**-54, np.nextafter(2.0**-54, 1.0), np.nextafter(2.0**-54, 0.0), 0.0]
        spec = QuantizerSpec(bits=3)
        for epoch in range(4):
            values, scales, _ = eng.quantize_all(RG, PQ, np.empty_like(RG))
            noise = advanced_dither(cfg.seed, epoch, RG.shape, spec)
            ref_values, ref_scales = snap(RG, 4.0 * PQ, spec, noise)
            assert values.tobytes() == ref_values.tobytes()
            assert scales.tobytes() == ref_scales.tobytes()

    def test_one_dither_buffer_per_run(self):
        # Every block after the first is drawn into the first block's array.
        inst = small_instance(seed=3)
        cfg = AlgoConfig(alpha=1e-3, bits=5, seed=8)
        eng = ring_engine(inst, cfg)
        X = start(inst, cfg)[0]
        RG, PG = tangent_project(X, eng.local_grads(X)), penalty_grad(X)
        out = np.empty_like(RG)
        eng.quantize_all(RG, PG, out)
        buffer = eng._noise
        for _ in range(3 * engine.BLOCK):
            eng.quantize_all(RG, PG, out)
            assert eng._noise is buffer

    def test_run_draws_blocks_in_order(self, monkeypatch):
        # run() continues one generator, drawing BLOCK epochs of dither at a
        # time; the values drawn, concatenated, are epoch by epoch the
        # advanced draw for that epoch, the init being 0. An epoch count that
        # is not a multiple of BLOCK, and a ds stop inside a block, leave the
        # order as it is.
        drawn = []

        def recording(rng, spec, shape, out=None):
            noise = dither_noise(rng, spec, shape, out)
            drawn.append(noise.copy())
            return noise

        monkeypatch.setattr(engine, "dither_noise", recording)
        stop_inst, stop_cfg = TestBlockEvaluation.stop_mid_block("qrgt")
        for inst, cfg, rows, computed in [
            (small_instance(seed=3), AlgoConfig(alpha=1e-3, bits=5, max_epochs=6, seed=8), 6, 6),
            (small_instance(seed=3), AlgoConfig(alpha=1e-3, bits=5, max_epochs=23, seed=8), 23, 23),
            (stop_inst, stop_cfg, 23, 30),
        ]:
            drawn.clear()
            trace = run(inst, Topology.ring(4), cfg)
            assert len(trace.rows) == rows and trace.epochs_computed == computed
            assert [len(block) for block in drawn] == [engine.BLOCK] * (computed // engine.BLOCK + 1)
            spec = QuantizerSpec(bits=cfg.bits)
            for epoch, block in enumerate(np.concatenate(drawn)):
                assert block.tobytes() == advanced_dither(cfg.seed, epoch, block.shape, spec).tobytes()


class TestEngineBuild:
    def test_holds_no_copy_of_the_grams(self):
        # The engine reads the instance's Gram stack in place; building one
        # allocates far less than that stack.
        inst = generate_synthetic(
            SyntheticSpec(n=4, m=200, d=200, r=2, eigengap=0.6, leading_sv=2.0, seed=0)
        )
        cfg = AlgoConfig(alpha=1e-3, seed=0)
        mixing = build_metropolis(Topology.ring(4))
        tracemalloc.start()
        try:
            eng = _Engine(inst, mixing, cfg)
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
        eng = _Engine(inst, mixing, cfg)
        x, sg = eng.initial_state()
        for _ in range(1, 30):
            x, sg = eng.step(x, sg, np.empty_like(sg))
            assert max(manifold_defect(xi) for xi in x) <= 1e-8

    def test_single_agent_reduces_to_centralized_descent(self):
        inst = single_agent_identity_instance(d=6, r=2)
        # break the flat spectrum so the gradient is nonzero
        inst = make_instance((6,), 6, fill_from([np.diag([3.0, 2.5, 2.0, 1.5, 1.0, 0.5])]), r=2)
        cfg = AlgoConfig(alpha=1e-2, algorithm="rgt", seed=8)
        eng = _Engine(inst, identity_mixing(), cfg)
        x, sg = eng.initial_state()
        x_ref = x[0].copy()
        for _ in range(1, 20):
            x, sg = eng.step(x, sg, np.empty_like(sg))
            g = tangent_project(x_ref, local_grad(inst, 0, x_ref))
            x_ref = retract(x_ref, -cfg.alpha * g)
            np.testing.assert_allclose(x[0], x_ref, atol=1e-12)


def per_agent_retract(x, xi, m=None):
    """Reference retraction: one 2-D call per agent, each with a new buffer."""
    return np.stack([retract(a, b) for a, b in zip(x, xi)])


class TestBatchedRetraction:
    def test_preset_epochs_match_per_agent_loop_bitwise(self, monkeypatch):
        cfg = parse_config(preset="synthetic", overrides={"algorithm": "rgt"})
        inst = build_problem(cfg)
        algo = algo_config(cfg, inst)
        mixing = build_metropolis(build_topology(cfg), algo.t)

        def advance(epochs=200):
            eng = _Engine(inst, mixing, algo)
            x, sg = eng.initial_state()
            for _ in range(epochs):
                x, sg = eng.step(x, sg, np.empty_like(sg))
            return x, sg

        batched = advance()
        monkeypatch.setattr(engine, "retract", per_agent_retract)
        reference = advance()
        for got, expected in zip(batched, reference):  # x, then s and g
            assert got.tobytes() == expected.tobytes()

    def test_one_retract_call_per_epoch(self, monkeypatch):
        calls = []

        def counting(x, xi, m=None):
            calls.append(x.shape)
            return retract(x, xi)

        monkeypatch.setattr(engine, "retract", counting)
        cfg = AlgoConfig(alpha=5e-3, algorithm="rgt", max_epochs=7, seed=1)
        trace = run(small_instance(seed=2), Topology.ring(4), cfg)
        assert len(trace.rows) == 7
        assert calls == [(4, 6, 2)] * 7


class TestStepInto:
    """A step writes the new trackers and gradients into ``out`` and nowhere
    else: its arguments keep their bits, and a step into a reused slot
    equals a step into a fresh buffer, bit for bit."""

    @pytest.mark.parametrize("algorithm", ["qrgt", "rgt"])
    def test_out_equals_a_new_array(self, algorithm):
        inst, _, algo = TestReferenceRun.preset(algorithm=algorithm)
        mixing = build_metropolis(Topology.ring(inst.n_agents), algo.t)
        fresh, into = _Engine(inst, mixing, algo), _Engine(inst, mixing, algo)
        x, sg = fresh.initial_state()
        assert sg.tobytes() == into.initial_state()[1].tobytes()
        slots = np.full((2, *sg.shape), np.nan)  # each slot written whole, or NaN shows
        for epoch in range(25):  # past two dither blocks of BLOCK epochs
            x_before, sg_before = x.copy(), sg.copy()
            expected = fresh.step(x, sg, np.empty_like(sg))
            out = slots[epoch % 2]
            got = into.step(x, sg, out)
            assert got[1] is out
            assert x.tobytes() == x_before.tobytes() and sg.tobytes() == sg_before.tobytes()
            assert got[0].tobytes() == expected[0].tobytes()
            assert got[1].tobytes() == expected[1].tobytes()
            x, sg = expected


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
        threads = set()

        def counter(name, fn):
            def wrapped(*args, **kwargs):
                threads.add(threading.get_ident())
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
        assert threads == {threading.main_thread().ident}  # one span stack, one thread
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
        for values, scales, empty in returned:
            assert values.shape == (4, 6, 2) and scales.shape == (4,) and empty is None
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

    @pytest.mark.parametrize("algorithm", ["qrgt", "rgt"])
    def test_hooks_stay_on_main_thread_when_split(self, monkeypatch, split_forced, kernel_chunks, algorithm):
        calls, _ = self.counted_run(monkeypatch, algorithm)
        assert calls["local_grads"] == self.EPOCHS + 1
        assert sorted(kernel_chunks) == [(0, 2)] * (self.EPOCHS + 1) + [(2, 4)] * (self.EPOCHS + 1)

    @pytest.mark.parametrize("d", [10, 784])
    @pytest.mark.parametrize(
        "name", ["mix", "tangent_project", "penalty_grad", "retract", "snap", "gram_products"]
    )
    def test_public_function_is_the_engines_kernel(self, name, d):
        # Each public function checks its input and then calls the kernel
        # the engine calls unchecked: the same bits at the preset shape and
        # at d = 784, and the checks' own ValueError for every input they
        # refuse (a kernel handed such an input may raise one of numpy's).
        rng = np.random.default_rng(d)
        n, r = 16, 5
        x = np.linalg.qr(rng.standard_normal((n, d, r)))[0]
        y = rng.standard_normal((n, d, r))
        xi = tangent_project(x, 0.1 * y)
        mixing = build_metropolis(Topology.ring(n))
        spec = QuantizerSpec(bits=8)
        noise = dither_noise(rng, spec, y.shape)
        k = n if d == 10 else 2  # a (2, 784, 784) Gram stack is 9.8 MB
        a = rng.standard_normal((k, d, d))
        grams = a + a.swapaxes(1, 2)
        public, args, kernel, kernel_args, refused, check = {
            "mix": (mix, (mixing, x), engine.mix, (mixing.W_t, x), [(mixing, x[:-1])], "stacked blocks"),
            "tangent_project": (
                tangent_project, (x, y), engine.tangent_project, (x, y),
                [(x[0, 0], y[0, 0]), (x, y[..., :-1]), (x[..., :-1, :], y), (x[:, :2], y[:, :2])],
                "2-dimensional|shape mismatch: x is|r <= d",
            ),
            # the engine's kernel is a quarter of the gradient; the scale by 4 is exact
            "penalty_grad": (
                penalty_grad, (x,), lambda x: 4.0 * engine.penalty_grad(x), (x,), [(x[0, 0],), (x[:, :2],)],
                "2-dimensional|r <= d",
            ),
            "retract": (
                retract, (x, xi), engine.retract, (x, xi),
                [(x[0, 0], xi[0, 0]), (x, xi[:-1]), (x[0], xi), (x[:, :2], xi[:, :2])],
                "2-dimensional|shape mismatch: x is|r <= d",
            ),
            "snap": (
                snap, (y, x, spec, noise), engine._snap, (y, x, float(spec.levels), noise),
                [(y, x[:-1], spec, noise), (y, x[..., :-1], spec, noise)],
                "shape mismatch: g is",
            ),
            "gram_products": (
                workers.gram_products, (grams, x[:k]), workers._gram_products, (grams, x[:k]),
                [(grams, x[: k - 1]), (grams[..., :-1], x[:k]), (grams[0], x[..., :-1, :]), (grams[0, 0], x[0])],
                "G must be|shape mismatch: G is",
            ),
        }[name]
        got, expected = public(*args), kernel(*kernel_args)
        if name != "snap":  # the one that returns a pair, (values, scales)
            got, expected = (got,), (expected,)
        for got_part, expected_part in zip(got, expected, strict=True):
            assert np.asarray(got_part).tobytes() == np.asarray(expected_part).tobytes()
        for bad in refused:
            with pytest.raises(ValueError, match=check):
                public(*bad)


class TestAgentParallelGrads:
    """local_grads split over threads gives the one-thread result bit for bit."""

    def preset(self, algorithm):
        cfg = parse_config(preset="synthetic", overrides={"algorithm": algorithm})
        inst = build_problem(cfg)
        algo = algo_config(cfg, inst)
        return inst, build_topology(cfg), algo

    @staticmethod
    def advance(inst, mixing, algo, epochs):
        eng = _Engine(inst, mixing, algo)
        x, sg = eng.initial_state()
        for _ in range(epochs):
            x, sg = eng.step(x, sg, np.empty_like(sg))
        return eng, (x, sg)

    @staticmethod
    def rows(trace):
        return [dataclasses.replace(row, wall_ms=0.0) for row in trace.rows]

    @pytest.mark.parametrize("algorithm", ["qrgt", "rgt"])
    def test_preset_epochs_bit_equal(self, monkeypatch, split_forced, kernel_chunks, algorithm):
        inst, topology, algo = self.preset(algorithm)
        algo = dataclasses.replace(algo, max_epochs=200)
        mixing = build_metropolis(topology, algo.t)
        _, split = self.advance(inst, mixing, algo, 200)
        split_rows = self.rows(run(inst, topology, algo))
        assert set(kernel_chunks) == {(0, 8), (8, 16)}
        kernel_chunks.clear()
        with monkeypatch.context() as patch:
            patch.setattr(workers, "SPLIT_GRAM_BYTES", 1 << 62)
            _, serial = self.advance(inst, mixing, algo, 200)
            serial_rows = self.rows(run(inst, topology, algo))
        assert set(kernel_chunks) == {(0, 16)}
        for got, expected in zip(split, serial):  # x, then s and g
            assert got.tobytes() == expected.tobytes()
        assert len(split_rows) == 200 and split_rows == serial_rows

    def test_uneven_chunks_bit_equal(self, monkeypatch, split_forced, kernel_chunks):
        monkeypatch.setattr(workers, "_THREADS", 3)
        inst = small_instance(seed=3, n=5)
        mixing = build_metropolis(Topology.ring(5), 1)
        algo = AlgoConfig(alpha=1e-3, bits=4, seed=4)
        eng, split = self.advance(inst, mixing, algo, 50)
        assert set(kernel_chunks) == {(0, 1), (1, 3), (3, 5)}
        assert workers._pool._max_workers == 3
        X = split[0]
        assert eng.local_grads(X).tobytes() == np.matmul(inst.grams, X).tobytes()
        kernel_chunks.clear()
        monkeypatch.setattr(workers, "SPLIT_GRAM_BYTES", 1 << 62)
        _, serial = self.advance(inst, mixing, algo, 50)
        assert set(kernel_chunks) == {(0, 5)}
        for got, expected in zip(split, serial):  # x, then s and g
            assert got.tobytes() == expected.tobytes()

    def test_single_agent_never_splits(self, split_forced, kernel_chunks):
        inst = single_agent_identity_instance()
        _Engine(inst, identity_mixing(), AlgoConfig(alpha=0.1)).initial_state()
        assert kernel_chunks == [(0, 1)]  # one chunk, on the calling thread
        assert workers._pool is None

    @pytest.fixture(scope="class")
    def wide(self):
        return wide_instance()

    @pytest.mark.parametrize("threads, chunks", [(2, [(0, 2), (2, 4)]), (1, [(0, 4)])])
    def test_wide_grams_bit_equal(self, monkeypatch, split_forced, kernel_chunks, wide, threads, chunks):
        # The panel products, split and in one chunk on the calling thread,
        # against the uncut agent range's panels at d = 784.
        monkeypatch.setattr(workers, "_THREADS", threads)
        eng = _Engine(wide, identity_mixing(4), AlgoConfig(alpha=1e-3))
        rng = np.random.default_rng(threads)
        for _ in range(5):
            X = rng.standard_normal((4, 784, 5))
            assert eng.local_grads(X).tobytes() == panel_products(wide.grams, X).tobytes()
        assert set(kernel_chunks) == set(chunks)
        assert (workers._pool is not None) == (threads > 1)

    def test_wide_few_agents_on_calling_thread(self, monkeypatch, wide):
        # 19.7 MB of Grams at d = 784: the size keeps the local gradients'
        # four row panels in one chunk, on this thread; the metrics' mean
        # Gram takes the same four row panels there too, and the mean's
        # r x r Gram follows.
        monkeypatch.setattr(workers, "_THREADS", 2)  # only the size decides
        monkeypatch.setattr(workers, "_pool", None)
        matmul = np.matmul
        products = []

        def recording(a, b, **kwargs):
            if 784 in (a.shape[-1], b.shape[-1]):
                products.append((a.shape, b.shape, threading.get_ident()))
            return matmul(a, b, **kwargs)

        monkeypatch.setattr(np, "matmul", recording)
        before = threading.active_count()
        X = np.random.default_rng(5).standard_normal((4, 784, 5))
        grads = _Engine(wide, identity_mixing(4), AlgoConfig(alpha=1e-3)).local_grads(X)
        seen = []
        project = metrics.tangent_project
        monkeypatch.setattr(metrics, "tangent_project", lambda x, y: seen.append(y) or project(x, y))
        xbars, _ = agent_means(X[None].copy())
        evaluate_means(xbars, wide)
        main = threading.get_ident()
        panel = ((4, 196, 784), (4, 784, 5), main)
        mean_panel = ((196, 784), (1, 784, 5), main)
        assert products == [panel] * 4 + [mean_panel] * 4 + [((1, 5, 784), (1, 784, 5), main)]
        assert threading.active_count() == before and workers._pool is None
        monkeypatch.setattr(np, "matmul", matmul)
        assert grads.tobytes() == panel_products(wide.grams, X).tobytes()
        assert seen[0].tobytes() == panel_products(wide.mean_gram, np.mean(X, axis=0)).tobytes()

    def test_below_threshold_starts_no_thread(self, monkeypatch, kernel_chunks):
        monkeypatch.setattr(workers, "_THREADS", 2)  # only the size decides
        monkeypatch.setattr(workers, "_pool", None)
        inst, topology, algo = self.preset("qrgt")
        before = threading.active_count()
        trace = run(inst, topology, dataclasses.replace(algo, max_epochs=20))
        assert len(trace.rows) == 20
        assert set(kernel_chunks) == {(0, 16)}
        assert threading.active_count() == before
        assert workers._pool is None

    @pytest.mark.parametrize(
        "environ, one",
        [
            ({}, False),
            ({"OPENBLAS_NUM_THREADS": "1"}, True),
            ({"OMP_NUM_THREADS": " 1 "}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}, True),
            ({"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "4"}, False),
            ({"MKL_NUM_THREADS": "2"}, False),
        ],
    )
    def test_blas_one_thread(self, environ, one):
        assert workers._blas_one_thread(environ) is one

    @pytest.mark.parametrize(
        "blas_threads, affinity",
        [
            pytest.param(None, True, id="None"),
            pytest.param("1", True, id="1"),
            # As on macOS and Windows, which have no os.sched_getaffinity.
            pytest.param("1", False, id="1-no-affinity"),
        ],
    )
    def test_thread_count_read_at_import(self, blas_threads, affinity):
        env = {k: v for k, v in os.environ.items() if k not in workers._BLAS_THREAD_VARS}
        if blas_threads is not None:
            env["OPENBLAS_NUM_THREADS"] = blas_threads
        hide = "" if affinity else "import os; del os.sched_getaffinity; "
        script = hide + "from qrgt import workers\nprint(workers._THREADS)\nprint(workers.agent_chunks(16, 1 << 30))"
        threads, chunks = python_c(script, env).stdout.splitlines()
        expected = len(os.sched_getaffinity(0)) if blas_threads and affinity else 1
        assert int(threads) == expected
        if not affinity:
            assert chunks == "[(0, 16)]"

    def test_forked_child_makes_its_own_pool(self, split_forced):
        inst = small_instance(seed=1)
        cfg = AlgoConfig(alpha=1e-3, max_epochs=3)
        assert len(run(inst, Topology.ring(4), cfg).rows) == 3
        assert workers._pool is not None
        child = multiprocessing.get_context("fork").Process(
            target=run, args=(inst, Topology.ring(4), cfg)
        )
        child.start()
        child.join(timeout=60)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
        child.close()

    def test_idle_workers_do_not_hold_the_process_open(self):
        script = (
            "from qrgt import workers, SyntheticSpec, Topology, AlgoConfig, generate_synthetic, run\n"
            "workers.SPLIT_GRAM_BYTES = 0\n"
            "workers._THREADS = 2\n"
            "inst = generate_synthetic(SyntheticSpec(n=4, m=40, d=6, r=2, eigengap=0.6, seed=0))\n"
            "trace = run(inst, Topology.ring(4), AlgoConfig(alpha=1e-3, max_epochs=3))\n"
            "assert len(trace.rows) == 3 and workers._pool is not None\n"
            "print('done')\n"
        )
        proc = python_c(script, dict(os.environ))
        assert proc.stdout.strip() == "done"


class TestRun:
    def test_single_epoch_single_row(self):
        inst = small_instance()
        trace = run(inst, Topology.ring(4), AlgoConfig(alpha=1e-3, max_epochs=1, seed=0))
        assert len(trace.rows) == 1
        assert trace.termination == TERMINATION_MAX_EPOCHS

    def test_early_stop(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, max_epochs=50, ds_tol=10.0, seed=0)
        trace = run(inst, Topology.ring(4), cfg)
        assert trace.termination == TERMINATION_DS
        assert len(trace.rows) == 1

    @pytest.mark.parametrize("agents", [4, 12])
    def test_topology_of_another_size_rejected(self, agents):
        # W^t of another size would mix slices of the stacked rows, not agents
        with pytest.raises(ValueError, match=f"^topology: has {agents} agents, but the instance has 8$"):
            run(small_instance(n=8), Topology.ring(agents), AlgoConfig(alpha=1e-3, max_epochs=1))

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

    def test_consensus_contraction_inequality(self):
        # One-epoch consensus bound with Young's-inequality constants:
        # ||x_k - xbar_k||^2 <= (1+s)s/2 ||x_{k-1} - xbar_{k-1}||^2
        #                     + (1+s)/(1-s) a^2 ||s_{k-1} - sbar_{k-1}||^2
        # where s is the contraction factor of the applied power W^t. The
        # consensus errors are entries 0 to K of the consensus_error column.
        for t in (1, 2):
            inst = small_instance(seed=6)
            cfg = AlgoConfig(alpha=1e-2, t=t, bits=4, max_epochs=150, seed=13)
            trace = run(inst, Topology.ring(4), cfg, diagnostics=True)
            sig = trace.sigma2**t
            xs = trace.columns["consensus_error"]
            ss = trace.columns["s_consensus_sq"]
            assert len(xs) == len(ss) == len(trace.rows) + 1 == 151
            for k in range(1, len(xs)):
                bound = (
                    0.5 * (1 + sig) * sig * xs[k - 1] ** 2
                    + (1 + sig) / (1 - sig) * cfg.alpha**2 * ss[k - 1]
                )
                assert xs[k] ** 2 <= bound + 1e-8

    def test_finished_run_frees_its_instance(self):
        # No reference cycle holds the engine, so the instance goes with the
        # last reference to it, without waiting for the garbage collector (on
        # the MNIST shape a second instance is 80 MB of Grams).
        inst = small_instance()
        ref = weakref.ref(inst)
        gc.disable()
        try:
            for algorithm in ("qrgt", "rgt"):
                run(inst, Topology.ring(4), AlgoConfig(alpha=1e-3, max_epochs=2, seed=0, algorithm=algorithm))
            del inst
            assert ref() is None
        finally:
            gc.enable()

    def test_trace_memory_per_epoch(self):
        # A finished trace keeps seven 8-byte entries an epoch in its table:
        # the six measured columns (epoch and wire_bits_cum are derived) and
        # tracker_residual, plus growth slack of at most 1/16 for an array;
        # the 25% covers that. With epoch and wire_bits_cum stored too, a
        # trace kept 75 B a row; a TraceRow object per row costs about 390 B,
        # and a list of floats 32 B an entry.
        inst, topology, algo = TestReferenceRun.preset(max_epochs=5000)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            trace = run(inst, topology, algo)
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(trace.rows) == 5000
        assert kept / len(trace.rows) <= 1.25 * (6 * 8 + 8)

    def test_rows_read_as_trace_rows(self):
        inst = small_instance(seed=5)
        cfg = AlgoConfig(alpha=1e-2, bits=4, max_epochs=12, seed=2)
        expected, _, _ = reference_run(inst, Topology.ring(4), cfg)
        trace = run(inst, Topology.ring(4), cfg)
        rows = trace.rows

        def values(row):
            assert type(row) is TraceRow
            assert type(row.epoch) is type(row.wire_bits_cum) is int
            assert type(row.ds) is type(row.wall_ms) is float and row.wall_ms > 0.0
            return (row.epoch, row.consensus_error, row.grad_norm, row.f_gap, row.ds, row.dist_mean,
                    row.wire_bits_cum)

        assert len(rows) == 12
        assert values(rows[0]) == expected[0]
        assert values(rows[-1]) == values(rows[11]) == values(trace.final) == expected[-1]
        assert [values(row) for row in rows[2:9:3]] == expected[2:9:3]
        assert [values(row) for row in rows[-3:]] == expected[-3:]
        assert rows[20:] == []
        assert [values(row) for row in rows] == expected
        assert [row.wall_ms for row in rows] == [row.wall_ms for row in rows[:]]
        replaced = dataclasses.replace(rows[4], wall_ms=1.5)
        assert replaced.wall_ms == 1.5 and values(replaced) == expected[4]
        for index in (12, -13):
            with pytest.raises(IndexError):
                rows[index]
        with pytest.raises(TypeError):
            rows[0] = rows[1]
        assert not hasattr(rows, "append")

    def test_diagnostics_switch(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-3, max_epochs=5, seed=0)
        measured = ["consensus_error", "grad_norm", "f_gap", "ds", "dist_mean", "wall_ms"]
        full = run(inst, Topology.ring(4), cfg, diagnostics=True)
        assert list(full.columns) == [*measured, "tracker_residual", "s_consensus_sq", "max_dist"]
        for name, values in full.columns.items():
            assert len(values) == 6 and all(np.isfinite(v) for v in values), name
            assert getattr(full.diagnostics, name) is values
        lean = run(inst, Topology.ring(4), cfg)
        assert list(lean.columns) == [*measured, "tracker_residual"]
        for name in measured[:-1] + ["tracker_residual"]:
            assert lean.columns[name] == full.columns[name], name

    def test_distances_are_distance_to_manifold(self, monkeypatch):
        # dist_mean and max_dist are distance_to_manifold bit for bit, and
        # that is the singular-value formula the two used to inline, within
        # 1e-14.
        seen = []
        evaluate = engine.evaluate

        def recording(X, out):
            seen.append(X.copy())
            return evaluate(X, out)

        monkeypatch.setattr(engine, "evaluate", recording)
        inst = small_instance(seed=2)
        cfg = AlgoConfig(alpha=5e-2, bits=3, max_epochs=6, seed=4)
        trace = run(inst, Topology.ring(4), cfg, diagnostics=True)
        assert len(trace.rows) == len(seen) == 6
        x0 = start(inst, cfg)[0]
        for X, row, max_dist in zip([x0, *seen], [None, *trace.rows], trace.columns["max_dist"]):
            assert max_dist == float(distance_to_manifold(X).max())
            assert abs(max_dist - float(svd_distance_to_manifold(X).max())) <= 1e-14
            if row is not None:
                xbar = X.mean(axis=0)
                assert row.dist_mean == float(distance_to_manifold(xbar))
                assert abs(row.dist_mean - float(svd_distance_to_manifold(xbar))) <= 1e-14
                assert row.dist_mean > 0.0


class TestBlockEvaluation:
    """run() evaluates BLOCK epochs at a time: a stop, a divergence or the
    epoch cap inside a block leaves the table of one epoch at a time, bit
    for bit, every column one entry longer than the rows."""

    @staticmethod
    def aligned(trace):
        """True when every column holds the start and one entry per row."""
        return all(len(values) == len(trace.rows) + 1 for values in trace.columns.values())

    @staticmethod
    def stop_mid_block(algorithm="rgt"):
        """A run of ``algorithm`` on the small instance whose ds stop falls
        at epoch 23."""
        inst = small_instance()
        cfg = AlgoConfig(alpha=1e-1, algorithm=algorithm, max_epochs=60, seed=0)
        rows, _, _ = reference_run(inst, Topology.ring(4), cfg)
        return inst, dataclasses.replace(cfg, ds_tol=rows[22][4])

    def test_rgt_stops_mid_block(self, monkeypatch):
        inst, cfg = self.stop_mid_block()
        steps = []
        monkeypatch.setattr(engine, "retract", lambda x, xi, m=None: steps.append(1) or retract(x, xi))
        rows, termination = TestReferenceRun().check(inst, Topology.ring(4), cfg)
        assert termination == TERMINATION_DS and len(rows) == 23
        assert len(rows) % engine.BLOCK != 0
        # each of the two runs in check computes its stop's block to its end
        assert len(steps) == 2 * 30

    def test_qrgt_stops_mid_block(self):
        # the derived wire_bits_cum of the last row charges the payload up to
        # the stop, not up to the end of its block
        inst, cfg = self.stop_mid_block("qrgt")
        rows, termination = TestReferenceRun().check(inst, Topology.ring(4), cfg)
        assert termination == TERMINATION_DS and len(rows) == 23
        assert rows[-1][-1] == (23 + 1) * 4 * (6 * 2 * 8 + 64)

    def test_stop_found_before_a_divergence_in_its_block(self, monkeypatch):
        inst, cfg = self.stop_mid_block()
        calls = []

        def nan_at_epoch_26(x, xi, m=None):
            calls.append(1)
            y = retract(x, xi)
            if len(calls) == 26:
                y[0, 0, 0] = np.nan  # agent 0 trips the divergence check
            return y

        monkeypatch.setattr(engine, "retract", nan_at_epoch_26)
        for diagnostics in (True, False):
            calls.clear()
            trace = run(inst, Topology.ring(4), cfg, diagnostics=diagnostics)
            assert len(calls) == 26 and trace.epochs_computed == 26
            assert trace.termination == TERMINATION_DS and trace.divergence is None
            assert len(trace.rows) == 23 and trace.final.ds <= cfg.ds_tol
            assert self.aligned(trace) and len(trace.columns["ds"]) == 24

    def test_divergence_mid_block(self):
        inst = small_instance()
        cfg = AlgoConfig(alpha=0.4, max_epochs=300, seed=0)
        assert self.aligned(run(inst, Topology.ring(4), cfg))
        trace = run(inst, Topology.ring(4), cfg, diagnostics=True)
        assert self.aligned(trace) and trace.termination == TERMINATION_DIVERGED
        assert len(trace.rows) == 17 and len(trace.rows) % engine.BLOCK != 0
        assert trace.epochs_computed == 18  # the diverged epoch was computed, not kept
        assert trace.divergence.startswith(f"diverged at epoch {len(trace.rows) + 1}: agent ")
        assert np.isfinite([dataclasses.astuple(row) for row in trace.rows]).all()
        expected, _, columns = reference_run(inst, Topology.ring(4), dataclasses.replace(cfg, max_epochs=17))
        got = [(r.epoch, r.consensus_error, r.grad_norm, r.f_gap, r.ds, r.dist_mean, r.wire_bits_cum)
               for r in trace.rows]
        assert got == expected
        for name, values in columns.items():
            assert list(trace.columns[name]) == values, name

    @pytest.mark.parametrize("algorithm", ["qrgt", "rgt"])
    def test_epoch_cap_inside_a_block(self, algorithm):
        # 23 epochs: two full blocks and a tail of three, with every column,
        # the blocked tracker residual too, checked by check.
        inst = small_instance(seed=3)
        cfg = AlgoConfig(alpha=1e-2, bits=4, algorithm=algorithm, max_epochs=23, seed=8)
        rows, termination = TestReferenceRun().check(inst, Topology.ring(4), cfg)
        assert len(rows) == 23 and termination == TERMINATION_MAX_EPOCHS
        for diagnostics in (True, False):
            assert self.aligned(run(inst, Topology.ring(4), cfg, diagnostics=diagnostics))

    @pytest.mark.parametrize("algorithm", ["qrgt", "rgt"])
    def test_start_never_stops_a_run(self, algorithm):
        # The start's ds sits in the column the stop scans. With ds_tol above
        # every ds, the run still computes the block of epochs 1 to 10 and
        # keeps epoch 1 alone.
        inst, topology, algo = TestReferenceRun.preset(algorithm=algorithm, ds_tol=10.0)
        for diagnostics in (True, False):
            trace = run(inst, topology, algo, diagnostics=diagnostics)
            assert trace.columns["ds"][0] <= algo.ds_tol
            assert trace.termination == TERMINATION_DS
            assert len(trace.rows) == 1 and trace.epochs_computed == 10
            assert self.aligned(trace)


class TestReferenceRun:
    """run() gives the bits of reference.reference_run, the epoch arithmetic
    written out with numpy's wrapped calls, one product and its transpose in
    the tangent projection and the tanh direction bit: every row field but the timing
    wall_ms, the stop reason, and every other column of the table."""

    @staticmethod
    def bits(values):
        return np.array(values, dtype=float).tobytes()

    def check(self, inst, topology, cfg):
        rows, termination, columns = reference_run(inst, topology, cfg)
        full = run(inst, topology, cfg, diagnostics=True)
        lean = run(inst, topology, cfg)
        for trace in (full, lean):
            assert trace.termination == termination
            got = [
                (r.epoch, r.consensus_error, r.grad_norm, r.f_gap, r.ds, r.dist_mean, r.wire_bits_cum)
                for r in trace.rows
            ]
            assert [(row[0], row[-1]) for row in got] == [(row[0], row[-1]) for row in rows]
            assert self.bits([row[1:-1] for row in got]) == self.bits([row[1:-1] for row in rows])
            assert len(trace.columns["wall_ms"]) == len(rows) + 1
        for name, values in columns.items():
            assert len(values) == len(rows) + 1
            assert self.bits(full.columns[name]) == self.bits(values), name
            if name in lean.columns:
                assert self.bits(lean.columns[name]) == self.bits(values), name
        assert set(full.columns) - set(lean.columns) == {"s_consensus_sq", "max_dist"}
        return rows, termination

    @staticmethod
    def preset(**overrides):
        cfg = parse_config(preset="synthetic", overrides=overrides)
        inst = build_problem(cfg)
        return inst, build_topology(cfg), algo_config(cfg, inst)

    @pytest.mark.parametrize("bits", [2, 8])
    def test_preset_qrgt(self, bits):
        rows, termination = self.check(*self.preset(bits=bits, max_epochs=2000))
        assert len(rows) == 2000 and termination == TERMINATION_MAX_EPOCHS

    @pytest.mark.parametrize("algorithm", ["qrgt", "rgt"])
    def test_preset_distances_are_the_svd_forms(self, monkeypatch, algorithm):
        # ds and dist_mean come from r x r eigenvalues; at every mean of a
        # preset run they are the SVD forms they replaced within 1e-14:
        # orthogonal Procrustes by the SVD of xbar^T x_star, and the singular
        # values of xbar.
        means = []
        evaluate = engine.evaluate

        def recording(X, out):
            means.append(X.mean(axis=0))
            return evaluate(X, out)

        monkeypatch.setattr(engine, "evaluate", recording)
        inst, topology, algo = self.preset(algorithm=algorithm, max_epochs=2000)
        trace = run(inst, topology, algo)
        assert len(trace.rows) == len(means) == 2000
        ds = [svd_subspace_distance(xbar, inst.x_star) for xbar in means]
        dist = [float(svd_distance_to_manifold(xbar)) for xbar in means]
        rows = list(trace.rows.tuples())
        assert np.abs(np.subtract([row[4] for row in rows], ds)).max() <= 1e-14
        assert np.abs(np.subtract([row[5] for row in rows], dist)).max() <= 1e-14

    def test_preset_rgt_to_its_stop(self):
        inst, topology, algo = self.preset(algorithm="rgt")
        rows, termination = self.check(inst, topology, algo)
        assert termination == TERMINATION_DS and rows[-1][4] <= algo.ds_tol
        assert len(rows) < algo.max_epochs

    @pytest.mark.parametrize("algorithm", ["qrgt", "rgt"])
    def test_wide_instance_split(self, split_forced, kernel_chunks, algorithm):
        # d = 784: the panel products of local_grads and of evaluate_means,
        # and the GEMM Grams.
        inst = wide_instance()
        cfg = AlgoConfig(alpha=1e-4, bits=8, algorithm=algorithm, max_epochs=3, seed=1)
        rows, _ = self.check(inst, Topology.ring(4), cfg)
        assert len(rows) == 3
        assert set(kernel_chunks) == {(0, 2), (2, 4)}

