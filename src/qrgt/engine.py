"""Decentralized optimization loop: quantized gradient tracking and the
retraction-based tracking baseline.

Both algorithms keep, per agent, the decision variable x_i, a tracker s_i
that mixes over the network and accumulates gradient differences, and the
previous (quantized or exact) Riemannian gradient. One epoch is:

    x_i <- sum_j (W^t)_ij x_j - alpha * s_i          (quantized variant)
    g_i <- quantized Riemannian gradient at new x_i
    s_i <- sum_j (W^t)_ij s_j + g_i - g_i_prev

The retraction baseline instead moves along the tangent projection of the
consensus-plus-descent direction and retracts back onto the manifold, with
exact Riemannian gradients in the tracker.

All agents start from one shared on-manifold point, so the initial consensus
error is zero up to the rounding of the agent mean, and the tracker is
seeded with the first gradient so that the tracker mean equals the gradient
mean from epoch zero onward.

The state of all agents is one ``TrackingState`` of stacked ``(n, d, r)``
arrays, and ``run`` is the one driver of the recursion. Epoch k's dither is
block k of (n, d, r) draws from the run's one dither stream, agent i taking
slice i (layout in ``streams``); the engine draws the blocks in order from
one generator, the initial state taking block 0.

Each agent computes its local gradient on its own, by
``workers.neg_gram_products``, which alone picks the products' orientation
and their split over threads. The calling thread waits for any split, so
whatever wraps ``_Engine.local_grads`` still runs on that thread only.

``run`` evaluates the trace ``BLOCK`` = 10 epochs at a time. Every epoch it
calls ``evaluate`` once, for the agent mean and the consensus error, and
keeps the agent and tracker means; every 10 epochs, and when the loop ends,
the other metrics and the tracker residuals of the pending epochs are taken
together, with the bits of one epoch at a time. So the ``ds`` stop is found
up to 9 epochs late: an RGT run computes up to 9 epochs past its stop,
which leave no trace. ``wall_ms`` still times the step alone.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import count, starmap

import numpy as np

from . import workers
from .metrics import _mean, _norms, consensus_error, evaluate, evaluate_means
from .network import MixingMatrix, Topology, build_metropolis, mix
from .problems import ProblemInstance
from .quantizers import QuantizerSpec, dither_noise, snap, wire_size_bits
from .stiefel import (
    SmoothnessConstants,
    distance_to_manifold,
    penalty_grad,
    random_stiefel,
    retract,
    tangent_project,
)
from .streams import STREAM_DITHER, STREAM_INIT, stream_rng

ALGO_QRGT = "qrgt"
ALGO_RGT = "rgt"
ALGORITHMS = (ALGO_QRGT, ALGO_RGT)

TERMINATION_MAX_EPOCHS = "MaxEpochs"
TERMINATION_DS = "DsTolerance"
TERMINATION_DIVERGED = "Diverged"

# Epochs whose metrics one evaluate_means call takes together. A benchmark
# that times windows of 10 epochs then sees exactly one such call in every
# window; a larger block would leave most windows without one, and their
# times would omit the deferred work.
BLOCK = 10

__all__ = [
    "ALGO_QRGT",
    "ALGO_RGT",
    "ALGORITHMS",
    "TERMINATION_MAX_EPOCHS",
    "TERMINATION_DS",
    "TERMINATION_DIVERGED",
    "BLOCK",
    "AlgoConfig",
    "TrackingState",
    "TraceRow",
    "TraceRows",
    "RunDiagnostics",
    "RunTrace",
    "step_size_bounds",
    "safety_step_bound",
    "run",
]


@dataclass
class AlgoConfig:
    """Knobs of one decentralized run."""

    alpha: float
    t: int = 1
    bits: int = 8
    max_epochs: int = 1000
    ds_tol: float = 0.0
    seed: int = 0
    algorithm: str = ALGO_QRGT

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be positive and finite, got {self.alpha}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm must be one of {ALGORITHMS}, got {self.algorithm!r}")
        if not (math.isfinite(self.ds_tol) and self.ds_tol >= 0):
            raise ValueError(f"ds_tol must be nonnegative and finite, got {self.ds_tol}")
        QuantizerSpec(bits=self.bits)  # range check


@dataclass(frozen=True)
class TrackingState:
    """All agents' decision variables ``x``, trackers ``s`` and last
    (quantized or exact) Riemannian gradients ``g``, each stacked as an
    ``(n, d, r)`` array indexed by agent."""

    x: np.ndarray
    s: np.ndarray
    g: np.ndarray


@dataclass(frozen=True)
class TraceRow:
    """One epoch of a run's trace; its fields, in order, are the CSV's columns."""

    epoch: int
    consensus_error: float
    grad_norm: float
    f_gap: float
    ds: float
    dist_mean: float
    wall_ms: float
    wire_bits_cum: int


class TraceRows(Sequence):
    """The rows of a run's trace, read-only. The six measured fields,
    ``consensus_error`` to ``wall_ms``, are kept as ``array('d')`` columns,
    grown by appending: 48 bytes a row. ``epoch`` and ``wire_bits_cum`` are
    derived from the row's position: row i is epoch i + 1, and its
    ``wire_bits_cum`` is (epoch + 1) times the run's per-epoch ``payload``,
    the initial gradient exchange counting as epoch 0's. A ``TraceRow``,
    about 390 bytes, is built only when a row is read, by index, slice or
    iteration; a slice is a list of them."""

    __slots__ = ("_columns", "_payload")

    def __init__(self, columns: tuple[array, ...], payload: int):
        self._columns = columns
        self._payload = payload

    def __len__(self) -> int:
        return len(self._columns[0])

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        i = range(len(self))[index]  # the position, from a negative index too: epoch is i + 1
        return TraceRow(*self._row(i + 1, *(col[i] for col in self._columns)))

    def __iter__(self):
        return starmap(TraceRow, self.tuples())

    def tuples(self):
        """The rows as plain tuples in ``TraceRow`` field order, read straight
        from the columns: no ``TraceRow`` is built."""
        return map(self._row, count(1), *self._columns)

    def _row(self, epoch: int, *measured: float) -> tuple:
        return (epoch, *measured, (epoch + 1) * self._payload)


@dataclass
class RunDiagnostics:
    """Per-epoch internals kept out of the CSV: used by invariant tests.

    Entry 0 describes the initial state, so a filled array holds one more
    entry than the trace has rows. Each is an ``array('d')``, 8 bytes an
    entry. Every run fills ``tracker_residual``,
    ||mean(s) - mean(g)|| / max(1, ||mean(g)||). Only a run with
    ``diagnostics`` set fills the other three, which stay empty otherwise:
    ``x_consensus_sq`` and ``s_consensus_sq``, the squared Frobenius
    deviations of ``x`` and ``s`` from their agent means, and ``max_dist``,
    the largest per-agent distance to the manifold.
    """

    tracker_residual: array = field(default_factory=lambda: array("d"))
    x_consensus_sq: array = field(default_factory=lambda: array("d"))
    s_consensus_sq: array = field(default_factory=lambda: array("d"))
    max_dist: array = field(default_factory=lambda: array("d"))


@dataclass
class RunTrace:
    """One row per completed epoch plus the reason the loop stopped.

    ``rows`` is a read-only ``TraceRows`` sequence: it keeps the six
    measured values of an epoch, 48 bytes, in columns, derives ``epoch`` and
    ``wire_bits_cum``, and builds a ``TraceRow`` only when a row is read.
    With the 8-byte ``tracker_residual`` entry of ``diagnostics``, a
    finished trace holds about 59 bytes per epoch. ``divergence`` is set
    only when ``termination`` is Diverged: one line naming the epoch, the
    first agent that tripped, and the check.
    """

    rows: TraceRows
    termination: str
    sigma2: float
    diagnostics: RunDiagnostics
    divergence: str | None = None

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


def step_size_bounds(consts: SmoothnessConstants, sigma2: float, n: int) -> dict[str, float]:
    """All step-size bounds by name.

    ``descent``, ``consensus``, ``rate`` and ``consensus_rate`` jointly
    guarantee the O(1/K) rate.
    """
    if not (0.0 <= sigma2 < 1.0):
        raise ValueError(f"sigma2 must be in [0, 1), got {sigma2}")
    if n < 1:
        raise ValueError("n must be positive")
    lg = consts.L_g
    gap = 1.0 - sigma2
    return {
        "descent": 1.0 / (8.0 * lg),
        "consensus": gap**2 / (16.0 * lg),
        "rate": np.sqrt(n * gap**3 / (2.0 * lg**2 + 1.0)) / (16.0 * lg),
        "consensus_rate": (n * gap**3) ** 0.25 / (16.0 * lg),
    }


def safety_step_bound(consts: SmoothnessConstants, sigma2: float, n: int) -> float:
    """Tightest step size under which every convergence guarantee holds."""
    return min(step_size_bounds(consts, sigma2, n).values())


class _Engine:
    """Stacked-array implementation of one run's epochs, driven by run()."""

    def __init__(self, inst: ProblemInstance, mixing: MixingMatrix, cfg: AlgoConfig):
        self.inst = inst
        self.mixing = mixing
        self.cfg = cfg
        self.qspec = QuantizerSpec(bits=cfg.bits)
        self._dither = stream_rng(cfg.seed, STREAM_DITHER)

    @property
    def step(self):
        """The epoch of the configured algorithm, ``qrgt_step`` or
        ``rgt_step``; ``run`` looks it up once. A property, not an attribute
        set in ``__init__``: a bound method stored on the engine would make a
        reference cycle that keeps a finished run's instance alive until the
        garbage collector runs."""
        return self.qrgt_step if self.cfg.algorithm == ALGO_QRGT else self.rgt_step

    def local_grads(self, X: np.ndarray) -> np.ndarray:
        return workers.neg_gram_products(self.inst.grams, X)

    def quantize_all(self, RG: np.ndarray, PG: np.ndarray):
        """Quantize every agent's gradient; returns (values, scales, None).

        The k-th call takes block k of the run's one dither stream: draws
        [k B, (k+1) B) of ``stream_rng(cfg.seed, STREAM_DITHER)``,
        B = RG.size, agent i taking slice i (also for a zero gradient, whose
        draws go unused). The third slot is always None; it stays because the
        benchmark's code tally unpacks three values.
        """
        noise = dither_noise(self._dither, self.qspec, RG.shape)
        return (*snap(RG, PG, self.qspec, noise), None)

    def initial_state(self) -> TrackingState:
        """Shared start, trackers seeded with the first gradient."""
        x0 = random_stiefel(self.inst.dims.d, self.inst.dims.r, stream_rng(self.cfg.seed, STREAM_INIT))
        X = np.broadcast_to(x0, (self.inst.n_agents, *x0.shape)).copy()
        RG = tangent_project(X, self.local_grads(X))
        if self.cfg.algorithm == ALGO_QRGT:
            G = self.quantize_all(RG, penalty_grad(X))[0]
            return TrackingState(X, G.copy(), G)
        return TrackingState(X, RG.copy(), RG)

    def qrgt_step(self, st: TrackingState) -> TrackingState:
        Xn = mix(self.mixing, st.x)
        Xn -= self.cfg.alpha * st.s
        RG = tangent_project(Xn, self.local_grads(Xn))
        Gn = self.quantize_all(RG, penalty_grad(Xn))[0]
        Sn = mix(self.mixing, st.s)
        Sn += Gn
        Sn -= st.g
        return TrackingState(Xn, Sn, Gn)

    def rgt_step(self, st: TrackingState) -> TrackingState:
        direction = mix(self.mixing, st.x)
        direction -= st.x
        direction -= self.cfg.alpha * st.s
        Xi = tangent_project(st.x, direction)
        Xn = retract(st.x, Xi)
        Gn = tangent_project(Xn, self.local_grads(Xn))
        Sn = mix(self.mixing, st.s)
        Sn += Gn
        Sn -= st.g
        return TrackingState(Xn, Sn, Gn)


def _diverged(X: np.ndarray, r: int) -> str | None:
    """None while every agent's iterate is finite with Frobenius norm at
    most 1e3 sqrt(r); otherwise the first agent that tripped and the check.

    One pass of per-agent squared norms decides; a NaN or infinite entry
    makes its agent's norm NaN or infinite, which fails the comparison.
    """
    bound = 1e3 * math.sqrt(r)
    norms = np.sqrt(np.einsum("ijk,ijk->i", X, X))
    within = norms <= bound
    if within.all():
        return None
    agent = int(np.argmin(within))
    if not np.isfinite(X[agent]).all():
        return f"agent {agent} has non-finite entries"
    return f"agent {agent} has norm {norms[agent]:.4g} > 1e3*sqrt(r) = {bound:.4g}"


def run(
    inst: ProblemInstance,
    topology: Topology,
    cfg: AlgoConfig,
    diagnostics: bool = False,
) -> RunTrace:
    """Execute epochs until max_epochs, the early-stop threshold, or divergence.

    Each epoch appends its consensus error and ``wall_ms`` to the trace
    columns and keeps its agent mean and tracker means in block buffers;
    every ``BLOCK`` epochs, and when the loop ends, one ``evaluate_means``
    call fills the other four columns and ``RunDiagnostics.tracker_residual``
    for the pending epochs. ``epoch`` and ``wire_bits_cum`` are not stored:
    the trace derives them from ``wire_per_epoch``, the bits charged per
    epoch (n quantized gradient messages for Q-RGT, none for RGT). The ``ds``
    stop is found there: the trace ends at the first epoch with
    ``ds <= ds_tol``, and the at most ``BLOCK - 1`` epochs run past it
    leave no trace. A divergence ends the loop before its epoch is kept.
    ``diagnostics`` additionally fills ``x_consensus_sq``,
    ``s_consensus_sq`` and ``max_dist`` (one small SVD per agent per
    epoch); no row depends on it.
    """
    mixing = build_metropolis(topology, cfg.t)
    eng = _Engine(inst, mixing, cfg)
    d, r = inst.dims.d, inst.dims.r
    wire_per_epoch = inst.n_agents * wire_size_bits(d * r, eng.qspec) if cfg.algorithm == ALGO_QRGT else 0
    columns = tuple(array("d") for _ in range(6))  # consensus_error to wall_ms
    put_consensus, put_wall = columns[0].append, columns[5].append
    diag = RunDiagnostics()
    termination = TERMINATION_MAX_EPOCHS
    divergence = None
    xbars, sbars, gbars = (np.empty((BLOCK, d, r)) for _ in range(3))

    def record_diag(st: TrackingState, x_consensus: float | None, slot: int) -> None:
        sbar = _mean(st.s, sbars[slot])
        _mean(st.g, gbars[slot])
        if diagnostics:
            if x_consensus is None:
                x_consensus = consensus_error(st.x)
            s_dev = st.s - sbar
            diag.x_consensus_sq.append(x_consensus**2)
            diag.s_consensus_sq.append(float(np.vdot(s_dev, s_dev)))
            diag.max_dist.append(float(distance_to_manifold(st.x).max()))

    def put_residuals(k: int) -> None:
        """The tracker residuals of the first ``k`` slots."""
        sbar, gbar = sbars[:k], gbars[:k]
        gbar_norms = _norms(gbar)
        sbar -= gbar
        _extend(diag.tracker_residual, _norms(sbar) / np.fmax(gbar_norms, 1.0))

    def flush(k: int) -> bool:
        """Fill the columns of the ``k`` pending epochs; on a ds stop among
        them, cut the trace after it and return True."""
        put_residuals(k)
        grad_norm, f_gap, ds, dist_mean = evaluate_means(xbars[:k], inst)
        for col, values in zip(columns[1:5], (grad_norm, f_gap, ds, dist_mean)):
            _extend(col, values)
        stops = np.flatnonzero(ds <= cfg.ds_tol)
        if stops.size == 0:
            return False
        kept = len(columns[0]) - k + int(stops[0]) + 1
        for col in columns:
            del col[kept:]
        for values in (diag.tracker_residual, diag.x_consensus_sq, diag.s_consensus_sq, diag.max_dist):
            del values[kept + 1 :]
        return True

    state = eng.initial_state()
    record_diag(state, None, 0)  # epoch-0 entry: a block of one
    put_residuals(1)
    step = eng.step
    clock = time.perf_counter
    pending = 0  # epochs since the last flush
    for epoch in range(1, cfg.max_epochs + 1):
        tic = clock()
        state = step(state)
        wall_ms = (clock() - tic) * 1e3
        why = _diverged(state.x, r)
        if why is not None:
            termination = TERMINATION_DIVERGED
            divergence = f"diverged at epoch {epoch}: {why}"
            break
        # Exactly one call of the module name ``evaluate`` per epoch: the
        # benchmark clocks epochs by wrapping it, and without one stamp per
        # epoch it falls back to whole-solve times.
        consensus = evaluate(state.x, xbars[pending])
        put_consensus(consensus)
        put_wall(wall_ms)
        record_diag(state, consensus, pending)
        pending += 1
        if pending == BLOCK:
            pending = 0
            if flush(BLOCK):
                termination = TERMINATION_DS
                break
    if pending and flush(pending):  # a stop before the loop's end, or before a divergence
        termination, divergence = TERMINATION_DS, None
    return RunTrace(TraceRows(columns, wire_per_epoch), termination, mixing.sigma2, diag, divergence)


def _extend(values: array, new: np.ndarray) -> None:
    """Append the float64 entries of ``new`` to the ``array('d')`` ``values``, bit for bit."""
    values.frombytes(new.tobytes())
