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
one generator, ``BLOCK`` of them at a time, the initial state taking
block 0.

Each agent computes its local gradient on its own, by
``workers.neg_gram_products``, which alone picks the products' panels and
their split over threads. The calling thread waits for any split, so
whatever wraps ``_Engine.local_grads`` still runs on that thread only.

A run's numbers are one table, ``RunTrace.columns``: a column per name,
entry k of every column describing epoch k, entry 0 the shared start. An
epoch of ``run`` is the step and a copy of its iterate: it runs the step,
screens the iterates for divergence with one dot product, copies them into
a ``(BLOCK, n, d, r)`` buffer (``evaluate``, the one per-epoch call of the
metrics) and keeps the agent sums of the trackers and gradients. The start
is a block of one; after it, every ``BLOCK`` = 10 epochs, and when the loop
ends, the pending epochs are evaluated together: the agent means, the
consensus errors, the other four metrics and the tracker residuals, with
the bits of one epoch at a time. So the ``ds`` stop is found up to 9 epochs
late: an RGT run computes up to 9 epochs past its stop, which leave no
row, and ``RunTrace.epochs_computed`` counts them. ``wall_ms`` still times
the step alone.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import count, islice, starmap
from types import SimpleNamespace

import numpy as np

from . import workers
from .metrics import _norms, agent_means, evaluate, evaluate_means
from .network import MixingMatrix, Topology, build_metropolis, mix
from .problems import ProblemInstance
from .quantizers import QuantizerSpec, dither_noise, snap, wire_size_bits
from .stiefel import (
    SmoothnessConstants,
    _check_orthonormal,
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

# Epochs whose metrics one flush of run() takes together, and whose dither
# one draw takes. A benchmark that times windows of 10 epochs then sees
# exactly one flush in every window; a larger block would leave most windows
# without one, and their times would omit the deferred work.
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


# The columns a run measures, in TraceRow's order; epoch and wire_bits_cum are derived.
MEASURED = tuple(f.name for f in fields(TraceRow))[1:-1]


class TraceRows(Sequence):
    """The rows of a run's trace, read-only: a view of entries 1 to K of the
    ``MEASURED`` columns of the run's table, row i being epoch i + 1. Its
    ``epoch`` is the row's entry index, and its ``wire_bits_cum`` is
    (epoch + 1) times the run's per-epoch ``payload``, the initial gradient
    exchange counting as epoch 0's. A ``TraceRow``, about 390 bytes, is
    built only when a row is read, by index, slice or iteration; a slice is
    a list of them."""

    __slots__ = ("columns", "_payload")

    def __init__(self, columns: dict[str, array], payload: int):
        self.columns = columns
        self._payload = payload

    def __len__(self) -> int:
        return len(self.columns["ds"]) - 1

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        epoch = range(1, len(self) + 1)[index]  # from a negative index too
        return TraceRow(*self._row(epoch, *(self.columns[name][epoch] for name in MEASURED)))

    def __iter__(self):
        return starmap(TraceRow, self.tuples())

    def tuples(self):
        """The rows as plain tuples in ``TraceRow`` field order, read straight
        from the columns: no ``TraceRow`` is built."""
        return map(self._row, count(1), *(islice(self.columns[name], 1, None) for name in MEASURED))

    def _row(self, epoch: int, *measured: float) -> tuple:
        return (epoch, *measured, (epoch + 1) * self._payload)


@dataclass
class RunTrace:
    """A run's table of numbers, its rows, and the reason the loop stopped.

    ``columns`` maps each column's name to an ``array('d')`` whose entry k
    is epoch k, entry 0 being the shared start, so every column holds one
    more entry than the trace has rows; 8 bytes an entry. Every run fills
    the ``MEASURED`` columns, ``consensus_error`` to ``wall_ms`` (entry 0 of
    ``wall_ms`` times the initial state), and ``tracker_residual``,
    ||mean(s) - mean(g)|| / max(1, ||mean(g)||): 56 bytes per epoch. A run
    with ``diagnostics`` set also fills ``s_consensus_sq``, the squared
    Frobenius deviation of ``s`` from its agent mean, and ``max_dist``, the
    largest per-agent ``distance_to_manifold`` of the iterates, 72 bytes
    per epoch in all. ``diagnostics`` reads the same columns by attribute.

    ``rows`` is the read-only ``TraceRows`` view of entries 1 to K.
    ``epochs_computed`` is the number of steps the loop ran: past the last
    row by the epochs a ``ds`` stop's block ran beyond it, and by one at a
    divergence. ``divergence`` is set only when ``termination`` is Diverged:
    one line naming the epoch, the first agent that tripped, and the check.
    """

    rows: TraceRows
    termination: str
    sigma2: float
    epochs_computed: int
    divergence: str | None = None

    @property
    def columns(self) -> dict[str, array]:
        return self.rows.columns

    @property
    def diagnostics(self) -> SimpleNamespace:
        return SimpleNamespace(**self.columns)

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
        self._noise = None  # the run's one buffer of BLOCK dither blocks; quantize_all takes the next
        self._next = BLOCK

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
        draws go unused). The blocks are drawn ``BLOCK`` at a time, by one
        ``dither_noise`` call that continues the same stream, so the values
        are those of one draw per call. Every draw after the first refills
        the one ``(BLOCK, n, d, r)`` buffer of the run (5 MB at the MNIST
        shape) rather than a fresh array, which numpy marks for huge pages
        at 4 MiB or more and which the host then faults in anew every ten
        epochs. The third slot is always None; it stays because the
        benchmark's code tally unpacks three values.
        """
        if self._next == BLOCK:
            self._noise = dither_noise(self._dither, self.qspec, (BLOCK, *RG.shape), self._noise)
            self._next = 0
        noise = self._noise[self._next]
        self._next += 1
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

    A stack whose whole squared norm, one dot product, is at most the
    squared bound has every agent within the bound and finite, so it passes
    without a look at the agents. Otherwise one pass of per-agent squared
    norms decides; a NaN or infinite entry makes its agent's norm NaN or
    infinite, which fails the comparison.
    """
    bound = 1e3 * math.sqrt(r)
    if np.vdot(X, X) <= bound * bound:
        return None
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

    An epoch runs the step, appends its ``wall_ms``, copies its iterates into
    the block buffer by ``evaluate`` and keeps the agent sums of ``s`` and
    ``g``. The initial state is a block of one; after it, every ``BLOCK``
    epochs, and when the loop ends, ``flush`` fills the pending epochs' other
    columns together: ``agent_means`` takes their agent means and consensus
    errors, and one ``evaluate_means`` call the other four metrics. The
    buffer of iterates, and for Q-RGT the dither's, each hold BLOCK n d r
    float64 values. ``epoch`` and ``wire_bits_cum`` are not stored: the
    trace derives them from ``wire_per_epoch``, the bits charged per epoch
    (n quantized gradient messages for Q-RGT, none for RGT). The ``ds`` stop
    is found per block: the table ends at the first epoch after the start
    with ``ds <= ds_tol``, every column cut at that one index, and the at
    most ``BLOCK - 1`` epochs run past it leave no entry, though
    ``epochs_computed`` counts them. A divergence ends the loop before its
    epoch is kept. ``diagnostics`` adds the ``s_consensus_sq`` and
    ``max_dist`` columns; no row depends on it. An instance whose ``x_star``
    columns are not orthonormal is refused with ``ValueError`` before the
    first epoch.
    """
    _check_orthonormal(inst.x_star, "x_star")  # once: the metrics read it unchecked
    mixing = build_metropolis(topology, cfg.t)
    eng = _Engine(inst, mixing, cfg)
    n, d, r = inst.n_agents, inst.dims.d, inst.dims.r
    wire_per_epoch = n * wire_size_bits(d * r, eng.qspec) if cfg.algorithm == ALGO_QRGT else 0
    names = (*MEASURED, "tracker_residual", *(("s_consensus_sq", "max_dist") if diagnostics else ()))
    columns = {name: array("d") for name in names}
    put_wall = columns["wall_ms"].append
    termination = TERMINATION_MAX_EPOCHS
    divergence = None
    xs = np.empty((BLOCK, n, d, r))
    s_sums, g_sums = np.empty((BLOCK, d, r)), np.empty((BLOCK, d, r))

    def keep_sums(st: TrackingState, slot: int) -> None:
        np.add.reduce(st.s, 0, out=s_sums[slot])
        np.add.reduce(st.g, 0, out=g_sums[slot])
        if diagnostics:
            s_dev = st.s - s_sums[slot] / n
            columns["s_consensus_sq"].append(float(np.vdot(s_dev, s_dev)))

    def flush(k: int) -> bool:
        """Fill the columns of the ``k`` pending epochs, whose iterates
        ``agent_means`` overwrites; on a ds stop among them, cut every
        column after it and return True."""
        if diagnostics:
            _extend(columns["max_dist"], distance_to_manifold(xs[:k]).max(axis=1))
        xbars, consensus = agent_means(xs[:k])
        sbar, gbar = s_sums[:k], g_sums[:k]
        sbar /= n
        gbar /= n
        gbar_norms = _norms(gbar)
        sbar -= gbar
        _extend(columns["tracker_residual"], _norms(sbar) / np.fmax(gbar_norms, 1.0))
        metrics = (consensus, *evaluate_means(xbars, inst))
        for name, values in zip(MEASURED, metrics):  # all but wall_ms, appended per epoch
            _extend(columns[name], values)
        stops = np.flatnonzero(metrics[3] <= cfg.ds_tol)
        if stops.size == 0:
            return False
        kept = len(columns["ds"]) - k + int(stops[0]) + 1
        for values in columns.values():
            del values[kept:]
        return True

    clock = time.perf_counter
    tic = clock()
    state = eng.initial_state()
    put_wall((clock() - tic) * 1e3)
    xs[0] = state.x  # the start, a block of one: no evaluate call, which counts steps
    keep_sums(state, 0)
    flush(1)  # the start never stops a run: a stop there cuts nothing, and goes unread
    step = eng.step
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
        evaluate(state.x, xs[pending])
        put_wall(wall_ms)
        keep_sums(state, pending)
        pending += 1
        if pending == BLOCK:
            pending = 0
            if flush(BLOCK):
                termination = TERMINATION_DS
                break
    if pending and flush(pending):  # a stop before the loop's end, or before a divergence
        termination, divergence = TERMINATION_DS, None
    return RunTrace(TraceRows(columns, wire_per_epoch), termination, mixing.sigma2, epoch, divergence)


def _extend(values: array, new: np.ndarray) -> None:
    """Append the float64 entries of ``new`` to the ``array('d')`` ``values``, bit for bit."""
    values.frombytes(new.tobytes())
