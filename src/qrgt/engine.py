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

The state of all agents is one ``TrackingState``: the iterates ``x``, a
stacked ``(n, d, r)`` array, and ``sg``, one ``(2, n, d, r)`` array of the
trackers and the gradients. A step takes the pair ``(x, sg)`` and returns
the next pair, leaving its arguments as they were: a new ``x``, and the
new trackers and gradients written into the ``out`` array it is given, or
into a new one. ``run`` is the one driver of the recursion. Epoch k's
dither is block k of (n, d, r) draws from the run's one dither stream,
agent i taking slice i (layout in ``streams``); the engine draws the
blocks in order from one generator, ``BLOCK`` of them at a time, the
initial state taking block 0.

Each formula has one implementation, a kernel that its public function
calls after checking its input: ``network.mix``, ``stiefel``'s
``tangent_project``, ``penalty_grad`` and ``retract``, ``quantizers.snap``
and ``workers.gram_products``. The engine calls the kernels unchecked,
since at d = 10 an epoch is bound by per-call overhead. It binds them to
the names ``mix``, ``tangent_project``, ``penalty_grad`` (a quarter of the
gradient, without the public function's exact scale by 4) and ``retract``,
calls ``metrics.evaluate`` as ``evaluate``, and runs the local gradients
and the quantizer through ``_Engine.local_grads`` and
``_Engine.quantize_all``. A benchmark wraps these names, looked up at each
call, to trace the layers and clock the epochs, so they stay, each called
as often per epoch as before. The steps and the epoch loop of ``run``
write every elementwise result in place; only the per-block flush and the
``diagnostics`` columns take temporaries. RGT's ``retract`` fills one
``(n, 2r, 2r)`` buffer that the engine makes once per run.

Each agent computes its local gradient on its own from the product G_i x_i
of ``workers._gram_products``, which alone picks the products' panels and
their split over threads. The gradient is the negation of that product,
and ``tangent_project(x, P, out, negate=True)`` projects it without a
pass that negates it. The calling thread waits for any split, so
whatever wraps ``_Engine.local_grads`` still runs on that thread only.

A run's numbers are one table, ``RunTrace.columns``: a column per name,
entry k of every column describing epoch k, entry 0 the shared start. An
epoch of ``run`` is the step and a copy of its iterate: it runs the step,
which writes its trackers and gradients into the epoch's slot of a
``(BLOCK, 2, n, d, r)`` buffer, screens the iterates for divergence with
one dot product, and copies them into a ``(BLOCK, n, d, r)`` buffer
(``evaluate``, the one per-epoch call of the metrics). The start is a
block of one; after it, every ``BLOCK`` = 10 epochs, and when the loop
ends, the pending epochs are evaluated together: the agent sums of their
trackers and gradients (one reduction over the slots), the agent means,
the consensus errors, the other four metrics and the tracker residuals,
with the bits of one epoch at a time.
So the ``ds`` stop is found up to 9 epochs late: an RGT run computes up to
9 epochs past its stop, which leave no row, and
``RunTrace.epochs_computed`` counts them. ``wall_ms`` still times the step
alone.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, fields
from itertools import count, islice, starmap
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from . import workers
from .metrics import _norms, agent_means, evaluate, evaluate_means
from .network import MixingMatrix, Topology, build_metropolis
from .network import _mix as mix
from .problems import ProblemInstance
from .quantizers import _DIRECTION_THRESHOLD, QuantizerSpec, _snap, dither_noise, wire_size_bits
from .stiefel import _check_fields, _check_orthonormal, distance_to_manifold, random_stiefel
from .stiefel import _augmented_buffer
from .stiefel import _penalty_quarter as penalty_grad
from .stiefel import _retract as retract
from .stiefel import _tangent_project as tangent_project
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
        _check_fields(
            self, counts=("t", "max_epochs"), integers=("bits",), naturals=("seed",), reals=("alpha", "ds_tol")
        )
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha: must be positive and finite, got {self.alpha}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"algorithm: must be one of {', '.join(ALGORITHMS)}, got {self.algorithm!r}")
        if not (math.isfinite(self.ds_tol) and self.ds_tol >= 0):
            raise ValueError(f"ds_tol: must be nonnegative and finite, got {self.ds_tol}")
        QuantizerSpec(bits=self.bits)  # range check


class TrackingState(NamedTuple):
    """All agents' decision variables ``x``, an ``(n, d, r)`` array indexed
    by agent, and ``sg``, one ``(2, n, d, r)`` array holding their trackers
    ``s`` and their last (quantized or exact) Riemannian gradients ``g``.
    In ``run``, each epoch's ``sg`` is a slot of the run's block buffer,
    overwritten ``BLOCK`` epochs later; a caller that keeps a state past
    that copies it."""

    x: np.ndarray
    sg: np.ndarray

    @property
    def s(self) -> np.ndarray:
        return self.sg[0]

    @property
    def g(self) -> np.ndarray:
        return self.sg[1]


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


class _Engine:
    """Stacked-array implementation of one run's epochs, driven by run()."""

    def __init__(self, inst: ProblemInstance, mixing: MixingMatrix, cfg: AlgoConfig):
        self.inst = inst
        self.mixing = mixing
        self.cfg = cfg
        self.qspec = QuantizerSpec(bits=cfg.bits)
        self._levels = float(self.qspec.levels)  # a float multiplies and divides faster than an int
        self._dither = stream_rng(cfg.seed, STREAM_DITHER)
        self._noise = None  # the run's one buffer of BLOCK dither blocks; quantize_all takes the next
        self._next = BLOCK
        # the one buffer that RGT's retract refills each epoch
        self._augmented = _augmented_buffer((inst.n_agents,), inst.dims.r) if cfg.algorithm == ALGO_RGT else None

    @property
    def step(self):
        """The epoch of the configured algorithm, ``qrgt_step`` or
        ``rgt_step``; ``run`` looks it up once. A property, not an attribute
        set in ``__init__``: a bound method stored on the engine would make a
        reference cycle that keeps a finished run's instance alive until the
        garbage collector runs."""
        return self.qrgt_step if self.cfg.algorithm == ALGO_QRGT else self.rgt_step

    def local_grads(self, X: np.ndarray) -> np.ndarray:
        """The products G_i X_i of every agent's Gram with its iterate, a
        new array; agent i's Euclidean gradient is their negation."""
        return workers._gram_products(self.inst.grams, X)

    def quantize_all(self, RG: np.ndarray, PG: np.ndarray, out: np.ndarray | None = None):
        """Quantize every agent's gradient ``RG``; returns (values, scales,
        None), the values written into ``out`` or a new array. ``PG`` is the
        engine's ``penalty_grad``, a quarter of the penalty gradient, so its
        direction bits are taken against a quarter of the snap's threshold:
        the same bits as the gradient against the whole one.

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
        values, scales = _snap(RG, PG, self._levels, noise, out, _DIRECTION_THRESHOLD / 4)
        return values, scales, None

    def initial_state(self) -> TrackingState:
        """Shared start, trackers seeded with the first gradient."""
        x0 = random_stiefel(self.inst.dims.d, self.inst.dims.r, stream_rng(self.cfg.seed, STREAM_INIT))
        x = np.broadcast_to(x0, (self.inst.n_agents, *x0.shape)).copy()
        sg = np.empty((2, *x.shape))
        if self.cfg.algorithm == ALGO_QRGT:
            self.quantize_all(tangent_project(x, self.local_grads(x), negate=True), penalty_grad(x), sg[1])
        else:
            tangent_project(x, self.local_grads(x), sg[1], negate=True)
        sg[0] = sg[1]
        return TrackingState(x, sg)

    def qrgt_step(
        self, x: np.ndarray, sg: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One Q-RGT epoch from the iterates ``x`` and the trackers and
        gradients ``sg`` of a ``TrackingState``; returns the next pair and
        leaves its arguments as they were. The new ``x`` is a new array; the
        new trackers and gradients are written into ``out``, a
        ``(2, n, d, r)`` array that shares no memory with ``x`` or ``sg``,
        or into a new one when ``out`` is None, with the same bits. The
        tracker slot holds alpha s until the tracker is written."""
        s, g = sg[0], sg[1]
        new = np.empty(sg.shape) if out is None else out
        s_new, g_new = new[0], new[1]
        W_t = self.mixing.W_t
        x_new = mix(W_t, x)
        np.multiply(s, self.cfg.alpha, out=s_new)
        x_new -= s_new
        rgrad = tangent_project(x_new, self.local_grads(x_new), negate=True)
        self.quantize_all(rgrad, penalty_grad(x_new), g_new)
        np.add(mix(W_t, s), g_new, out=s_new)
        s_new -= g
        return x_new, new

    def rgt_step(
        self, x: np.ndarray, sg: np.ndarray, out: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """One RGT epoch, as ``qrgt_step`` takes and returns its state. The
        retraction refills the engine's one buffer."""
        s, g = sg[0], sg[1]
        new = np.empty(sg.shape) if out is None else out
        s_new, g_new = new[0], new[1]
        W_t = self.mixing.W_t
        direction = mix(W_t, x)
        direction -= x
        np.multiply(s, self.cfg.alpha, out=s_new)
        direction -= s_new
        x_new = retract(x, tangent_project(x, direction), self._augmented)
        tangent_project(x_new, self.local_grads(x_new), g_new, negate=True)
        np.add(mix(W_t, s), g_new, out=s_new)
        s_new -= g
        return x_new, new


def _norm_bound(r: int) -> float:
    """The largest Frobenius norm an agent's iterate may have: 1e3 sqrt(r)."""
    return 1e3 * math.sqrt(r)


def _diverged(X: np.ndarray, r: int) -> str | None:
    """None while every agent's iterate is finite with Frobenius norm at
    most ``_norm_bound(r)``; otherwise the first agent that tripped and the
    check.

    ``run`` calls it only for a stack whose whole squared norm, one dot
    product, is not at most the squared bound: a stack within it has every
    agent within the bound and finite. One pass of per-agent squared norms
    decides; a NaN or infinite entry makes its agent's norm NaN or
    infinite, which fails the comparison.
    """
    bound = _norm_bound(r)
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

    An epoch runs the step, which writes its ``s`` and ``g`` into the
    epoch's slot of a ``(BLOCK, 2, n, d, r)`` buffer (epoch k reads slot
    k - 1 and writes slot k, mod ``BLOCK``; the start's ``sg`` is an array
    of its own), screens its iterates for divergence with one dot product
    (``_diverged`` looks at the agents only when that fails), appends its
    ``wall_ms`` and copies its iterates into the block buffer by
    ``evaluate``. The initial state is a block of one; after it, every
    ``BLOCK`` epochs, and when the loop ends, ``flush`` fills the pending
    epochs' other columns together: one ``np.add.reduce`` over the agent
    axis of their slots takes the agent sums of ``s`` and ``g``, adding
    the agents in the order one epoch's reduction does, ``agent_means``
    takes their agent means and consensus errors, and one
    ``evaluate_means`` call the other four metrics. The buffer of iterates,
    and for Q-RGT the dither's, each hold BLOCK n d r float64 values, and
    the slots twice as many. ``epoch`` and ``wire_bits_cum`` are not
    stored: the trace derives them from ``wire_per_epoch``, the bits charged
    per epoch (n quantized gradient messages for Q-RGT, none for RGT). The
    ``ds`` stop is found per block: the table ends at the first epoch after
    the start with ``ds <= ds_tol``, every column cut at that one index, and
    the at most ``BLOCK - 1`` epochs run past it leave no entry, though
    ``epochs_computed`` counts them. A divergence ends the loop before its
    epoch is kept. ``diagnostics`` adds the ``s_consensus_sq`` and
    ``max_dist`` columns; no row depends on it. An instance whose ``x_star``
    columns are not orthonormal, or whose agents are not the topology's, is
    refused with ``ValueError`` before the first epoch.
    """
    _check_orthonormal(inst.x_star, "x_star")  # once: the metrics read it unchecked
    if topology.n != inst.n_agents:  # W^t would mix slices of other agents' rows
        raise ValueError(f"topology: has {topology.n} agents, but the instance has {inst.n_agents}")
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
    slots = np.empty((BLOCK, 2, n, d, r))  # the trackers and gradients, epoch by epoch
    sums = np.empty((2, BLOCK, d, r))  # their agent sums
    x_slots, sg_slots = list(xs), list(slots)
    bound = _norm_bound(r)
    bound_sq = bound * bound

    def flush(sgs: np.ndarray) -> bool:
        """Fill the columns of the pending epochs, whose trackers and
        gradients are the ``(k, 2, n, d, r)`` stack ``sgs`` and whose
        iterates ``agent_means`` overwrites; on a ds stop among them, cut
        every column after it and return True."""
        k = len(sgs)
        np.add.reduce(sgs, 2, out=sums[:, :k].swapaxes(0, 1))
        if diagnostics:
            _extend(columns["max_dist"], distance_to_manifold(xs[:k]).max(axis=1))
        xbars, consensus = agent_means(xs[:k])
        sbar, gbar = sums[:, :k]
        sbar /= n
        gbar /= n
        if diagnostics:
            s_devs = sgs[:, 0] - sbar[:, None]
            columns["s_consensus_sq"].extend(float(np.vdot(s_dev, s_dev)) for s_dev in s_devs)
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
    x, sg = eng.initial_state()
    put_wall((clock() - tic) * 1e3)
    xs[0] = x  # the start, a block of one: no evaluate call, which counts steps
    flush(sg[None])  # the start never stops a run: a stop there cuts nothing, and goes unread
    step = eng.step
    pending = 0  # epochs since the last flush, and the slot this epoch writes
    for epoch in range(1, cfg.max_epochs + 1):
        tic = clock()
        x, sg = step(x, sg, sg_slots[pending])
        wall_ms = (clock() - tic) * 1e3
        # The divergence screen: a stack whose squared norm is within the
        # squared bound passes, and only one that is not (NaN included) goes
        # to _diverged's per-agent pass.
        if not np.vdot(x, x) <= bound_sq:
            why = _diverged(x, r)
            if why is not None:
                termination = TERMINATION_DIVERGED
                divergence = f"diverged at epoch {epoch}: {why}"
                break
        # Exactly one call of the module name ``evaluate`` per epoch: the
        # benchmark clocks epochs by wrapping it, and without one stamp per
        # epoch it falls back to whole-solve times.
        evaluate(x, x_slots[pending])
        put_wall(wall_ms)
        pending += 1
        if pending == BLOCK:
            pending = 0
            if flush(slots):
                termination = TERMINATION_DS
                break
    if pending and flush(slots[:pending]):  # a stop before the loop's end, or before a divergence
        termination, divergence = TERMINATION_DS, None
    return RunTrace(TraceRows(columns, wire_per_epoch), termination, mixing.sigma2, epoch, divergence)


def _extend(values: array, new: np.ndarray) -> None:
    """Append the float64 entries of ``new`` to the ``array('d')`` ``values``, bit for bit."""
    values.frombytes(new.tobytes())
