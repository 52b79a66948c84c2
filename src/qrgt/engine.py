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
error is exactly zero, and the tracker is seeded with the first gradient so
that the tracker mean equals the gradient mean from epoch zero onward.

The state of all agents is one ``TrackingState`` of stacked ``(n, d, r)``
arrays. Each epoch's dither is one ``(n, d, r)`` block drawn from the stream
of (seed, epoch), agent i taking slice i, so an epoch's draws do not depend
on the order in which agents are processed or on earlier epochs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .metrics import evaluate
from .network import MixingMatrix, Topology, build_metropolis, mix
from .problems import ProblemInstance, estimate_smoothness
from .quantizers import MODE_DITHERED, MODE_LANDING, QuantizerSpec, quantize_landing, scale_factor
from .stiefel import SmoothnessConstants, penalty_grad, random_stiefel, retract, tangent_project
from .streams import STREAM_DITHER, STREAM_INIT, stream_rng

ALGO_QRGT = "qrgt"
ALGO_RGT = "rgt"

TERMINATION_MAX_EPOCHS = "MaxEpochs"
TERMINATION_DS = "DsTolerance"
TERMINATION_DIVERGED = "Diverged"

__all__ = [
    "ALGO_QRGT",
    "ALGO_RGT",
    "TERMINATION_MAX_EPOCHS",
    "TERMINATION_DS",
    "TERMINATION_DIVERGED",
    "AlgoConfig",
    "TrackingState",
    "TraceRow",
    "RunDiagnostics",
    "RunTrace",
    "StepSizeError",
    "init_state",
    "qrgt_epoch",
    "rgt_epoch",
    "step_size_bounds",
    "safety_step_bound",
    "run",
]


class StepSizeError(ValueError):
    """Configured step size exceeds the theoretical safety bound while
    ``enforce_safety`` is set; raised before the first epoch."""


@dataclass
class AlgoConfig:
    """Knobs of one decentralized run."""

    alpha: float
    t: int = 1
    bits: int = 8
    max_epochs: int = 1000
    ds_tolerance: float = 0.0
    seed: int = 0
    algorithm: str = ALGO_QRGT
    retraction: str = "qr"
    enforce_safety: bool = False
    dither: bool = True

    def __post_init__(self) -> None:
        if self.alpha <= 0:
            raise ValueError(f"alpha must be positive, got {self.alpha}")
        if self.max_epochs < 1:
            raise ValueError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if self.algorithm not in (ALGO_QRGT, ALGO_RGT):
            raise ValueError(f"algorithm must be 'qrgt' or 'rgt', got {self.algorithm!r}")
        if self.retraction not in ("qr", "polar"):
            raise ValueError(f"retraction must be 'qr' or 'polar', got {self.retraction!r}")
        if self.ds_tolerance < 0:
            raise ValueError("ds_tolerance must be nonnegative")
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
    epoch: int
    consensus_error: float
    grad_norm: float
    f_gap: float
    ds: float
    dist_mean: float
    wall_ms: float
    wire_bits_cum: int


@dataclass
class RunDiagnostics:
    """Per-epoch internals kept out of the CSV: used by invariant tests.

    Entry 0 describes the initial state, so each list holds one more entry
    than the trace has rows. ``tracker_residual`` is
    ||mean(s) - mean(g)|| / max(1, ||mean(g)||), ``landing_ratio`` the
    largest per-agent ratio of gradient scale to penalty-gradient scale (nan
    while every agent sits on the manifold), and ``max_dist`` (only when
    requested) the largest per-agent distance to the manifold.
    """

    tracker_residual: list[float] = field(default_factory=list)
    x_consensus_sq: list[float] = field(default_factory=list)
    s_consensus_sq: list[float] = field(default_factory=list)
    gamma_max: list[float] = field(default_factory=list)
    landing_ratio: list[float] = field(default_factory=list)
    max_dist: list[float] = field(default_factory=list)


@dataclass
class RunTrace:
    """One row per completed epoch plus the reason the loop stopped."""

    rows: list[TraceRow]
    termination: str
    sigma2: float
    diagnostics: RunDiagnostics

    @property
    def final(self) -> TraceRow:
        return self.rows[-1]


def step_size_bounds(consts: SmoothnessConstants, sigma2: float, n: int) -> dict[str, float]:
    """All step-size bounds by name.

    ``descent``, ``consensus``, ``rate`` and ``consensus_rate`` jointly
    guarantee the O(1/K) rate; ``stability`` is the looser linear-system
    bound, reported for reference but never used as the guard.
    """
    if not (0.0 <= sigma2 < 1.0):
        raise ValueError(f"sigma2 must be in [0, 1), got {sigma2}")
    if n < 1:
        raise ValueError("n must be positive")
    lm = consts.L_m
    gap = 1.0 - sigma2
    return {
        "descent": 1.0 / (8.0 * lm),
        "consensus": gap**2 / (16.0 * lm),
        "stability": gap**2 / (4.0 * lm),
        "rate": np.sqrt(n * gap**3 / (2.0 * lm**2 + 1.0)) / (16.0 * lm),
        "consensus_rate": (n * gap**3) ** 0.25 / (16.0 * lm),
    }


def safety_step_bound(consts: SmoothnessConstants, sigma2: float, n: int) -> float:
    """Tightest step size under which every convergence guarantee holds."""
    bounds = step_size_bounds(consts, sigma2, n)
    return min(bounds["descent"], bounds["consensus"], bounds["rate"], bounds["consensus_rate"])


class _Engine:
    """Stacked-array implementation shared by the epoch functions and run()."""

    def __init__(self, inst: ProblemInstance, mixing: MixingMatrix | None, cfg: AlgoConfig):
        self.inst = inst
        self.mixing = mixing
        self.cfg = cfg
        self.qspec = QuantizerSpec(bits=cfg.bits, mode=MODE_DITHERED if cfg.dither else MODE_LANDING)

    def local_grads(self, X: np.ndarray) -> np.ndarray:
        return -np.matmul(self.inst.grams, X)

    def quantize_all(self, RG: np.ndarray, PG: np.ndarray, epoch: int):
        """Quantize every agent's gradient; returns (values, scales, ratios).

        The dither is one uniform block of RG's shape drawn from the stream
        of (cfg.seed, epoch); agent i's noise is slice i, also for a zero
        gradient, whose draws go unused.
        """
        noise = None
        if self.cfg.dither:
            half = 0.5 / self.qspec.levels
            noise = stream_rng(self.cfg.seed, STREAM_DITHER, epoch).uniform(-half, half, RG.shape)
        q = quantize_landing(RG, PG, self.qspec, noise)
        pscales = scale_factor(PG)
        ratios = np.full(len(RG), np.nan)
        mask = pscales > 0.0
        ratios[mask] = q.scale[mask] / pscales[mask]
        return q.value, q.scale, ratios

    def initial_state(self) -> tuple[TrackingState, float, float]:
        """Shared start, trackers seeded with the first gradient; returns
        (state, largest quantizer scale, largest landing ratio)."""
        x0 = random_stiefel(self.inst.dims.d, self.inst.dims.r, stream_rng(self.cfg.seed, STREAM_INIT))
        X = np.broadcast_to(x0, (self.inst.n_agents, *x0.shape)).copy()
        RG = tangent_project(X, self.local_grads(X))
        if self.cfg.algorithm == ALGO_QRGT:
            G, scales, ratios = self.quantize_all(RG, penalty_grad(X), epoch=0)
            return TrackingState(X, G.copy(), G), float(scales.max()), _nanmax(ratios)
        return TrackingState(X, RG.copy(), RG), 0.0, float("nan")

    def qrgt_step(self, st: TrackingState, epoch: int) -> tuple[TrackingState, float, float]:
        Xn = mix(self.mixing, st.x) - self.cfg.alpha * st.s
        RG = tangent_project(Xn, self.local_grads(Xn))
        Gn, scales, ratios = self.quantize_all(RG, penalty_grad(Xn), epoch)
        Sn = mix(self.mixing, st.s) + Gn - st.g
        return TrackingState(Xn, Sn, Gn), float(scales.max()), _nanmax(ratios)

    def rgt_step(self, st: TrackingState, epoch: int) -> tuple[TrackingState, float, float]:
        direction = mix(self.mixing, st.x) - st.x - self.cfg.alpha * st.s
        Xi = tangent_project(st.x, direction)
        Xn = retract(st.x, Xi, self.cfg.retraction)
        Gn = tangent_project(Xn, self.local_grads(Xn))
        Sn = mix(self.mixing, st.s) + Gn - st.g
        return TrackingState(Xn, Sn, Gn), 0.0, np.nan

    def step(self, st: TrackingState, epoch: int) -> tuple[TrackingState, float, float]:
        if self.cfg.algorithm == ALGO_QRGT:
            return self.qrgt_step(st, epoch)
        return self.rgt_step(st, epoch)


def _nanmax(values: np.ndarray) -> float:
    finite = values[np.isfinite(values)]
    return float(finite.max()) if finite.size else float("nan")


def init_state(inst: ProblemInstance, cfg: AlgoConfig) -> TrackingState:
    """Shared random on-manifold start; trackers seeded with the first gradient."""
    return _Engine(inst, None, cfg).initial_state()[0]  # mixing is not used during init


def qrgt_epoch(
    state: TrackingState,
    inst: ProblemInstance,
    mixing: MixingMatrix,
    cfg: AlgoConfig,
    epoch: int = 1,
) -> TrackingState:
    """One quantized tracking epoch; dither is keyed by (cfg.seed, epoch)."""
    return _Engine(inst, mixing, cfg).qrgt_step(state, epoch)[0]


def rgt_epoch(
    state: TrackingState,
    inst: ProblemInstance,
    mixing: MixingMatrix,
    cfg: AlgoConfig,
    epoch: int = 1,
) -> TrackingState:
    """One retraction-based tracking epoch with exact gradients."""
    return _Engine(inst, mixing, cfg).rgt_step(state, epoch)[0]


def _diverged(X: np.ndarray, r: int) -> bool:
    if not np.isfinite(X).all():
        return True
    norms = np.sqrt(np.sum(X.reshape(X.shape[0], -1) ** 2, axis=1))
    return bool(norms.max() > 1e3 * np.sqrt(r))


def run(
    inst: ProblemInstance,
    topology: Topology,
    cfg: AlgoConfig,
    full_diagnostics: bool = False,
) -> RunTrace:
    """Execute epochs until max_epochs, the early-stop threshold, or divergence.

    Emits one trace row per completed epoch. ``full_diagnostics`` additionally
    records every agent's distance to the manifold each epoch (one small SVD
    per agent per epoch). With ``cfg.enforce_safety``, a step above
    ``safety_step_bound`` raises ``StepSizeError`` before the first epoch.
    """
    mixing = build_metropolis(topology, cfg.t)
    if cfg.enforce_safety:
        bound = safety_step_bound(estimate_smoothness(inst), mixing.sigma2, inst.n_agents)
        if cfg.alpha > bound:
            raise StepSizeError(
                f"enforce_safety: step size {cfg.alpha:.3g} exceeds the safety bound {bound:.3g}"
            )
    eng = _Engine(inst, mixing, cfg)
    d, r = inst.dims.d, inst.dims.r
    wire_per_epoch = inst.n_agents * (d * r * cfg.bits + 64) if cfg.algorithm == ALGO_QRGT else 0
    rows: list[TraceRow] = []
    diag = RunDiagnostics()
    termination = TERMINATION_MAX_EPOCHS

    def record_diag(st: TrackingState, gamma_max, landing_ratio):
        sbar = st.s.mean(axis=0)
        gbar = st.g.mean(axis=0)
        diag.tracker_residual.append(
            float(np.linalg.norm(sbar - gbar)) / max(1.0, float(np.linalg.norm(gbar)))
        )
        diag.x_consensus_sq.append(float(np.sum((st.x - st.x.mean(axis=0)) ** 2)))
        diag.s_consensus_sq.append(float(np.sum((st.s - sbar) ** 2)))
        diag.gamma_max.append(gamma_max)
        diag.landing_ratio.append(landing_ratio)
        if full_diagnostics:
            sv = np.linalg.svd(st.x, compute_uv=False)
            diag.max_dist.append(float(np.sqrt(((sv - 1.0) ** 2).sum(axis=1)).max()))

    state, gamma_max, landing_ratio = eng.initial_state()
    record_diag(state, gamma_max, landing_ratio)  # epoch-0 entry
    wire_cum = wire_per_epoch  # the initial gradient exchange is epoch 0's payload
    for epoch in range(1, cfg.max_epochs + 1):
        tic = time.perf_counter()
        state, gamma_max, landing_ratio = eng.step(state, epoch)
        wall_ms = (time.perf_counter() - tic) * 1e3
        if _diverged(state.x, r):
            termination = TERMINATION_DIVERGED
            break
        wire_cum += wire_per_epoch
        row = evaluate(state.x, inst)
        rows.append(
            TraceRow(
                epoch=epoch,
                consensus_error=row.consensus_error,
                grad_norm=row.grad_norm,
                f_gap=row.f_gap,
                ds=row.ds,
                dist_mean=row.dist_mean,
                wall_ms=wall_ms,
                wire_bits_cum=wire_cum,
            )
        )
        record_diag(state, gamma_max, landing_ratio)
        if row.ds <= cfg.ds_tolerance:
            termination = TERMINATION_DS
            break
    return RunTrace(rows=rows, termination=termination, sigma2=mixing.sigma2, diagnostics=diag)
