"""The benchmark's workloads, their generated inputs, and the checks on each solve.

Each workload is a qrgt configuration reached through the package's public
entry points: ``qrgt.config.parse_config`` with a preset and overrides, then
``build_problem``, ``build_topology`` and ``algo_config``.

- ``synthetic-qrgt8``: the shipped ``synthetic`` preset (ring of 16 agents,
  1000 rows each, d=10, r=5, Q-RGT at 8 bits with dither, 10,000-epoch cap).
  It plateaus near ds=3e-5 and never reaches the 1e-8 stop, so every solve
  runs all 10,000 epochs. The 10x5 blocks are tiny, so per-agent Python work
  (the quantizer and its per-agent dither streams) and ``evaluate`` dominate.
- ``synthetic-rgt``: the same instance solved by RGT with a QR retraction
  until ds <= 1e-8. The per-agent ``retract`` loop dominates and no
  quantizer runs, so ``solve_s`` is the time to a stated accuracy.
- ``mnist-qrgt8``: a 60,000 x 784 IDX3 file generated from the seed (16
  agents of 3750 rows, r=5, Q-RGT at 8 bits) run for a fixed number of
  epochs. ``local_grads`` streams the 78 MB Gram stack every epoch, the
  quantizer works on blocks 78x larger than on the synthetic shape, and set-up
  (IDX3 load, Grams, eigensolve) and resident memory are large only here.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

# Fixed by the CSV format of qrgt.cli; a header change is a format change.
CSV_HEADER = "epoch,consensus_error,grad_norm,f_gap,ds,dist_mean,wall_ms,wire_bits_cum"
TRACKER_RESIDUAL_MAX = 1e-10  # acceptance criterion 7


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    overrides: dict = field(default_factory=dict)
    # ds threshold whose first crossing is reported as engine.epochs_to_target
    target_ds: float = 1e-8
    # the run must stop on DsTolerance with final ds <= the preset's ds_tol
    must_reach_tol: bool = False
    # set-ups at each of the three set-up points of a run: 150 set-ups of
    # about 10 ms on the synthetic shape, of which setup_s averages the fastest 3
    setup_repeats: int = 50
    # consecutive epochs per timing window: a few milliseconds of work
    window_epochs: int = 10


WORKLOADS = {
    w.name: w
    for w in (
        Workload("synthetic-qrgt8", "synthetic", target_ds=1e-4),
        Workload(
            "synthetic-rgt",
            "synthetic",
            {"algorithm": "rgt"},
            target_ds=1e-8,
            must_reach_tol=True,
        ),
        # ds only falls from about 2.7 to 2.2 over 2000 epochs on this shape,
        # so the run is a fixed number of epochs and the target marks the
        # end of the initial drop from about 3.0.
        Workload(
            "mnist-qrgt8",
            "mnist",
            {"max_epochs": 100},
            target_ds=2.8,
            setup_repeats=2,  # about 2.5 s each; setup_s is the fastest of six
            window_epochs=1,  # one epoch is already about 25 ms of work
        ),
    )
}


def write_mnist_fixture(path: Path, seed: int, count: int = 60000, side: int = 28) -> None:
    """IDX3 images with an MNIST-like decaying spectrum: low-rank structure over
    a constant background plus pixel noise, quantized to bytes.

    Same recipe as the MNIST-scale fixture of the acceptance tests, written
    here so the benchmark does not depend on the test tree.
    """
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


def check_solve(workload: Workload, trace, ds_tol: float, csv_text: str) -> list[str]:
    """Every failed check of one solve, as one line each; empty when it passed."""
    from qrgt.engine import TERMINATION_DIVERGED, TERMINATION_DS

    failures = []
    if trace.termination == TERMINATION_DIVERGED:
        failures.append("run diverged")
    if not trace.rows:
        return failures + ["no epoch completed"]
    final = trace.final
    if workload.must_reach_tol and not (
        trace.termination == TERMINATION_DS and final.ds <= ds_tol
    ):
        failures.append(
            f"expected DsTolerance with ds <= {ds_tol:g}, got {trace.termination} ds={final.ds:.3e}"
        )
    residual = max(trace.diagnostics.tracker_residual)
    if not residual <= TRACKER_RESIDUAL_MAX:
        failures.append(f"tracker residual {residual:.3e} > {TRACKER_RESIDUAL_MAX:g}")
    lines = [ln for ln in csv_text.splitlines() if not ln.startswith("#")]
    if not lines or lines[0] != CSV_HEADER:
        failures.append(f"CSV header is {lines[:1]}, expected {CSV_HEADER!r}")
    epochs = [int(ln.split(",", 1)[0]) for ln in lines[1:]]
    if epochs != list(range(1, len(trace.rows) + 1)):
        failures.append(f"CSV holds {len(epochs)} rows, not one per epoch 1..{len(trace.rows)}")
    return failures


def epochs_to_target(trace, target: float) -> int:
    """First epoch with ds <= target; 0 when the run never got there."""
    for row in trace.rows:
        if row.ds <= target:
            return row.epoch
    return 0


def plateau_ds(trace) -> float:
    """Median ds over the last fifth of the epochs run."""
    ds = [row.ds for row in trace.rows]
    return float(np.median(ds[len(ds) - max(1, len(ds) // 5) :]))
