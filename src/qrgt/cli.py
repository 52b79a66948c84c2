"""Command-line harness: seeded runs and parameter sweeps with CSV output.

`qrgt run` executes one configuration and writes a CSV trace whose header
comments carry the fully resolved configuration. `qrgt sweep` repeats a base
configuration over a list of values for one key (same seed throughout, so
data and initialization are shared) and writes an index of final metrics and
each value's termination reason; a value that diverged before completing an
epoch has nan metrics. Every value is resolved before the first run, and when
a later value stops with exit 2 the index of the values already run is still
written.

Exit codes: 0 for a completed run (early stop or epoch cap); 2 for a
configuration error, including a step size over the safety bound with
``enforce_safety`` set, or for unusable input (an edge file that is
malformed or disconnected, an Erdos-Renyi draw that never connects, a
malformed IDX file), reported as one ``error:`` line with nothing written
for the failing run; 3 for divergence (the partial trace is still written,
and one line names the epoch, the first agent that tripped, and the check:
non-finite entries, or norm > 1e3 sqrt(r)).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import fields
from pathlib import Path

from .config import ConfigError, RunConfig, algo_config, build_problem, build_topology, parse_config, with_value
from .engine import TERMINATION_DIVERGED, RunTrace, StepSizeError, run
from .network import GraphError
from .problems import IdxFormatError

CSV_HEADER = "epoch,consensus_error,grad_norm,f_gap,ds,dist_mean,wall_ms,wire_bits_cum"

SWEEP_KEYS = {
    "bits": "bits",
    "alpha_hat": "alpha_hat",
    "t": "t",
    "topology.p": "topology_p",
    "n": "n",
}

__all__ = ["main", "execute", "sweep", "write_trace_csv"]


def write_trace_csv(path: str | Path, cfg: RunConfig, trace: RunTrace) -> None:
    """CSV with the resolved config as '#' comments, then one row per epoch.

    wall_ms is zeroed unless cfg.timing is set, keeping same-seed runs
    byte-identical.
    """
    lines = [f"# {f.name} = {getattr(cfg, f.name)}" for f in fields(cfg)]
    lines.append(CSV_HEADER)
    for row in trace.rows:
        wall = row.wall_ms if cfg.timing else 0.0
        lines.append(
            f"{row.epoch},{row.consensus_error!r},{row.grad_norm!r},{row.f_gap!r},"
            f"{row.ds!r},{row.dist_mean!r},{wall!r},{row.wire_bits_cum}"
        )
    Path(path).write_text("\n".join(lines) + "\n")


def execute(cfg: RunConfig) -> tuple[int, RunTrace]:
    """Run one configuration and write its trace; returns (exit code, trace)."""
    inst = build_problem(cfg)
    topology = build_topology(cfg)
    trace = run(inst, topology, algo_config(cfg, inst))
    write_trace_csv(cfg.out, cfg, trace)
    if trace.rows:
        final = trace.final
        summary = (
            f"{trace.termination} after {final.epoch} epochs: "
            f"final ds={final.ds:.3e}, quantized payload {final.wire_bits_cum} bits -> {cfg.out}"
        )
    else:
        summary = f"{trace.termination} before completing one epoch -> {cfg.out}"
    print(summary)
    if trace.divergence:
        print(trace.divergence)
    return (3 if trace.termination == TERMINATION_DIVERGED else 0), trace


def sweep(cfg: RunConfig, key: str, values: list[str]) -> int:
    """Run cfg once per value of ``key``; write per-value traces and an index.

    Every value is resolved before the first run, so a bad value writes
    nothing. An unsafe step or unusable input met by a later value
    (``StepSizeError``, ``GraphError``, ``IdxFormatError``) still leaves the
    index of the values already run, then propagates.
    """
    if key not in SWEEP_KEYS:
        raise ConfigError(f"sweep key must be one of {sorted(SWEEP_KEYS)}, got {key!r}")
    field_name = SWEEP_KEYS[key]
    out = Path(cfg.out)
    runs = [
        (raw, with_value(with_value(cfg, field_name, raw), "out",
                         str(out.with_name(f"{out.stem}-{field_name}{raw}{out.suffix}"))))
        for raw in values
    ]
    index_lines = ["value,final_ds,final_consensus_error,termination"]
    status = 0
    try:
        for raw, run_cfg in runs:
            code, trace = execute(run_cfg)
            status = max(status, code)
            ds = consensus = float("nan")  # diverged before completing an epoch
            if trace.rows:
                ds, consensus = trace.final.ds, trace.final.consensus_error
            index_lines.append(f"{raw},{ds!r},{consensus!r},{trace.termination}")
    except (StepSizeError, GraphError, IdxFormatError):
        if len(index_lines) > 1:
            _write_index(out, index_lines)
        raise
    _write_index(out, index_lines)
    return status


def _write_index(out: Path, index_lines: list[str]) -> None:
    index_path = out.with_name(f"{out.stem}-index{out.suffix}")
    index_path.write_text("\n".join(index_lines) + "\n")
    print(f"sweep index -> {index_path}")


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--preset", help="named preset (synthetic, mnist)")
    parser.add_argument("--bits", type=int)
    parser.add_argument("--algo", dest="algorithm", choices=["qrgt", "rgt"])
    parser.add_argument("--topology", choices=["ring", "er", "complete", "edges"])
    parser.add_argument("--n", type=int)
    parser.add_argument("--t", type=int)
    parser.add_argument("--alpha-hat", dest="alpha_hat", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--max-epochs", dest="max_epochs", type=int)
    parser.add_argument("--ds-tol", dest="ds_tol", type=float)
    parser.add_argument("--out")
    parser.add_argument("--mnist-path", dest="mnist_path")
    parser.add_argument("--timing", action="store_true", default=None,
                        help="record real per-epoch wall time (breaks byte-identical reruns)")


def _overrides(args: argparse.Namespace) -> dict:
    keys = [
        "bits", "algorithm", "topology", "n", "t", "alpha_hat", "seed",
        "max_epochs", "ds_tol", "out", "mnist_path", "timing",
    ]
    return {k: getattr(args, k) for k in keys if getattr(args, k, None) is not None}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qrgt",
        description="Decentralized eigenvector computation with quantized gradient tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one configuration")
    _add_override_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="repeat a configuration over values of one key")
    _add_override_flags(sweep_p)
    sweep_p.add_argument("--key", required=True, choices=sorted(SWEEP_KEYS))
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(file=args.config, overrides=_overrides(args), preset=args.preset)
        if args.command == "run":
            code, _ = execute(cfg)
            return code
        return sweep(cfg, args.key, [v for v in args.values.split(",") if v])
    except (ConfigError, StepSizeError, GraphError, IdxFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
