"""Command-line harness: seeded runs and parameter sweeps with CSV output.

`qrgt run` executes one configuration and writes a CSV trace whose header
comments carry the fully resolved configuration. `qrgt sweep` repeats a base
configuration over a list of values for one key of ``SWEEP_KEYS``, each a
``RunConfig`` field whose name also names the value's trace (same seed
throughout, so data and initialization are shared), and writes an index of
final metrics and each value's termination reason; a value that diverged
before completing an epoch has nan metrics. Every value is resolved before
the first run, and the index is rewritten after each finished value, so a
sweep that stops early keeps the index of the values already run. Two values
that resolve to the same setting, however spelled (``--values 8,08``, or
``0.01,1e-2`` for ``alpha_hat``), are a configuration error.

Flags are read like config lines: ``parse_config`` reads each flag's text by
its key's declared type, so no flag declares a type or a list of choices; the
help lists the choices of the tables that declare them. A flag's syntax, too,
is a configuration error: argparse's own complaints are raised as
``ConfigError``, so they print the one ``error:`` line and no usage block.

Exit codes: 0 for a completed run (early stop or epoch cap); 2 for a
configuration error (an unknown key or flag, a flag without its value or with
a value it does not take, a missing ``--key`` or ``--values``, a malformed
value from a flag, a file line or a sweep value, a value out of range, such
as a ``leading_sv`` whose square overflows or an ``alpha_hat`` whose effective
step overflows or underflows, or an ``out`` whose directory does not exist
or that names a directory, checked before the run) or for unusable input (a
config or edge file that is not UTF-8, an edge file that is malformed or
disconnected, an Erdos-Renyi draw that never connects, a malformed IDX
file), reported as one ``error:`` line with nothing written for the failing
run; 3 for divergence (the partial trace is still written, and one line
names the epoch, the first agent that tripped, and the check: non-finite
entries, or norm > 1e3 sqrt(r)). A diverging run reports that line alone:
the CLI runs with numpy's floating-point warnings off.

A warning of the package's own (a degenerate spectral gap, uniform mixing
weights) is printed as one ``warning:`` line on stderr, and the run goes on.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from dataclasses import fields
from functools import partial
from pathlib import Path

import numpy as np

from .config import (PRESETS, TOPOLOGIES, ConfigError, RunConfig, algo_config, build_problem, build_topology,
                     parse_config, with_value)
from .engine import ALGO_QRGT, ALGORITHMS, TERMINATION_DIVERGED, TERMINATION_DS, RunTrace, TraceRow, run
from .network import GraphError, UniformMixingWarning
from .problems import DegenerateGapWarning, IdxFormatError

CSV_HEADER = ",".join(f.name for f in fields(TraceRow))

# The RunConfig fields a sweep may vary; a trace is named after the field.
SWEEP_KEYS = ("bits", "alpha_hat", "t", "topology_p", "n")

__all__ = ["main", "execute", "sweep", "write_trace_csv"]


def write_trace_csv(path: str | Path, cfg: RunConfig, trace: RunTrace) -> None:
    """CSV with the resolved config as '#' comments, then one row per epoch.

    Each row is formatted from the trace's columns and goes straight to the
    file's buffer, so neither a ``TraceRow`` per row nor the whole text is
    ever built. wall_ms is zeroed unless cfg.timing is set, keeping
    same-seed runs byte-identical.
    """
    timing = cfg.timing
    with Path(path).open("w") as out:
        out.writelines(f"# {f.name} = {getattr(cfg, f.name)}\n" for f in fields(cfg))
        out.write(CSV_HEADER + "\n")
        out.writelines(
            f"{epoch},{consensus!r},{grad!r},{gap!r},{ds!r},{dist!r},{wall if timing else 0.0!r},{wire}\n"
            for epoch, consensus, grad, gap, ds, dist, wall, wire in trace.rows.tuples()
        )


def _check_out(path: str | Path) -> None:
    """Raise ConfigError unless ``path`` can be written as a file: its
    directory exists and it is not a directory itself."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"out: {path} is a directory")
    if not path.parent.is_dir():
        raise ConfigError(f"out: {path.parent} is not an existing directory")


def execute(cfg: RunConfig) -> tuple[int, RunTrace]:
    """Run one configuration and write its trace; returns (exit code, trace).

    ``cfg.out`` is checked before anything is built, so an unwritable path
    costs no run.
    """
    _check_out(cfg.out)
    inst = build_problem(cfg)
    topology = build_topology(cfg)
    trace = run(inst, topology, algo_config(cfg, inst))
    write_trace_csv(cfg.out, cfg, trace)
    if trace.rows:
        final = trace.final
        payload = f", quantized payload {final.wire_bits_cum} bits" if cfg.algorithm == ALGO_QRGT else ""
        # the ds stop is found a block at a time: say how far the block ran
        computed = f" ({trace.epochs_computed} computed)" if trace.termination == TERMINATION_DS else ""
        summary = (
            f"{trace.termination} after {final.epoch} epochs{computed}: final ds={final.ds:.3e}{payload} -> {cfg.out}"
        )
    else:
        summary = f"{trace.termination} before completing one epoch -> {cfg.out}"
    print(summary)
    if trace.divergence:
        print(trace.divergence)
    return (3 if trace.termination == TERMINATION_DIVERGED else 0), trace


def sweep(cfg: RunConfig, key: str, values: list[str]) -> int:
    """Run cfg once per value of ``key``; write per-value traces and an index.

    Every value and every output path is resolved before the first run, so
    a bad value, two values that resolve to the same setting, an output
    path that cannot be written, or no value at all, writes nothing. The
    index is rewritten after each finished value: whatever stops a later
    value leaves the index of the values already run.
    """
    if key not in SWEEP_KEYS:
        raise ConfigError(f"sweep key must be one of {sorted(SWEEP_KEYS)}, got {key!r}")
    if not values:
        raise ConfigError("values: need at least one value to sweep over")
    out = Path(cfg.out)
    runs = [
        (raw, with_value(with_value(cfg, key, raw), "out",
                         str(out.with_name(f"{out.stem}-{key}{raw}{out.suffix}"))))
        for raw in values
    ]
    index_path = out.with_name(f"{out.stem}-index{out.suffix}")
    first_raw = {}
    for raw, run_cfg in runs:
        value = getattr(run_cfg, key)
        if value in first_raw:
            raise ConfigError(f"values: {first_raw[value]} and {raw} are both {key} = {value}")
        first_raw[value] = raw
        _check_out(run_cfg.out)
    _check_out(index_path)
    index_lines = ["value,final_ds,final_consensus_error,termination"]
    status = 0
    for raw, run_cfg in runs:
        code, trace = execute(run_cfg)
        status = max(status, code)
        ds = consensus = float("nan")  # diverged before completing an epoch
        if trace.rows:
            ds, consensus = trace.final.ds, trace.final.consensus_error
        index_lines.append(f"{raw},{ds!r},{consensus!r},{trace.termination}")
        index_path.write_text("\n".join(index_lines) + "\n")
    print(f"sweep index -> {index_path}")
    return status


def _one_of(names) -> str:
    """A metavar that lists a flag's choices, as argparse shows ``choices=``."""
    return "{" + ",".join(names) + "}"


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    parser.add_argument("--preset", metavar=_one_of(PRESETS), help="named preset")
    parser.add_argument("--bits")
    parser.add_argument("--algo", dest="algorithm", metavar=_one_of(ALGORITHMS))
    parser.add_argument("--topology", metavar=_one_of(TOPOLOGIES))
    parser.add_argument("--n")
    parser.add_argument("--t")
    parser.add_argument("--alpha-hat", dest="alpha_hat")
    parser.add_argument("--seed")
    parser.add_argument("--max-epochs", dest="max_epochs")
    parser.add_argument("--ds-tol", dest="ds_tol")
    parser.add_argument("--out")
    parser.add_argument("--mnist-path", dest="mnist_path")
    parser.add_argument("--timing", action="store_true", default=None,
                        help="record real per-epoch wall time (breaks byte-identical reruns)")


def _overrides(args: argparse.Namespace) -> dict:
    """The flags given whose names are RunConfig fields."""
    names = {f.name for f in fields(RunConfig)}
    return {k: v for k, v in vars(args).items() if k in names and v is not None}


def main(argv: list[str] | None = None) -> int:
    # numpy's floating-point warnings off: a diverging run is reported by the
    # divergence check's one line, not by the overflows that led to it.
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.showwarning = partial(_show_warning, warnings.showwarning)
        return _main(argv)


def _show_warning(default, message, category, filename, lineno, file=None, line=None) -> None:
    """One ``warning: <message>`` line on stderr for the package's warnings;
    any other warning is shown by ``default``."""
    if issubclass(category, (DegenerateGapWarning, UniformMixingWarning)):
        print(f"warning: {message}", file=sys.stderr)
    else:
        default(message, category, filename, lineno, file, line)


class _Parser(argparse.ArgumentParser):
    """A parser whose syntax errors are configuration errors, reported as
    one ``error:`` line with no usage block; subparsers share the class."""

    def error(self, message: str):
        raise ConfigError(message)


def _main(argv: list[str] | None) -> int:
    parser = _Parser(
        prog="qrgt",
        description="Decentralized eigenvector computation with quantized gradient tracking",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute one configuration")
    _add_override_flags(run_p)
    sweep_p = sub.add_parser("sweep", help="repeat a configuration over values of one key")
    _add_override_flags(sweep_p)
    sweep_p.add_argument("--key", required=True, metavar=_one_of(SWEEP_KEYS))
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    try:
        args = parser.parse_args(argv)
        cfg = parse_config(file=args.config, overrides=_overrides(args))
        if args.command == "run":
            code, _ = execute(cfg)
            return code
        return sweep(cfg, args.key, [v for v in map(str.strip, args.values.split(",")) if v])
    except (ConfigError, GraphError, IdxFormatError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
