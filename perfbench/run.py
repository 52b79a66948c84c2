"""qrgt benchmark: one command, three workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 perfbench/run.py --workload synthetic-qrgt8 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20 --trace 1

``--trace 0`` measures the end-to-end metrics with only an epoch clock
installed: ``setup_s`` (the mean of the fastest FAST_SHARE of the set-ups of
config, problem, topology and mixing, spread over the run), ``solve_s`` and
``epoch_us`` (from the epoch clock of the solves that fit in ``--seconds``;
see ``robust_times``), ``peak_rss_mb`` and ``plateau_ds``. All measuring
runs under ``hopping_cpus``. ``--trace 1`` wraps the functions the engine
looks up by name (see ``spans.py``), alternates traced and untraced solves
for ``--seconds``, and reports per-layer self times plus counts from two
extra passes: one that tallies out-of-range quantizer codes and one that
measures allocations with ``tracemalloc``.

Every full solve is checked (no divergence, tracker identity, CSV shape, and
the RGT stop rule); a failed check counts as a failed operation. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--workload all`` runs each workload in its own
child process, one after another, so each reports its own peak memory.

The program under test is imported from ``src/`` next to this directory;
the benchmark exits with code 2 when it is not there.
"""

from __future__ import annotations

import os
import sys

# The BLAS thread count changes both speed and the last digits of the
# numerics (and so the trace fingerprint); pin it before numpy loads.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
os.environ.pop("QRGT_MNIST_PATH", None)  # would override the generated input

import argparse  # noqa: E402
import contextlib  # noqa: E402
import dataclasses  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import threading  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    check_solve,
    epochs_to_target,
    plateau_ds,
    write_mnist_fixture,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WARMUP_EPOCHS = 20
ALLOC_PASS_EPOCHS = 20
HOP_SECONDS = 0.25
# share of the fastest epoch windows, and of set-ups, that the times average
FAST_SHARE = 0.02
# stretches of the epoch range that each get their own fast-window average
POSITION_BLOCKS = 5


def _load_program():
    """Import qrgt from ROOT/src, never from an installed copy."""
    src = ROOT / "src"
    if not (src / "qrgt" / "__init__.py").is_file():
        print(f"error: program sources not found under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"qrgt.{m}") for m in ("cli", "config", "engine", "network", "problems")}
    if not Path(mods["engine"].__file__).resolve().is_relative_to(src.resolve()):
        print(f"error: qrgt was imported from {mods['engine'].__file__}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return argparse.Namespace(**mods)


def setup_layers(prog):
    """(owner, attribute, layer) for the builders a set-up goes through."""
    return (
        (prog.config, "build_problem", "problems.build"),
        (prog.problems, "make_instance", "problems.make_instance"),
        (prog.network, "build_metropolis", "network.build_metropolis"),
    )


def solve_layers(prog):
    """(owner, attribute, layer) for the names run() and the epoch look up.

    The quantizer arithmetic and the per-agent dither streams are inlined in
    the engine, so they are traced through its quantize_all and _agent_rng.
    """
    eng = prog.engine
    return (
        (eng, "run", "engine.run"),
        (eng, "mix", "network.mix"),
        (eng, "tangent_project", "stiefel.tangent_project"),
        (eng, "penalty_grad", "stiefel.penalty_grad"),
        (eng, "retract", "stiefel.retract"),
        (eng, "evaluate", "metrics.evaluate"),
        (eng._Engine, "local_grads", "engine.local_grads"),
        (eng._Engine, "quantize_all", "quantizers.quantize"),
        (eng._Engine, "_agent_rng", "engine.dither_reset"),
        (prog.cli, "write_trace_csv", "cli.write_csv"),
    )


def machine_info() -> dict:
    def first_line(path, prefix=""):
        try:
            for line in Path(path).read_text().splitlines():
                if line.startswith(prefix):
                    return line.split(":", 1)[-1].strip()
        except OSError:
            pass
        return "unknown"

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu_model": first_line("/proc/cpuinfo", "model name"),
        "l3": first_line("/sys/devices/system/cpu/cpu0/cache/index3/size"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
    }


@dataclasses.dataclass
class Solve:
    epochs: int
    seconds: float
    # run() start, one stamp per epoch, run() end
    stamps: list[float]
    traced: bool


@contextlib.contextmanager
def hopping_cpus():
    """Move the calling thread to the next allowed CPU every HOP_SECONDS.

    On a shared 2-vCPU VM (Xeon, 2.0 GHz) each vCPU switches, independently
    of the other, between speed states up to 2.2x apart that last from
    seconds to about a minute. Left alone, the scheduler keeps a busy thread
    on one vCPU for a whole run; hopping makes every run sample both.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def hop():
        hops = 0
        while not stop.wait(HOP_SECONDS):
            hops += 1
            os.sched_setaffinity(tid, {cpus[hops % len(cpus)]})

    hopper = threading.Thread(target=hop, name="cpu-hopper", daemon=True)
    hopper.start()
    try:
        yield
    finally:
        stop.set()
        hopper.join()
        os.sched_setaffinity(tid, cpus)


def fast_mean(values, share: float) -> float:
    """Mean of the fastest ``share`` of ``values`` (at least one)."""
    ordered = np.sort(np.asarray(values, dtype=float), axis=None)
    return float(ordered[: max(1, round(share * ordered.size))].mean())


def robust_times(solves: list[Solve], window: int) -> tuple[float, float]:
    """(solve seconds, epoch seconds) for the solves of one run.

    Within a run the same epoch also takes up to twice as long from one
    quarter second to the next, so a whole solve's wall time measures the
    neighbours' load as much as the code: the fastest of a run's solves
    moved by more than a third between batches of the same code. The epoch
    loop is therefore cut, in each solve, into windows of ``window``
    consecutive epochs (a few ms of work), and each fifth of the epoch range
    (POSITION_BLOCKS) is timed by the mean of its fastest FAST_SHARE of
    windows over all solves. Every epoch's work is inside some window, so
    work added to one epoch in ``window``, or to late epochs only, still
    moves the figure; a single fastest epoch would hide both. The solve
    time is the fastest head-plus-tail of run() (before the first and after
    the last epoch stamp) plus that loop time for every later epoch, and
    the epoch time is the solve time over the epochs run.
    """
    epochs = solves[0].epochs
    if len(solves[0].stamps) < 3 + window:  # no epoch clock: whole solves
        fastest = min(x.seconds for x in solves)
        return fastest, fastest / epochs
    loops = np.array([np.diff(x.stamps[1:-1][::window]) / window for x in solves])
    blocks = np.array_split(loops, min(POSITION_BLOCKS, loops.shape[1]), axis=1)
    loop_s = sum(fast_mean(b, FAST_SHARE) * b.shape[1] for b in blocks) / loops.shape[1]
    ends = min(x.stamps[1] - x.stamps[0] + x.stamps[-1] - x.stamps[-2] for x in solves)
    solve_s = ends + (epochs - 1) * loop_s
    return solve_s, solve_s / epochs


class Bench:
    """One workload at one seed: set-up, solves, checks, metrics."""

    def __init__(self, prog, workload, seed: int):
        self.prog = prog
        self.wl = workload
        self.seed = seed
        self.attempted = 0  # set-ups and full solves, each checked
        self.failed = 0
        self.failures: list[str] = []
        self.fingerprint: str | None = None
        # the first solve's trace; later ones are checked against its fingerprint
        # and dropped, so resident memory does not grow with the solve count
        self.trace = None
        self.setup = None  # (RunConfig, ProblemInstance, Topology, AlgoConfig)
        self.csv_path = OUT / f"{workload.name}-trace.csv"
        self.idx_path = OUT / f"{workload.name}-images.idx3" if workload.preset == "mnist" else None

    # -- set-up ------------------------------------------------------------
    def prepare_input(self) -> None:
        if self.idx_path is not None:
            write_mnist_fixture(self.idx_path, self.seed)

    def set_up(self):
        """Config, problem, topology, step size and mixing matrix, as a user builds them."""
        config = self.prog.config
        self.attempted += 1
        overrides = {"seed": self.seed, **self.wl.overrides}
        if self.idx_path is not None:
            overrides["mnist_path"] = str(self.idx_path)
        cfg = config.parse_config(preset=self.wl.preset, overrides=overrides)
        inst = config.build_problem(cfg)
        topology = config.build_topology(cfg)
        acfg = config.algo_config(cfg, inst)
        mixing = self.prog.network.build_metropolis(topology, acfg.t)
        if not 0.0 <= mixing.sigma2 < 1.0:
            self.fail(f"set-up: mixing sigma2 {mixing.sigma2} outside [0, 1)")
        return cfg, inst, topology, acfg

    def timed_set_ups(self, times: list[float]) -> None:
        """Run the workload's set-up repeats, appending each wall time; keeps the last set-up."""
        for _ in range(self.wl.setup_repeats):
            self.setup = None  # release the previous instance before building the next
            tic = perf_counter()
            self.setup = self.set_up()
            times.append(perf_counter() - tic)

    # -- solves --------------------------------------------------------------
    def warm_up(self) -> None:
        cfg, inst, topology, acfg = self.setup
        self.prog.engine.run(inst, topology, dataclasses.replace(acfg, max_epochs=WARMUP_EPOCHS))

    def solve(self, tracer=None) -> Solve:
        """One full run() plus the CSV write, with a timestamp at every epoch.

        The epoch clock records the time of each call to the ``evaluate``
        that run() looks up once per epoch, so consecutive stamps bound one
        whole iteration of the epoch loop. With a tracer, the layers are
        wrapped for this solve only.
        """
        cfg, inst, topology, acfg = self.setup
        eng = self.prog.engine
        stamps: list[float] = []
        if tracer is not None:
            for owner, attr, layer in solve_layers(self.prog):
                tracer.wrap(owner, attr, layer)
        evaluate = eng.__dict__.get("evaluate")
        if evaluate is not None:
            def clocked(*args, **kwargs):
                stamps.append(perf_counter())
                return evaluate(*args, **kwargs)

            eng.evaluate = clocked
        try:
            tic = perf_counter()
            trace = eng.run(inst, topology, acfg)
            toc = perf_counter()
            self.prog.cli.write_trace_csv(self.csv_path, cfg, trace)
        finally:
            if evaluate is not None:
                eng.evaluate = evaluate
            if tracer is not None:
                tracer.restore()
        self.check(trace, cfg)
        if self.trace is None:
            self.trace = trace
        return Solve(len(trace.rows), toc - tic, [tic, *stamps, toc], tracer is not None)

    def check(self, trace, cfg) -> None:
        self.attempted += 1
        csv_text = self.csv_path.read_text()
        failures = check_solve(self.wl, trace, cfg.ds_tol, csv_text)
        # The '#' comment lines echo the config, input path included; hash
        # only the header and rows so the digest depends on the numerics alone.
        numerics = "".join(ln for ln in csv_text.splitlines(keepends=True) if not ln.startswith("#"))
        digest = hashlib.sha256(numerics.encode()).hexdigest()
        if self.fingerprint is None:
            self.fingerprint = digest
        elif digest != self.fingerprint:
            failures.append(f"trace CSV sha256 {digest} differs from the first solve's {self.fingerprint}")
        if failures:
            self.fail("solve: " + "; ".join(failures))

    def fail(self, reason: str) -> None:
        self.failed += 1
        self.failures.append(reason)

    def solves_for(self, seconds: float, tracers: tuple, min_solves: int, setup_times=None):
        """Run solves, cycling through ``tracers`` (None for untraced), for ``seconds`` of solving.

        A new solve starts only when the previous one would still fit, but at
        least ``min_solves`` run. With ``setup_times``, the set-up is rebuilt
        and timed again after the solves that pass one and two thirds of the
        time, so set-up is sampled across the run rather than at one moment.
        Returns the solves.
        """
        done: list[Solve] = []
        solved, marks = 0.0, [seconds / 3, 2 * seconds / 3]
        while len(done) < min_solves or solved + done[-1].seconds <= seconds:
            done.append(self.solve(tracers[len(done) % len(tracers)]))
            solved += done[-1].seconds
            if setup_times is not None and marks and solved >= marks[0]:
                marks.pop(0)
                self.timed_set_ups(setup_times)
        return done

    # -- end-to-end ----------------------------------------------------------
    def end_to_end(self, seconds: float) -> dict:
        self.prepare_input()
        setup_times: list[float] = []
        self.timed_set_ups(setup_times)
        self.warm_up()
        solves = self.solves_for(seconds, (None,), min_solves=3, setup_times=setup_times)
        print(f"set-ups: {len(setup_times)}, wall seconds {[round(t, 4) for t in setup_times]}")
        solve_s, epoch_s = robust_times(solves, self.wl.window_epochs)
        trace = self.trace
        print(f"solves: {len(solves)} of {len(trace.rows)} epochs, wall seconds {[round(x.seconds, 4) for x in solves]}")
        return {
            "setup_s": (fast_mean(setup_times, FAST_SHARE), "s"),
            "solve_s": (solve_s, "s"),
            "epoch_us": (epoch_s * 1e6, "us"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "plateau_ds": (plateau_ds(trace), "1"),
        }

    # -- per layer -----------------------------------------------------------
    def per_layer(self, seconds: float) -> dict:
        prog = self.prog
        self.prepare_input()
        setup_tracer = Tracer()
        for owner, attr, layer in setup_layers(prog):
            setup_tracer.wrap(owner, attr, layer)
        try:
            self.timed_set_ups([])
        finally:
            setup_tracer.restore()

        tracer = Tracer()
        self.warm_up()
        solves = self.solves_for(seconds, (None, tracer), min_solves=2)
        trace = self.trace
        epochs = len(trace.rows)
        plain = [x for x in solves if not x.traced]
        traced = [x for x in solves if x.traced]
        traced_epochs = epochs * len(traced)
        OUT.mkdir(exist_ok=True)
        tracer.write_csv(OUT / f"{self.wl.name}-spans.csv")
        setup_table, table = setup_tracer.table(), tracer.table()

        def per_call(table, layer, scale):
            durs = table["dur"][table["name"] == layer]
            return float(np.median(durs)) * scale if durs.size else 0.0

        def per_epoch_us(layer):
            return float(table["self"][table["name"] == layer].sum()) / traced_epochs / 1e3

        def calls_per_epoch(layer):
            return int((table["name"] == layer).sum()) / traced_epochs

        inst = self.setup[1]
        n, d, r = inst.n_agents, inst.dims.d, inst.dims.r
        grads_bytes = n * d * d * 8
        grads = table["name"] == "engine.local_grads"
        _, plain_epoch_s = robust_times(plain, self.wl.window_epochs)
        _, traced_epoch_s = robust_times(traced, self.wl.window_epochs)
        out_of_range, codes = self.tally_codes()
        alloc_mb = self.allocation_pass()
        for name in setup_tracer.absent + tracer.absent:
            print(f"absent: {name} no longer exists; its time is in its caller's self time")
        return {
            "problems.build_s": (per_call(setup_table, "problems.build", 1e-9), "s"),
            "problems.make_instance_s": (per_call(setup_table, "problems.make_instance", 1e-9), "s"),
            "network.build_metropolis_ms": (per_call(setup_table, "network.build_metropolis", 1e-6), "ms"),
            "network.mix_us": (per_epoch_us("network.mix"), "us"),
            "network.mix_calls": (calls_per_epoch("network.mix"), "count"),
            "engine.local_grads_us": (per_epoch_us("engine.local_grads"), "us"),
            "engine.local_grads_bytes": (grads_bytes, "B"),
            "engine.local_grads_flops": (2 * n * d * d * r, "flop"),
            "engine.local_grads_gbps": (
                grads_bytes * int(grads.sum()) / float(table["dur"][grads].sum()) if grads.any() else 0.0,
                "GB/s",
            ),
            "stiefel.tangent_project_us": (per_epoch_us("stiefel.tangent_project"), "us"),
            "stiefel.penalty_grad_us": (per_epoch_us("stiefel.penalty_grad"), "us"),
            "stiefel.retract_us": (per_epoch_us("stiefel.retract"), "us"),
            "stiefel.retract_calls": (calls_per_epoch("stiefel.retract"), "count"),
            "quantizers.quantize_us": (per_epoch_us("quantizers.quantize"), "us"),
            "engine.dither_reset_us": (per_epoch_us("engine.dither_reset"), "us"),
            "quantizers.out_of_range_frac": (out_of_range / codes if codes else 0.0, "1"),
            "quantizers.codes_emitted": (codes, "count"),
            "metrics.evaluate_us": (per_epoch_us("metrics.evaluate"), "us"),
            "engine.self_us": (per_epoch_us("engine.run"), "us"),
            "engine.epochs_to_target": (epochs_to_target(trace, self.wl.target_ds), "count"),
            "engine.wire_bits_per_epoch": (
                (trace.final.wire_bits_cum - trace.rows[0].wire_bits_cum) / max(1, epochs - 1),
                "bit",
            ),
            "engine.peak_alloc_mb": (alloc_mb, "MB"),
            "cli.write_csv_ms": (per_call(table, "cli.write_csv", 1e-6), "ms"),
            "trace.overhead_frac": (traced_epoch_s / plain_epoch_s - 1.0, "1"),
            "trace.absent_layers": (len(setup_tracer.absent) + len(tracer.absent), "count"),
        }

    def tally_codes(self) -> tuple[int, int]:
        """Out-of-range codes and codes emitted over one full solve.

        The codes are recovered from quantize_all's returned values and
        scales: value = scale * (code / (2^N - 1) - 0.5).
        """
        acfg = self.setup[3]
        cls = self.prog.engine._Engine
        quantize_all = cls.__dict__.get("quantize_all")
        if quantize_all is None or acfg.algorithm != self.prog.engine.ALGO_QRGT:
            return 0, 0
        levels = (1 << acfg.bits) - 1
        counts = [0, 0, 0]  # out of range, emitted, quantize_all calls
        off_grid: list[int] = []

        def counting(*args, **kwargs):
            values, scales, ratios = quantize_all(*args, **kwargs)
            sent = scales > 0.0
            raw = (values[sent] / scales[sent, None, None] + 0.5) * levels
            codes = np.rint(raw)
            if np.abs(raw - codes).max(initial=0.0) > 1e-6:
                off_grid.append(counts[2])
            counts[0] += int(((codes < 0) | (codes > levels)).sum())
            counts[1] += codes.size
            counts[2] += 1
            return values, scales, ratios

        cls.quantize_all = counting
        try:
            self.solve()
        finally:
            cls.quantize_all = quantize_all
        if off_grid:
            self.fail(f"code tally: values off the {acfg.bits}-bit code grid in calls {off_grid[:5]}")
        return counts[0], counts[1]

    def allocation_pass(self) -> float:
        """Peak MB traced by tracemalloc during a short run().

        The instance is built under tracing too, so the peak counts what it
        holds (the per-agent Grams among it) plus the engine's own arrays.
        """
        self.setup = None
        tracemalloc.start()
        try:
            cfg, inst, topology, acfg = self.set_up()
            tracemalloc.reset_peak()
            self.prog.engine.run(inst, topology, dataclasses.replace(acfg, max_epochs=ALLOC_PASS_EPOCHS))
            return tracemalloc.get_traced_memory()[1] / 2**20
        finally:
            tracemalloc.stop()


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps(
        {
            "correct": correct,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }
    )


def run_one(args) -> int:
    prog = _load_program()
    bench = Bench(prog, WORKLOADS[args.workload], args.seed)
    info = machine_info()
    print("machine: " + ", ".join(f"{k}={v}" for k, v in info.items()))
    OUT.mkdir(exist_ok=True)
    try:
        with hopping_cpus():
            metrics = bench.per_layer(args.seconds) if args.trace else bench.end_to_end(args.seconds)
    finally:
        if bench.idx_path is not None:
            bench.idx_path.unlink(missing_ok=True)
    for failure in bench.failures:
        print(f"FAILED {failure}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:16s} {name:30s} {value:>16.6g} {unit}")
    print(f"trace_sha256 {args.workload} seed={args.seed} {bench.fingerprint}")
    failed = min(bench.failed, bench.attempted)
    print(result_line(not bench.failures, bench.attempted, failed, metrics))
    return 0


def run_all(args) -> int:
    """Each workload in its own child process, one at a time; one combined result."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        sys.stdout.write("".join(proc.stdout.splitlines(keepends=True)[:-1]))
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"error: workload {name} exited with {proc.returncode}", file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.splitlines()[-1])
        correct &= result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, v in result["metrics"].items():
            metrics[f"{name}.{metric}"] = (v["value"], v["unit"])
    print(result_line(correct, attempted, failed, metrics))
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0, help="measuring time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
