import dataclasses
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qrgt import cli
from qrgt.cli import CSV_HEADER, execute, main, sweep, write_trace_csv
from qrgt.config import (
    ConfigError,
    PRESETS,
    RunConfig,
    algo_config,
    build_problem,
    build_topology,
    effective_alpha,
    parse_config,
)
from qrgt.engine import BLOCK
from qrgt.network import Topology

from reference import reference_trace_csv
from test_problems import write_idx3


@pytest.fixture
def no_run(monkeypatch):
    """Fail the test if a run starts building its problem."""

    def refuse(cfg):
        raise AssertionError("the run started")

    monkeypatch.setattr(cli, "build_problem", refuse)


def tiny_overrides(tmp_path, **extra):
    base = dict(
        problem="synthetic",
        n=4,
        m=20,
        d=6,
        r=2,
        eigengap=0.6,
        leading_sv=2.0,
        alpha_hat=0.05,
        max_epochs=5,
        ds_tol=0.0,
        out=str(tmp_path / "trace.csv"),
    )
    base.update(extra)
    return base


class TestParseConfig:
    def test_defaults(self):
        cfg = parse_config()
        assert cfg.problem == "synthetic"
        assert cfg.bits == 8

    def test_synthetic_preset_expansion(self):
        assert parse_config(preset="synthetic") == RunConfig(
            problem="synthetic", n=16, m=1000, d=10, r=5, eigengap=0.8, leading_sv=300.0,
            topology="ring", t=1, alpha_hat=0.01, max_epochs=10000, ds_tol=1e-8, bits=8,
            algorithm="qrgt", seed=0, preset="synthetic",
        )

    def test_mnist_preset_expansion(self, monkeypatch):
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        assert parse_config(preset="mnist") == RunConfig(
            problem="mnist", n=16, r=5, topology="ring", t=1, alpha_hat=0.01, max_epochs=2000,
            ds_tol=1e-8, bits=8, algorithm="qrgt", seed=0, preset="mnist",
        )

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_preset_holds_only_departures(self, name):
        defaults = RunConfig()
        assert PRESETS[name]
        assert {key: value for key, value in PRESETS[name].items() if getattr(defaults, key) == value} == {}

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="preset"):
            parse_config(preset="figure-two")

    def test_file_parsing_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# experiment\nbits = 4\nseed = 7  # inline comment\n\nalpha_hat = 0.5\n")
        cfg = parse_config(file=path)
        assert cfg.bits == 4
        assert cfg.seed == 7
        assert cfg.alpha_hat == 0.5

    @pytest.mark.parametrize(
        "line",
        ["bitz = 4", "retraction = qr", "enforce_safety = true"],
        ids=["bitz", "retraction", "enforce_safety"],
    )
    def test_unknown_file_key(self, tmp_path, line):
        path = tmp_path / "run.cfg"
        path.write_text(line + "\n")
        key = line.split()[0]
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(file=path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bits 4\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config(file=path)

    def test_flag_overrides_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bits = 2\n")
        cfg = parse_config(file=path, overrides={"bits": 8})
        assert cfg.bits == 8

    def test_file_overrides_preset(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("preset = synthetic\nmax_epochs = 50\n")
        cfg = parse_config(file=path)
        assert cfg.max_epochs == 50
        assert cfg.m == 1000  # rest of the preset intact

    @pytest.mark.parametrize(
        "key,value,fragment",
        [
            ("bits", 0, "bits"),
            ("bits", 33, "bits"),
            ("eigengap", 1.0, "eigengap"),
            ("eigengap", 0.0, "eigengap"),
            ("alpha_hat", -1.0, "alpha_hat"),
            ("topology", "mesh", "topology"),
            ("algorithm", "sgd", "algorithm"),
            ("ds_tol", -1e-9, "ds_tol"),
            ("t", 0, "t"),
        ],
    )
    def test_named_validation_errors(self, key, value, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(overrides={key: value})

    @pytest.mark.parametrize(
        "key, value, error",
        [
            ("n", 2.5, "n: expected int, got 2.5"),
            ("bits", True, "bits: expected int, got True"),
            ("seed", 1.0, "seed: expected int, got 1.0"),
            ("timing", 1, "timing: expected bool, got 1"),
            ("algorithm", 7, "algorithm: expected str, got 7"),
        ],
    )
    def test_typed_override_must_have_its_type(self, key, value, error):
        with pytest.raises(ConfigError, match=f"^{re.escape(error)}$"):
            parse_config(overrides={"m": 20, "d": 6, "r": 2, key: value})

    def test_typed_override_of_its_type_is_kept(self):
        cfg = parse_config(overrides={"n": 4, "alpha_hat": 1, "timing": True, "seed": None})
        assert (cfg.n, cfg.timing, cfg.seed) == (4, True, 0)
        assert cfg.alpha_hat == 1.0 and type(cfg.alpha_hat) is float

    def test_bool_coercion(self, tmp_path):
        path = tmp_path / "run.cfg"
        for raw, value in [("yes", True), ("on", True), ("false", False), ("0", False)]:
            path.write_text(f"timing = {raw}\n")
            assert parse_config(file=path).timing is value

    def test_every_default_round_trips_through_a_file(self, tmp_path):
        # each key is coerced by the type RunConfig declares for it
        path = tmp_path / "defaults.cfg"
        defaults = RunConfig()
        path.write_text(
            "".join(f"{f.name} = {getattr(defaults, f.name)}\n" for f in dataclasses.fields(RunConfig))
        )
        assert parse_config(file=path) == defaults


class TestBuilders:
    def test_effective_alpha_synthetic(self):
        cfg = parse_config(preset="synthetic")
        inst = build_problem(cfg)
        assert effective_alpha(cfg, inst.total_rows) == pytest.approx(16 * 0.01 / 16000)

    def test_effective_alpha_mnist(self, tmp_path):
        path = tmp_path / "img.idx3"
        rng = np.random.default_rng(0)
        write_idx3(path, rng.integers(0, 256, size=(60, 4, 4), dtype=np.uint8))
        cfg = parse_config(overrides={"problem": "mnist", "mnist_path": str(path), "n": 4, "r": 2})
        inst = build_problem(cfg)
        assert effective_alpha(cfg, inst.total_rows) == pytest.approx(0.01 / 60)

    def test_mnist_env_var_override(self, tmp_path, monkeypatch):
        path = tmp_path / "img.idx3"
        rng = np.random.default_rng(1)
        write_idx3(path, rng.integers(0, 256, size=(40, 3, 3), dtype=np.uint8))
        monkeypatch.setenv("QRGT_MNIST_PATH", str(path))
        cfg = parse_config(overrides={"problem": "mnist", "n": 4, "r": 2})
        inst = build_problem(cfg)
        assert inst.total_rows == 40

    @staticmethod
    def two_idx_files(tmp_path):
        """a.idx3 with 60 images and b.idx3 with 64, both 4x5 pixels."""
        rng = np.random.default_rng(2)
        paths = tmp_path / "a.idx3", tmp_path / "b.idx3"
        for path, count in zip(paths, (60, 64)):
            write_idx3(path, rng.integers(0, 256, size=(count, 4, 5), dtype=np.uint8))
        return paths

    @pytest.mark.parametrize("via", ["flag", "file"])
    def test_set_mnist_path_beats_env_var(self, tmp_path, monkeypatch, via):
        a, b = self.two_idx_files(tmp_path)
        monkeypatch.setenv("QRGT_MNIST_PATH", str(b))
        if via == "flag":
            cfg = parse_config(overrides={"problem": "mnist", "mnist_path": str(a), "n": 4, "r": 2})
        else:
            path = tmp_path / "run.cfg"
            path.write_text(f"problem = mnist\nmnist_path = {a}\nn = 4\nr = 2\n")
            cfg = parse_config(file=path)
        assert cfg.mnist_path == str(a)
        assert build_problem(cfg).total_rows == 60

    def test_env_var_fills_unset_mnist_path(self, tmp_path, monkeypatch):
        _, b = self.two_idx_files(tmp_path)
        monkeypatch.setenv("QRGT_MNIST_PATH", str(b))
        cfg = parse_config(preset="mnist", overrides={"n": 4, "r": 2})
        assert cfg.mnist_path == str(b)
        assert build_problem(cfg).total_rows == 64
        assert parse_config(preset="synthetic").mnist_path == ""

    def test_csv_names_the_file_read(self, tmp_path, monkeypatch):
        a, b = self.two_idx_files(tmp_path)
        args = ["run", "--preset", "mnist", "--n", "4", "--max-epochs", "3", "--mnist-path", str(a)]
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        assert main(args + ["--out", str(tmp_path / "alone.csv")]) == 0
        monkeypatch.setenv("QRGT_MNIST_PATH", str(b))
        assert main(args + ["--out", str(tmp_path / "with_env.csv")]) == 0
        alone = (tmp_path / "alone.csv").read_text()
        assert f"# mnist_path = {a}\n" in alone
        assert (tmp_path / "with_env.csv").read_text().replace("with_env.csv", "alone.csv") == alone

    def test_mnist_path_missing(self, monkeypatch):
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        cfg = parse_config(overrides={"problem": "mnist"})
        with pytest.raises(ConfigError, match="mnist_path"):
            build_problem(cfg)

    def test_topologies(self, tmp_path):
        ring = build_topology(parse_config(overrides={"topology": "ring", "n": 6}))
        assert ring.edges == Topology.ring(6).edges
        complete = build_topology(parse_config(overrides={"topology": "complete", "n": 5}))
        assert complete.edges == Topology.complete(5).edges
        er = build_topology(parse_config(overrides={"topology": "er", "n": 12, "seed": 4}))
        assert er.edges not in (Topology.ring(12).edges, Topology.complete(12).edges)
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        cfg = parse_config(overrides={"topology": "edges", "edge_file": str(edges), "n": 3})
        assert build_topology(cfg).n == 3

    def test_er_topology_seed_deterministic(self):
        a = build_topology(parse_config(overrides={"topology": "er", "n": 12, "seed": 4}))
        b = build_topology(parse_config(overrides={"topology": "er", "n": 12, "seed": 4}))
        assert a.edges == b.edges

    def test_algo_config_fields(self):
        cfg = parse_config(overrides={"algorithm": "rgt", "bits": 3})
        inst = build_problem(parse_config(overrides=dict(n=4, m=20, d=6, r=2)))
        ac = algo_config(cfg, inst)
        assert ac.algorithm == "rgt"
        assert ac.bits == 3


class TestExecute:
    def test_csv_schema_and_exit(self, tmp_path):
        cfg = parse_config(overrides=tiny_overrides(tmp_path))
        code, trace = execute(cfg)
        assert code == 0
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        comments = [ln for ln in lines if ln.startswith("#")]
        assert any("alpha_hat = 0.05" in c for c in comments)
        header_idx = lines.index(CSV_HEADER)
        data = lines[header_idx + 1 :]
        assert len(data) == len(trace.rows) == 5
        assert data[0].split(",")[0] == "1"

    def test_byte_identical_reruns(self, tmp_path):
        cfg = parse_config(overrides=tiny_overrides(tmp_path, seed=13))
        execute(cfg)
        first = (tmp_path / "trace.csv").read_bytes()
        execute(cfg)
        assert (tmp_path / "trace.csv").read_bytes() == first

    def test_wall_ms_zero_without_timing(self, tmp_path):
        cfg = parse_config(overrides=tiny_overrides(tmp_path))
        execute(cfg)
        lines = (tmp_path / "trace.csv").read_text().splitlines()
        row = lines[lines.index(CSV_HEADER) + 1].split(",")
        assert row[6] == "0.0"

    def test_diverged_exit_code(self, tmp_path, capsys):
        cfg = parse_config(overrides=tiny_overrides(tmp_path, alpha_hat=1e9, max_epochs=100))
        code, trace = execute(cfg)
        assert code == 3
        assert trace.termination == "Diverged"
        # one line names the epoch, the first agent that tripped and the check
        epoch = len(trace.rows) + 1
        line = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("diverged at")]
        assert line == [trace.divergence]
        assert re.fullmatch(
            rf"diverged at epoch {epoch}: agent \d+ has "
            r"(non-finite entries|norm \S+ > 1e3\*sqrt\(r\) = 1414)",
            trace.divergence,
        )


class TestTraceCsv:
    """write_trace_csv gives the bytes of the row-by-row writer it replaced."""

    @pytest.mark.parametrize(
        "overrides, epochs",
        [
            pytest.param(dict(preset="synthetic", max_epochs=5000), 5000, id="qrgt"),
            pytest.param(dict(preset="synthetic", algorithm="rgt"), None, id="rgt-to-its-stop"),
            pytest.param(dict(alpha_hat=30.0, max_epochs=100), 6, id="diverged-partial"),
            pytest.param(dict(alpha_hat=1e9, max_epochs=100), 0, id="diverged-before-epoch-1"),
            pytest.param(dict(timing=True, max_epochs=20), 20, id="timing"),
        ],
    )
    def test_bytes_match_reference(self, tmp_path, overrides, epochs):
        preset = overrides.pop("preset", None)
        if preset is None:
            overrides = tiny_overrides(tmp_path, **overrides)
        cfg = parse_config(preset=preset, overrides={**overrides, "out": str(tmp_path / "trace.csv")})
        with np.errstate(all="ignore"):
            _, trace = execute(cfg)
        if epochs is None:
            assert trace.termination == "DsTolerance"
        else:
            assert len(trace.rows) == epochs
        expected = reference_trace_csv(cfg, trace)
        assert (tmp_path / "trace.csv").read_bytes() == expected.encode()
        if cfg.timing:
            rows = expected.split(CSV_HEADER + "\n")[1].splitlines()
            assert all(float(row.split(",")[6]) > 0.0 for row in rows)


class TestSweep:
    def test_bits_sweep_writes_index(self, tmp_path):
        cfg = parse_config(overrides=tiny_overrides(tmp_path, seed=3))
        code = sweep(cfg, "bits", ["2", "4"])
        assert code == 0
        assert (tmp_path / "trace-bits2.csv").exists()
        assert (tmp_path / "trace-bits4.csv").exists()
        index = (tmp_path / "trace-index.csv").read_text().splitlines()
        assert index[0] == "value,final_ds,final_consensus_error,termination"
        assert len(index) == 3
        assert index[1].startswith("2,")
        assert index[1].endswith(",MaxEpochs")

    def test_single_value_sweep_matches_execute(self, tmp_path):
        cfg = parse_config(overrides=tiny_overrides(tmp_path, seed=5, bits=4))
        _, trace = execute(cfg)
        direct = (tmp_path / "trace.csv").read_text()
        sweep(cfg, "bits", ["4"])
        swept = (tmp_path / "trace-bits4.csv").read_text()
        strip = lambda text: [
            ln for ln in text.splitlines() if not ln.startswith("#")
        ]
        assert strip(direct) == strip(swept)

    def test_invalid_key(self, tmp_path):
        cfg = parse_config(overrides=tiny_overrides(tmp_path))
        with pytest.raises(ConfigError, match="sweep key"):
            sweep(cfg, "eigengap", ["0.5"])


class TestMain:
    def test_run_roundtrip(self, tmp_path):
        out = tmp_path / "cli.csv"
        code = main(
            [
                "run",
                "--preset",
                "synthetic",
                "--max-epochs",
                "2",
                "--ds-tol",
                "0",
                "--out",
                str(out),
                "--seed",
                "1",
            ]
        )
        assert code == 0
        assert out.exists()

    def test_huge_consensus_power_completes(self, tmp_path, capsys):
        # W^t is exact averaging here, and the run is no divergence.
        out = tmp_path / "t18.csv"
        code = main(["run", "--preset", "synthetic", "--t", str(10**18), "--max-epochs", "300", "--out", str(out)])
        assert code == 0
        assert "diverged" not in capsys.readouterr().out
        assert len(out.read_text().split(CSV_HEADER + "\n")[1].splitlines()) == 300

    def test_config_error_exit_2_no_partial_csv(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(["run", "--bits", "99", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "bits" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, key, value",
        [
            pytest.param(["--bits", "4"], "bits", 4, id="bits"),
            pytest.param(["--algo", "rgt"], "algorithm", "rgt", id="algo"),
            pytest.param(["--topology", "complete"], "topology", "complete", id="topology"),
            pytest.param(["--n", "6"], "n", 6, id="n"),
            pytest.param(["--t", "2"], "t", 2, id="t"),
            pytest.param(["--alpha-hat", "0.5"], "alpha_hat", 0.5, id="alpha-hat"),
            pytest.param(["--seed", "7"], "seed", 7, id="seed"),
            pytest.param(["--max-epochs", "9"], "max_epochs", 9, id="max-epochs"),
            pytest.param(["--ds-tol", "1e-3"], "ds_tol", 1e-3, id="ds-tol"),
            pytest.param(["--out", "flag.csv"], "out", "flag.csv", id="out"),
            pytest.param(["--mnist-path", "img.idx3"], "mnist_path", "img.idx3", id="mnist-path"),
            pytest.param(["--timing"], "timing", True, id="timing"),
        ],
    )
    def test_flag_lands_in_its_field(self, monkeypatch, flags, key, value):
        resolved = []

        def fake_execute(cfg):
            resolved.append(cfg)
            return 0, None

        monkeypatch.setattr(cli, "execute", fake_execute)
        assert main(["run", *flags]) == 0
        assert resolved == [dataclasses.replace(RunConfig(), **{key: value})]

    @pytest.mark.parametrize(
        "args, line, error",
        [
            (["run", "--bits", "x"], "", "bits: expected int, got 'x'"),
            (["run", "--n", "2.5"], "", "n: expected int, got '2.5'"),
            (["run", "--alpha-hat", "abc"], "", "alpha_hat: expected float, got 'abc'"),
            (["run", "--algo", "sgd"], "", "algorithm: must be one of qrgt, rgt, got 'sgd'"),
            (["run", "--topology", "mesh"], "", "topology: unknown kind 'mesh', available: ring, er, complete, edges"),
            (["sweep", "--key", "foo", "--values", "1"], "",
             "sweep key must be one of ['alpha_hat', 'bits', 'n', 't', 'topology_p'], got 'foo'"),
            (["run"], "timing = maybe\n", "timing: expected bool, got 'maybe'"),
            (["sweep", "--key", "t", "--values", "1,x"], "", "t: expected int, got 'x'"),
            (["run"], "problem = x\n", "problem: unknown kind 'x', available: synthetic, mnist"),
        ],
        ids=["bits", "n", "alpha-hat", "algo", "topology", "sweep-key", "file-line", "sweep-value", "problem"],
    )
    def test_malformed_value_exit_2_one_line(self, tmp_path, capsys, no_run, args, line, error):
        # a flag is read as a config line is, and fails the same way
        path = tmp_path / "run.cfg"
        path.write_text(line)
        code = main([*args, "--config", str(path), "--out", str(tmp_path / "never.csv")])
        assert code == 2
        assert list(tmp_path.iterdir()) == [path]
        assert capsys.readouterr().err.splitlines() == [f"error: {error}"]

    @pytest.mark.parametrize(
        "args",
        [["run", "--bits"], ["run", "--bitz", "4"], ["sweep", "--values", "1"], ["run", "--timing=yes"], []],
        ids=["missing-value", "unknown-flag", "missing-key", "value-for-switch", "no-command"],
    )
    def test_flag_syntax_error_exit_2_one_line(self, capsys, no_run, args):
        # argparse's own errors print the one error: line, with no usage block
        assert main(args) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    def test_help_lists_every_choice(self, capsys, command):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        usage = capsys.readouterr().out
        for choices in ["{synthetic,mnist}", "{qrgt,rgt}", "{ring,er,complete,edges}"]:
            assert choices in usage
        assert ("{bits,alpha_hat,t,topology_p,n}" in usage) is (command == "sweep")

    def test_diverging_run_prints_no_numpy_warning(self, tmp_path):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = tmp_path / "d.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "qrgt.cli", "run", "--preset", "synthetic",
             "--alpha-hat", "1e300", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stderr == ""
        assert proc.stdout.splitlines()[-1].startswith("diverged at epoch 1: ")

    @pytest.mark.parametrize(
        "lines, fragment",
        [
            ("topology = edges\nedge_file = {tmp}/token.txt\n", "token.txt:2: expected 'i j', got '1 two'"),
            ("topology = edges\nedge_file = {tmp}/split.txt\n", "graph is not connected"),
            ("topology = er\ntopology_p = 1e-6\n", "no connected Erdos-Renyi draw in 1000 attempts"),
            ("problem = mnist\nmnist_path = {tmp}/short.idx3\n", "expected 336 bytes"),
            ("topology = edges\nedge_file = {tmp}/latin1.txt\n", "latin1.txt: not UTF-8 text at byte 4"),
        ],
        ids=["edge-token", "disconnected-edges", "er-never-connects", "truncated-idx", "edge-not-utf8"],
    )
    def test_bad_input_exit_2_one_line_no_csv(self, tmp_path, capsys, monkeypatch, lines, fragment):
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        (tmp_path / "token.txt").write_text("0 1\n1 two\n")
        (tmp_path / "split.txt").write_text("0 1\n2 3\n")
        (tmp_path / "latin1.txt").write_bytes(b"0 1\n\xff 2\n")
        idx = tmp_path / "short.idx3"
        write_idx3(idx, np.zeros((20, 4, 4), dtype=np.uint8))
        idx.write_bytes(idx.read_bytes()[:-5])
        path = tmp_path / "bad.cfg"
        path.write_text(
            "problem = synthetic\nn = 4\nm = 20\nd = 6\nr = 2\nmax_epochs = 2\n"
            + lines.format(tmp=tmp_path)
        )
        out = tmp_path / "never.csv"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and fragment in err[0]

    def test_fewer_images_than_agents_exit_2_no_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        idx = tmp_path / "ten.idx3"
        write_idx3(idx, np.zeros((10, 4, 4), dtype=np.uint8))
        out = tmp_path / "never.csv"
        code = main(["run", "--preset", "mnist", "--mnist-path", str(idx), "--n", "16", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "10 images for 16 agents" in err[0]

    @pytest.mark.parametrize(
        "key, value",
        [
            ("r", "20"), ("r", "0"), ("d", "0"), ("m", "0"), ("leading_sv", "-1"),
            ("leading_sv", "nan"), ("leading_sv", "inf"), ("alpha_hat", "nan"), ("alpha_hat", "inf"),
            ("ds_tol", "nan"), ("seed", "-1"), ("leading_sv", "1e200"),
            ("alpha_hat", "1e308"), ("alpha_hat", "1e-322"),
        ],
    )
    def test_out_of_range_size_exit_2_no_csv(self, tmp_path, capsys, key, value):
        path = tmp_path / "bad.cfg"
        path.write_text(f"preset = synthetic\n{key} = {value}\n")
        out = tmp_path / "never.csv"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"error: {key}: ")

    def test_config_not_utf8_exit_2_no_csv(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(b"preset = synthetic\n# caf\xe9\n")
        out = tmp_path / "never.csv"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {path}: not UTF-8 text at byte 24"]

    def test_rank_above_image_size_exit_2_no_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        idx = tmp_path / "big.idx3"
        write_idx3(idx, np.zeros((16, 28, 28), dtype=np.uint8))
        path = tmp_path / "bad.cfg"
        path.write_text(f"preset = mnist\nmnist_path = {idx}\nr = 900\n")
        out = tmp_path / "never.csv"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: r: ") and "image size 784" in err[0]

    @pytest.mark.parametrize("algo, payload", [("qrgt", True), ("rgt", False)])
    def test_summary_names_payload_for_qrgt_only(self, tmp_path, capsys, algo, payload):
        out = tmp_path / "s.csv"
        code = main(
            ["run", "--preset", "synthetic", "--algo", algo, "--max-epochs", "2", "--out", str(out)]
        )
        assert code == 0
        summary = capsys.readouterr().out.splitlines()
        assert len(summary) == 1
        assert summary[0].startswith("MaxEpochs after 2 epochs: final ds=")
        assert ("quantized payload" in summary[0]) is payload
        assert summary[0].endswith(f" -> {out}")

    def test_ds_stop_summary_counts_the_epochs_computed(self, tmp_path, capsys):
        # the stop is found in a block of ten epochs, so the run computes
        # the rest of the stop's block; the trace ends at the stop (seed 0 on
        # OpenBLAS: 4095 rows, 4100 epochs computed)
        out = tmp_path / "r.csv"
        code = main(["run", "--preset", "synthetic", "--algo", "rgt", "--out", str(out)])
        assert code == 0
        summary = capsys.readouterr().out.splitlines()
        rows = sum(1 for line in out.read_text().splitlines() if line[:1].isdigit())
        computed = -(-rows // BLOCK) * BLOCK  # the end of the stop's block
        assert len(summary) == 1
        assert summary[0].startswith(f"DsTolerance after {rows} epochs ({computed} computed): final ds=")
        assert summary[0].endswith(f" -> {out}")

    @pytest.mark.parametrize("flags", [["--n", "2"], ["--topology", "complete"]])
    def test_package_warning_is_one_line(self, tmp_path, capsys, flags):
        out = tmp_path / "w.csv"
        code = main(["run", "--preset", "synthetic", *flags, "--max-epochs", "20", "--out", str(out)])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            "warning: sigma_2 = 0 (uniform weights): consensus is exact in one step"
        ]
        assert captured.out.startswith("MaxEpochs after 20 epochs: ")

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("where", ["missing-dir", "a-dir"])
    def test_unwritable_out_exit_2_before_running(self, tmp_path, capsys, no_run, command, where):
        # a sweep writes <stem>-bits<value><suffix> for each value, never out itself
        a_dir = tmp_path / ("t.csv" if command == "run" else "t-bits8.csv")
        a_dir.mkdir()
        out = tmp_path / "missing" / "t.csv" if where == "missing-dir" else tmp_path / "t.csv"
        sweep_flags = ["--key", "bits", "--values", "2,8"] if command == "sweep" else []
        code = main([command, "--preset", "synthetic", "--out", str(out), *sweep_flags])
        assert code == 2
        assert list(tmp_path.rglob("*")) == [a_dir]
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: out: ")

    def test_sweep_repeated_value_exit_2_runs_nothing(self, tmp_path, capsys, no_run):
        # a value spelled twice would run the same configuration twice, too
        out = tmp_path / "s.csv"
        for key, values, line in [
            ("bits", "2,8,8", "8 and 8 are both bits = 8"),
            ("bits", "8,08", "8 and 08 are both bits = 8"),
            ("alpha_hat", "0.01,1e-2", "0.01 and 1e-2 are both alpha_hat = 0.01"),
        ]:
            code = main(["sweep", "--preset", "synthetic", "--out", str(out), "--key", key, "--values", values])
            assert code == 2
            assert list(tmp_path.iterdir()) == []
            assert capsys.readouterr().err.splitlines() == [f"error: values: {line}"]

    def test_sweep_bad_value_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(
            [
                "sweep", "--preset", "synthetic", "--max-epochs", "2", "--out", str(out),
                "--key", "bits", "--values", "8,99",
            ]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: bits")

    def test_sweep_empty_values_writes_nothing(self, tmp_path, capsys):
        out = tmp_path / "e.csv"
        code = main(
            ["sweep", "--preset", "synthetic", "--out", str(out), "--key", "bits", "--values", ","]
        )
        assert code == 2
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: values: ")

    def test_sweep_later_input_error_keeps_index_exit_2(self, tmp_path, capsys):
        # topology_p = 1e-6 never yields a connected Erdos-Renyi draw on n=4
        path = tmp_path / "er.cfg"
        path.write_text(
            "problem = synthetic\nn = 4\nm = 20\nd = 6\nr = 2\nmax_epochs = 2\ntopology = er\n"
        )
        out = tmp_path / "sw.csv"
        code = main(
            [
                "sweep", "--config", str(path), "--out", str(out),
                "--key", "topology_p", "--values", "0.5,1e-6,0.9",
            ]
        )
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "er.cfg", "sw-index.csv", "sw-topology_p0.5.csv",
        ]
        index = (tmp_path / "sw-index.csv").read_text().splitlines()
        assert len(index) == 2
        assert index[1].startswith("0.5,") and index[1].endswith(",MaxEpochs")
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ") and "no connected Erdos-Renyi draw" in err[0]

    def test_sweep_later_os_error_keeps_index_exit_2(self, tmp_path, capsys, monkeypatch):
        # the disk fills while the second value's trace is written
        write = cli.write_trace_csv

        def disk_full_at_bits_4(path, cfg, trace):
            if cfg.bits == 4:
                raise OSError(28, "No space left on device")
            write(path, cfg, trace)

        monkeypatch.setattr(cli, "write_trace_csv", disk_full_at_bits_4)
        out = tmp_path / "s.csv"
        code = main(
            [
                "sweep", "--preset", "synthetic", "--max-epochs", "2", "--out", str(out),
                "--key", "bits", "--values", "2,4,8",
            ]
        )
        assert code == 2
        assert sorted(p.name for p in tmp_path.iterdir()) == ["s-bits2.csv", "s-index.csv"]
        index = (tmp_path / "s-index.csv").read_text().splitlines()
        assert len(index) == 2
        assert index[1].startswith("2,") and index[1].endswith(",MaxEpochs")
        assert capsys.readouterr().err.splitlines() == ["error: [Errno 28] No space left on device"]

    def test_sweep_mnist_step_underflow_keeps_index_exit_2(self, tmp_path, capsys, monkeypatch):
        # The MNIST step alpha_hat / total_rows is known only once the file is read.
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        idx = tmp_path / "img.idx3"
        write_idx3(idx, np.random.default_rng(0).integers(0, 256, size=(40, 4, 4), dtype=np.uint8))
        out = tmp_path / "sw.csv"
        code = main(
            [
                "sweep", "--preset", "mnist", "--mnist-path", str(idx), "--n", "4", "--max-epochs", "2",
                "--out", str(out), "--key", "alpha_hat", "--values", "0.01,1e-322",
            ]
        )
        assert code == 2
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["img.idx3", "sw-alpha_hat0.01.csv", "sw-index.csv"]
        assert len((tmp_path / "sw-index.csv").read_text().splitlines()) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == "error: alpha_hat: effective step 0.0 over 40 rows is not positive and finite"

    def test_sweep_cli(self, tmp_path):
        out = tmp_path / "sw.csv"
        code = main(
            [
                "sweep",
                "--preset",
                "synthetic",
                "--max-epochs",
                "2",
                "--ds-tol",
                "0",
                "--out",
                str(out),
                "--key",
                "bits",
                "--values",
                "2, 4",
            ]
        )
        assert code == 0
        # spaces around a value are no part of it
        assert sorted(p.name for p in tmp_path.iterdir()) == ["sw-bits2.csv", "sw-bits4.csv", "sw-index.csv"]
        index = (tmp_path / "sw-index.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in index[1:]] == ["2", "4"]

    def test_sweep_with_diverging_value_writes_index_exit_3(self, tmp_path):
        # alpha_hat = 1e9 diverges before completing one epoch: no final row
        out = tmp_path / "sw.csv"
        code = main(
            [
                "sweep", "--preset", "synthetic", "--max-epochs", "5", "--out", str(out),
                "--key", "alpha_hat", "--values", "0.01,1e9",
            ]
        )
        assert code == 3
        index = (tmp_path / "sw-index.csv").read_text().splitlines()
        assert len(index) == 3
        assert index[1].startswith("0.01,") and index[1].endswith(",MaxEpochs")
        assert index[2] == "1e9,nan,nan,Diverged"

    def test_flag_overrides_config_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "problem = synthetic\nn = 4\nm = 20\nd = 6\nr = 2\neigengap = 0.6\n"
            "alpha_hat = 0.05\nmax_epochs = 2\nds_tol = 0\nbits = 2\n"
        )
        out = tmp_path / "o.csv"
        code = main(["run", "--config", str(path), "--bits", "8", "--out", str(out)])
        assert code == 0
        assert "# bits = 8" in out.read_text()
