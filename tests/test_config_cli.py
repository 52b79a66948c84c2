import re
import struct

import numpy as np
import pytest

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

from test_problems import write_idx3


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
        cfg = parse_config(preset="synthetic")
        assert (cfg.n, cfg.m, cfg.d, cfg.r) == (16, 1000, 10, 5)
        assert cfg.eigengap == 0.8
        assert cfg.topology == "ring"
        assert cfg.t == 1
        assert cfg.alpha_hat == 0.01
        assert cfg.max_epochs == 10000
        assert cfg.ds_tol == 1e-8

    def test_mnist_preset_expansion(self):
        cfg = parse_config(preset="mnist")
        assert cfg.problem == "mnist"
        assert (cfg.n, cfg.r) == (16, 5)
        assert cfg.max_epochs == 2000
        assert cfg.ds_tol == 1e-8

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

    def test_unknown_file_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bitz = 4\n")
        with pytest.raises(ConfigError, match="bitz"):
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

    def test_bool_coercion(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("dither = false\ntiming = on\n")
        cfg = parse_config(file=path)
        assert cfg.dither is False
        assert cfg.timing is True


class TestBuilders:
    def test_effective_alpha_synthetic(self):
        cfg = parse_config(preset="synthetic")
        inst = build_problem(cfg)
        assert effective_alpha(cfg, inst) == pytest.approx(16 * 0.01 / 16000)

    def test_effective_alpha_mnist(self, tmp_path):
        path = tmp_path / "img.idx3"
        rng = np.random.default_rng(0)
        write_idx3(path, rng.integers(0, 256, size=(60, 4, 4), dtype=np.uint8))
        cfg = parse_config(overrides={"problem": "mnist", "mnist_path": str(path), "n": 4, "r": 2})
        inst = build_problem(cfg)
        assert effective_alpha(cfg, inst) == pytest.approx(0.01 / 60)

    def test_mnist_env_var_override(self, tmp_path, monkeypatch):
        path = tmp_path / "img.idx3"
        rng = np.random.default_rng(1)
        write_idx3(path, rng.integers(0, 256, size=(40, 3, 3), dtype=np.uint8))
        monkeypatch.setenv("QRGT_MNIST_PATH", str(path))
        cfg = parse_config(overrides={"problem": "mnist", "n": 4, "r": 2})
        inst = build_problem(cfg)
        assert inst.total_rows == 40

    def test_mnist_path_missing(self, monkeypatch):
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        cfg = parse_config(overrides={"problem": "mnist"})
        with pytest.raises(ConfigError, match="mnist_path"):
            build_problem(cfg)

    def test_topologies(self, tmp_path):
        assert build_topology(parse_config(overrides={"topology": "ring", "n": 6})).kind == "ring"
        assert (
            build_topology(parse_config(overrides={"topology": "complete", "n": 5})).kind
            == "complete"
        )
        er = build_topology(parse_config(overrides={"topology": "er", "n": 12, "seed": 4}))
        assert er.kind == "erdos-renyi"
        edges = tmp_path / "edges.txt"
        edges.write_text("0 1\n1 2\n2 0\n")
        cfg = parse_config(overrides={"topology": "edges", "edge_file": str(edges), "n": 3})
        assert build_topology(cfg).n == 3

    def test_er_topology_seed_deterministic(self):
        a = build_topology(parse_config(overrides={"topology": "er", "n": 12, "seed": 4}))
        b = build_topology(parse_config(overrides={"topology": "er", "n": 12, "seed": 4}))
        assert a.edges == b.edges

    def test_algo_config_fields(self):
        cfg = parse_config(overrides={"algorithm": "rgt", "retraction": "polar", "bits": 3})
        inst = build_problem(parse_config(overrides=dict(n=4, m=20, d=6, r=2)))
        ac = algo_config(cfg, inst)
        assert ac.algorithm == "rgt"
        assert ac.retraction == "polar"
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

    def test_config_error_exit_2_no_partial_csv(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = main(["run", "--bits", "99", "--out", str(out)])
        assert code == 2
        assert not out.exists()
        assert "bits" in capsys.readouterr().err

    def test_unsafe_step_refused_exit_2_no_csv(self, tmp_path, capsys):
        path = tmp_path / "unsafe.cfg"
        path.write_text(
            "problem = synthetic\nn = 4\nm = 20\nd = 6\nr = 2\neigengap = 0.6\n"
            "alpha_hat = 1000\nmax_epochs = 2\nenforce_safety = true\n"
        )
        out = tmp_path / "never.csv"
        code = main(["run", "--config", str(path), "--out", str(out)])
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: enforce_safety: step size")

    @pytest.mark.parametrize(
        "lines, fragment",
        [
            ("topology = edges\nedge_file = {tmp}/token.txt\n", "token.txt:2: expected 'i j', got '1 two'"),
            ("topology = edges\nedge_file = {tmp}/split.txt\n", "graph is not connected"),
            ("topology = er\ntopology_p = 1e-6\n", "no connected Erdos-Renyi draw in 1000 attempts"),
            ("problem = mnist\nmnist_path = {tmp}/short.idx3\n", "expected 336 bytes"),
        ],
        ids=["edge-token", "disconnected-edges", "er-never-connects", "truncated-idx"],
    )
    def test_bad_input_exit_2_one_line_no_csv(self, tmp_path, capsys, monkeypatch, lines, fragment):
        monkeypatch.delenv("QRGT_MNIST_PATH", raising=False)
        (tmp_path / "token.txt").write_text("0 1\n1 two\n")
        (tmp_path / "split.txt").write_text("0 1\n2 3\n")
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
                "--key", "topology.p", "--values", "0.5,1e-6,0.9",
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
                "2,4",
            ]
        )
        assert code == 0
        assert (tmp_path / "sw-index.csv").exists()

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
