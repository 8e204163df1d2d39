"""Command line subcommands: wiring, exit codes, seed logging, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bgmlab
from bgmlab import __version__
from bgmlab.bounds import qfunc
from bgmlab.cli import main
from bgmlab.ensemble import SystematicCode, encode, iowef, load_code, save_code
from bgmlab.gf2 import BitMatrix, bits_from_string


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestThreshold:
    def test_three_six_pair(self, capsys):
        code, out, _ = run_cli(capsys, "threshold", "--dc", "3", "--dr", "6")
        assert code == 0
        assert abs(float(out.strip()) - 0.102) < 0.002


class TestBounds:
    def test_zero_generator_columns_collapse_to_q(self, capsys, tmp_path):
        path = str(tmp_path / "zero.npz")
        save_code(SystematicCode(4, 2, BitMatrix(4, 2, [[], [], [], []])), path)
        code, out, _ = run_cli(capsys, "bounds", "--code", path, "--sigma", "0.8")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        q = float(qfunc(1.0 / 0.8))
        assert float(lines["ber_lower_bound"]) == pytest.approx(q, rel=1e-5)
        assert lines["fer_lower_bound"] == lines["fer_lower_bound_approx"]


class TestSampleAndEncode:
    def test_round_trip(self, capsys, tmp_path):
        path = str(tmp_path / "code.npz")
        code, out, _ = run_cli(
            capsys, "sample-code", "--construction", "bgm",
            "--k", "8", "--m", "4", "--rho", "0.3", "--seed", "5", "--out", path,
        )
        assert code == 0
        assert (tmp_path / "code.npz.json").exists()
        saved = load_code(path)

        code, out, _ = run_cli(capsys, "encode", "--code", path, "--message", "10110001")
        assert code == 0
        expected = encode(saved, bits_from_string("10110001"))
        assert out.strip() == "".join(str(int(b)) for b in expected)

    def test_omitted_seed_is_logged(self, capsys, tmp_path):
        path = str(tmp_path / "c.npz")
        code, _, err = run_cli(
            capsys, "sample-code", "--k", "4", "--m", "4", "--rho", "0.5", "--out", path,
        )
        assert code == 0
        assert "seed: " in err

    def test_wrong_message_length_exits_nonzero(self, capsys, tmp_path):
        path = str(tmp_path / "code.npz")
        run_cli(capsys, "sample-code", "--k", "8", "--m", "4", "--seed", "1", "--out", path)
        code, _, err = run_cli(capsys, "encode", "--code", path, "--message", "101")
        assert code == 2
        assert "error:" in err


class TestSimulate:
    def write_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(
            """
            {
              "code": {"construction": "uncoded", "k": 200},
              "channel": {"type": "bsc"},
              "sweep": [0.1, 0.05],
              "stop": {"min_frame_errors": 1000, "max_frames": 30},
              "seed": 9
            }
            """
        )
        return str(cfg)

    def test_same_seed_byte_identical(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        assert run_cli(capsys, "simulate", "--config", cfg, "--out", out1)[0] == 0
        assert run_cli(capsys, "simulate", "--config", cfg, "--out", out2)[0] == 0
        with open(out1, "rb") as f1, open(out2, "rb") as f2:
            assert f1.read() == f2.read()

    def test_seed_override_changes_header(self, capsys, tmp_path):
        cfg = self.write_config(tmp_path)
        out = str(tmp_path / "c.csv")
        run_cli(capsys, "simulate", "--config", cfg, "--out", out, "--seed", "77")
        with open(out) as fh:
            assert "seed=77" in fh.readline()

    def run_concat(self, capsys, tmp_path, blocks):
        cfg = tmp_path / "concat.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "concat", "outer_r": 3, "blocks": blocks, "rounds": 2,
                     "inner": {"construction": "bgm", "k": 16, "m": 8, "rho": 0.2, "seed": 3}},
            "channel": {"type": "awgn"}, "sweep": [0.4, 0.8],
            "stop": {"min_frame_errors": 1000, "max_frames": 5}, "seed": 3,
        }))
        return run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "c.csv"))

    def test_concat_config(self, capsys, tmp_path):
        assert self.run_concat(capsys, tmp_path, blocks=2)[0] == 0
        header, columns, *rows = (tmp_path / "c.csv").read_text().splitlines()
        assert header.startswith("# bgmlab-simulate v") and header.endswith(" seed=3")
        assert columns == "param,frames,bit_errors,frame_errors,ber,fer,avg_iters,elapsed_s,seed"
        assert [row.split(",")[:2] for row in rows] == [["0.4", "5"], ["0.8", "5"]]
        for row in rows:  # 2 blocks of 4 outer message bits per frame
            assert float(row.split(",")[4]) == int(row.split(",")[2]) / (5 * 8)

    def test_concat_dimension_mismatch_exits_two(self, capsys, tmp_path):
        code, _, err = self.run_concat(capsys, tmp_path, blocks=3)
        assert code == 2
        assert err == "error: outer stream length 3*8 does not match inner k=16\n"

    @pytest.mark.parametrize("fault", (
        ({"code": {"construction": "bgm", "m": 8, "rho": 0.1}}, "bgm code spec missing key: k"),
        ({"decoder": {"max_iters": 5}}, "unknown decoder key: max_iters"),
        ({"stop": {"max_frame": 5}}, "unknown stop key: max_frame"),
        ({"decoder": {"llr_clamp": 30.0}}, "unknown decoder key: llr_clamp"),
        ({"sweep": 0.1}, "sweep must be a list of parameter values"),
        ({"code": {"construction": "uncoded", "k": 0}}, "uncoded k must be >= 1"),
        ({"code": {"construction": "concat", "outer_r": 3, "blocks": 2, "rounds": 0,
                   "inner": {"construction": "bgm", "k": 16, "m": 8, "rho": 0.2}}}, "rounds must be >= 1"),
        (None, "config must be a JSON object"),  # the valid config, wrapped in a list
    ))
    def test_config_error_exits_two_with_one_line(self, capsys, tmp_path, fault):
        change, message = fault
        valid = {"code": {"construction": "bgm", "k": 8, "m": 8, "rho": 0.1},
                 "channel": {"type": "awgn"}, "sweep": [0.5]}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps([valid] if change is None else {**valid, **change}))
        # --seed is applied after validation, so a malformed config still gets its one-line error
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(cfg), "--out", str(tmp_path / "x.csv"), "--seed", "3",
        )
        assert code == 2
        assert err == f"error: {message}\n"

    def test_missing_config_exits_nonzero(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "simulate", "--config", str(tmp_path / "nope.json"),
            "--out", str(tmp_path / "x.csv"),
        )
        assert code == 2
        assert "error:" in err


class TestGraphgen:
    def test_writes_edges_and_sidecar(self, capsys, tmp_path):
        d1 = tmp_path / "var.txt"
        d2 = tmp_path / "chk.txt"
        d1.write_text("\n".join(["2"] * 20 + ["4"] * 20))
        d2.write_text("\n".join(["4"] * 30))
        out = str(tmp_path / "graph.txt")
        code, stdout, _ = run_cli(
            capsys, "graphgen", "--var-degrees", str(d1), "--chk-degrees", str(d2),
            "--r-star", "0.0", "--epsilon", "0.3", "--seed", "4", "--out", out,
        )
        assert code == 0
        assert "r_measured=" in stdout
        g = load_code(out).g
        assert (g.rows, g.cols, g.nnz()) == (40, 30, 120)
        assert sorted(g.row_weights().tolist()) == sorted([2] * 20 + [4] * 20)

        with open(out + ".json") as fh:
            sidecar = json.load(fh)
        assert (sidecar["k"], sidecar["m"], sidecar["seed"]) == (40, 30, 4)
        assert abs(sidecar["r_measured"]) <= 0.3
        assert sidecar["swaps"] >= 0

    def test_unreachable_profile_exits_one(self, capsys, tmp_path):
        d1 = tmp_path / "var.txt"
        d2 = tmp_path / "chk.txt"
        d1.write_text("3\n1\n")
        d2.write_text("2\n2\n")
        code, _, err = run_cli(
            capsys, "graphgen", "--var-degrees", str(d1), "--chk-degrees", str(d2),
            "--r-star", "0.0", "--epsilon", "0.3", "--seed", "0",
            "--out", str(tmp_path / "g.txt"),
        )
        assert code == 1
        assert "graph generation failed" in err


class TestPopdynCommand:
    def test_emits_csv_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "popdyn", "--regular", "--dv", "3", "--dc", "6",
            "--channel", "bec", "--param", "0.3",
            "--population", "2000", "--iterations", "3", "--seed", "1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "iteration,error_rate,edge_error_rate,llr_mean,llr_var"
        assert len(lines) == 4
        rates = [float(line.split(",")[1]) for line in lines[1:]]
        assert rates[-1] <= rates[0]

    def test_law_from_graphgen_output(self, capsys, tmp_path):
        d1 = tmp_path / "var.txt"
        d2 = tmp_path / "chk.txt"
        d1.write_text("\n".join(["2"] * 20 + ["4"] * 20))
        d2.write_text("\n".join(["3"] * 20 + ["6"] * 10))
        graph = str(tmp_path / "graph.txt")
        code, _, _ = run_cli(
            capsys, "graphgen", "--var-degrees", str(d1), "--chk-degrees", str(d2),
            "--r-star", "-0.3", "--seed", "2", "--out", graph,
        )
        assert code == 0
        code, out, _ = run_cli(
            capsys, "popdyn", "--graph", graph, "--channel", "bec", "--param", "0.2",
            "--population", "2000", "--iterations", "3", "--seed", "1",
        )
        assert code == 0
        assert len(out.strip().splitlines()) == 4

    def test_graph_file_without_header_exits_two(self, capsys, tmp_path):
        # edge lists, with or without the "# n_var n_chk" line graphgen once wrote
        for text in ("0 0\n1 1\n", "# 2 2\n0 0\n1 1\n"):
            graph = tmp_path / "graph.txt"
            graph.write_text(text)
            code, _, err = run_cli(
                capsys, "popdyn", "--graph", str(graph), "--channel", "bec", "--param", "0.2",
                "--population", "200", "--iterations", "1", "--seed", "1",
            )
            assert code == 2
            assert err.startswith("error:") and err.count("\n") == 1


class TestGraphgenPipeline:
    def test_one_file_feeds_simulate_bounds_and_popdyn(self, capsys, tmp_path):
        # graphgen's output is a saved code: a graph-file campaign, bounds and popdyn all read it
        (tmp_path / "var.txt").write_text("\n".join(["2"] * 20 + ["4"] * 20))
        (tmp_path / "chk.txt").write_text("\n".join(["3"] * 20 + ["6"] * 10))
        graph = str(tmp_path / "graph.txt")
        code, _, _ = run_cli(
            capsys, "graphgen", "--var-degrees", str(tmp_path / "var.txt"),
            "--chk-degrees", str(tmp_path / "chk.txt"), "--r-star", "-0.3", "--seed", "2", "--out", graph,
        )
        assert code == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "graph-file", "path": graph}, "channel": {"type": "awgn"},
            "sweep": [0.8], "stop": {"min_frame_errors": 1000, "max_frames": 4}, "seed": 1,
        }))
        csv = tmp_path / "run.csv"
        assert run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(csv))[0] == 0
        assert csv.read_text().splitlines()[2].split(",")[:2] == ["0.8", "4"]
        code, out, _ = run_cli(capsys, "bounds", "--code", graph, "--sigma", "0.8")
        assert code == 0 and out.startswith("ber_lower_bound: ")
        code, out, _ = run_cli(
            capsys, "popdyn", "--graph", graph, "--channel", "bec", "--param", "0.2",
            "--population", "2000", "--iterations", "3", "--seed", "1",
        )
        assert code == 0 and len(out.strip().splitlines()) == 4


class TestExponentCommand:
    def test_capacity_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "--channel", "bsc", "--param", "0.11", "--p", "0.5",
        )
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        assert float(lines["capacity_bits"]) == pytest.approx(0.4998, abs=2e-3)
        assert lines["partial_mi_bits"] == lines["capacity_bits"]

    def test_exponent_mode_positive_at_zero_rate(self, capsys):
        code, out, _ = run_cli(
            capsys, "exponent", "--channel", "awgn", "--param", "1.0",
            "--p", "0.4", "--rate", "0.0",
        )
        assert code == 0
        assert float(out.split(": ")[1]) > 0.0


class TestIowefCommand:
    def test_rows_match_library(self, capsys):
        code, out, _ = run_cli(capsys, "iowef", "--k", "2", "--m", "2", "--rho", "0.5")
        assert code == 0
        table = iowef(2, 2, 0.5).coefficients
        for line in out.strip().splitlines():
            i, j, value = line.split(",")
            assert float(value) == pytest.approx(table[int(i), int(j)], rel=1e-9)


class TestParserEdges:
    def test_unknown_flag_rejected(self):
        with pytest.raises(SystemExit) as exc:
            main(["threshold", "--dc", "3", "--dr", "6", "--frobnicate"])
        assert exc.value.code == 2

    def test_console_entry_point(self):
        # the child imports the same bgmlab as this process, installed or not
        env = {**os.environ, "PYTHONPATH": str(Path(bgmlab.__file__).parents[1])}
        proc = subprocess.run(
            [sys.executable, "-m", "bgmlab.cli", "--version"],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0
        assert __version__ in proc.stdout
