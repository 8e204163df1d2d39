"""Command line subcommands: wiring, exit codes, seed logging, determinism."""

import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

import bgmlab
from bgmlab import __version__, sim
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
        save_code(SystematicCode(BitMatrix(4, 2, [])), path)
        code, out, _ = run_cli(capsys, "bounds", "--code", path, "--sigma", "0.8")
        assert code == 0
        lines = dict(line.split(": ") for line in out.strip().splitlines())
        q = float(qfunc(1.0 / 0.8))
        assert lines.keys() == {"ber_lower_bound", "fer_lower_bound"}
        assert float(lines["ber_lower_bound"]) == pytest.approx(q, rel=1e-5)
        # the four rows have disjoint (empty) G supports, so all enter the certified product
        assert float(lines["fer_lower_bound"]) == pytest.approx(1.0 - (1.0 - q) ** 4, rel=1e-5)

    @pytest.mark.parametrize("sigma", ("nan", "inf", "0"))
    def test_sigma_must_be_finite_and_positive(self, capsys, tmp_path, sigma):
        path = str(tmp_path / "code.npz")
        save_code(SystematicCode(BitMatrix(4, 2, [(0, 0), (1, 1)])), path)
        code, out, err = run_cli(capsys, "bounds", "--code", path, "--sigma", sigma)
        assert (code, out) == (2, "")
        assert err == f"error: sigma must be finite and positive, got {float(sigma)}\n"


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


    @pytest.mark.parametrize("argv, message", (
        (("--construction", "bgm", "--w", "3"), "--w: not read by bgm, which takes --rho"),
        (("--construction", "bpc", "--w", "3"), "--w: not read by bpc, which takes --rho"),
        (("--construction", "fixed-row-weight", "--w", "3", "--rho", "0.1"),
         "--rho: not read by fixed-row-weight, which takes --w"),
    ))
    def test_flag_the_construction_does_not_read_exits_two(self, capsys, tmp_path, argv, message):
        out = tmp_path / "c.npz"
        code, stdout, err = run_cli(
            capsys, "sample-code", *argv, "--k", "8", "--m", "4", "--seed", "1", "--out", str(out),
        )
        assert (code, stdout, err) == (2, "", f"error: {message}\n")
        assert not out.exists()

    def test_omitted_rho_keeps_its_default(self, capsys, tmp_path):
        for name, extra in (("default", ()), ("explicit", ("--rho", "0.5"))):
            path = str(tmp_path / name)
            assert run_cli(capsys, "sample-code", *extra, "--k", "8", "--m", "6", "--seed", "2", "--out", path)[0] == 0
        assert load_code(str(tmp_path / "default")).g == load_code(str(tmp_path / "explicit")).g

    @pytest.mark.parametrize("sidecar, message", (
        ({"k": 99}, "sidecar k=99 contradicts the matrix header's k=8"),
        ({"k": 8, "m": 5}, "sidecar m=5 contradicts the matrix header's m=4"),
        ([8, 4], "the sidecar must be a JSON object"),
    ))
    def test_sidecar_that_contradicts_the_matrix_exits_two(self, capsys, tmp_path, sidecar, message):
        path = str(tmp_path / "code.npz")
        run_cli(capsys, "sample-code", "--k", "8", "--m", "4", "--seed", "1", "--out", path)
        (tmp_path / "code.npz.json").write_text(json.dumps(sidecar))
        code, out, err = run_cli(capsys, "encode", "--code", path, "--message", "10110001")
        assert (code, out, err) == (2, "", f"error: {path}.json: {message}\n")


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

    def run_concat(self, capsys, tmp_path, blocks, outer_r=3):
        cfg = tmp_path / "concat.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "concat", "outer_r": outer_r, "blocks": blocks, "rounds": 2,
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

    @pytest.mark.parametrize("outer_r, blocks, message", (
        (40, 2, "outer stream length 2*1099511627776 does not match inner k=16"),
        (40, 0, "need at least one outer block"),
        (3, 0, "need at least one outer block"),
        (1, 2, "need r >= 2, got 1"),
    ))
    def test_concat_stream_refused_before_the_outer_code_is_built(self, capsys, tmp_path, outer_r, blocks, message):
        # a 2^40-column outer code would need terabytes: the length is checked first
        assert self.run_concat(capsys, tmp_path, blocks, outer_r) == (2, "", f"error: {message}\n")
        assert not (tmp_path / "c.csv").exists()

    @pytest.mark.parametrize("where", ("a-directory", "in-a-missing-directory"))
    def test_bad_out_refused_before_any_frame(self, capsys, tmp_path, monkeypatch, where):
        frames = []
        make_rng = sim.make_rng
        monkeypatch.setattr(sim, "make_rng", lambda *key: frames.append(key) or make_rng(*key))
        cfg = self.write_config(tmp_path)
        out = str(tmp_path if where == "a-directory" else tmp_path / "missing" / "c.csv")
        before = sorted(tmp_path.iterdir())
        code, stdout, err = run_cli(capsys, "simulate", "--config", cfg, "--out", out)
        assert (code, stdout, err) == (2, "", f"error: {out}: --out must name a file in an existing directory\n")
        assert frames == []
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("fault", (
        ({"code": {"construction": "bgm", "m": 8, "rho": 0.1}}, "bgm code missing key: k"),
        ({"decoder": {"max_iters": 5}}, "unknown decoder key: max_iters"),
        ({"stop": {"max_frame": 5}}, "unknown stop key: max_frame"),
        ({"decoder": {"llr_clamp": 30.0}}, "unknown decoder key: llr_clamp"),
        ({"sweep": 0.1}, "config key sweep must be a list of parameter values"),
        ({"code": {"construction": "uncoded", "k": 0}}, "uncoded k must be >= 1"),
        ({"code": {"construction": "concat", "outer_r": 3, "blocks": 2, "rounds": 0,
                   "inner": {"construction": "bgm", "k": 16, "m": 8, "rho": 0.2}}}, "rounds must be >= 1"),
        (None, "config must be a JSON object"),  # the valid config, wrapped in a list
        ({"code": [1]}, "config key code must be a JSON object"),
        ({"stop": [5]}, "config key stop must be a JSON object"),
        ({"stop": {"max_frames": "5"}}, "stop key max_frames must be an integer"),
        ({"decoder": {"max_iterations": 2.5}}, "decoder key max_iterations must be an integer"),
        ({"seed": None}, "config key seed must be an integer"),
        ({"sweep": [[0.5]]}, "config key sweep must be a list of parameter values"),
        # integer keys are never truncated: a float or a boolean is refused
        ({"code": {"construction": "bgm", "k": 16.9, "m": 16, "rho": 0.1}}, "bgm code key k must be an integer"),
        ({"code": {"construction": "bgm", "k": 16, "m": "16", "rho": 0.1}}, "bgm code key m must be an integer"),
        ({"code": {"construction": "bgm", "k": 16, "m": 16, "rho": 0.1, "seed": True}},
         "bgm code key seed must be an integer"),
        ({"code": {"construction": "bgm", "k": 16, "m": 16, "rho": "0.1"}}, "bgm code key rho must be a number"),
        ({"code": {"construction": "bgm", "k": 16, "m": 16, "rho": False}}, "bgm code key rho must be a number"),
        ({"code": {"construction": "fixed-row-weight", "k": 16, "m": 16, "w": 3.0}},
         "fixed-row-weight code key w must be an integer"),
        ({"code": {"construction": "uncoded", "k": 12.5}}, "uncoded code key k must be an integer"),
        ({"code": {"construction": "concat", "outer_r": 2.9, "blocks": 2,
                   "inner": {"construction": "bgm", "k": 16, "m": 8, "rho": 0.2}}},
         "concat code key outer_r must be an integer"),
        ({"code": {"construction": "concat", "outer_r": 3, "blocks": 2, "rounds": 2.0,
                   "inner": {"construction": "bgm", "k": 16, "m": 8, "rho": 0.2}}},
         "concat code key rounds must be an integer"),
        ({"code": {"construction": "concat", "outer_r": 3, "blocks": 2,
                   "inner": {"construction": "bgm", "k": 16.0, "m": 8, "rho": 0.2}}},
         "bgm code key k must be an integer"),
        ({"code": {"construction": "concat", "outer_r": 3, "blocks": 2, "first_round_bp_iters": 0,
                   "inner": {"construction": "bgm", "k": 16, "m": 8, "rho": 0.2}}},
         "first_round_bp_iters must be >= 1"),
        ({"sweep": [True]}, "config key sweep must be a list of parameter values"),
        # no key is ignored: each of these once ran as if it were absent
        ({"code": {"construction": "bgm", "k": 8, "m": 8, "rho": 0.1, "sed": 5}}, "unknown bgm code key: sed"),
        ({"channel": {"type": "awgn", "prm": 3}}, "unknown channel key: prm"),
        ({"channel": {"type": "awgn", "param": 0.3}}, "unknown channel key: param"),
        ({"sede": 4}, "unknown config key: sede"),
        ({"code": {"construction": "concat", "outer_r": 3, "blocks": 2,
                   "inner": {"construction": "bgm", "k": 16, "m": 8, "rho": 0.2, "rounds": 2}}},
         "unknown bgm code key: rounds"),
        # the sweep supplies sigma, which must be finite
        ({"sweep": [float("nan"), float("inf")]}, "sigma must be finite and positive, got nan"),
        ({"sweep": [float("inf")]}, "sigma must be finite and positive, got inf"),
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

    @pytest.mark.parametrize("ebn0_db", ("-inf", "nan", "4000", "-4000"))
    def test_ebn0_without_a_finite_sigma_exits_two(self, capsys, tmp_path, ebn0_db):
        cfg = tmp_path / "ebn0.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "bgm", "k": 8, "m": 8, "rho": 0.1}, "channel": {"type": "awgn"},
            "sweep": [2.0, float(ebn0_db)], "sweep_unit": "ebn0_db", "stop": {"max_frames": 5},
        }))
        out = tmp_path / "x.csv"
        code, stdout, err = run_cli(capsys, "simulate", "--config", str(cfg), "--out", str(out))
        assert (code, stdout) == (2, "")
        assert err == f"error: Eb/N0 of {float(ebn0_db)} dB gives no finite positive sigma\n"
        assert not out.exists()

    def test_wall_time_goes_to_stderr(self, capsys, tmp_path):
        out = tmp_path / "t.csv"
        code, _, err = run_cli(capsys, "simulate", "--config", self.write_config(tmp_path), "--out", str(out))
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 2
        for line, param in zip(lines, ("0.1", "0.05")):
            assert re.fullmatch(rf"param={param} frames=30 ber=\S+ fer=\S+ elapsed=\d+\.\d{{3}}s", line)
        # the CSV keeps 0.000, so that same-seed reruns stay byte-identical
        assert [row.split(",")[7] for row in out.read_text().splitlines()[2:]] == ["0.000", "0.000"]

    def test_timing_flag_is_gone(self, capsys, tmp_path):
        with pytest.raises(SystemExit):
            main(["simulate", "--config", self.write_config(tmp_path), "--out", str(tmp_path / "t.csv"), "--timing"])

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

    @pytest.mark.parametrize("flag", ("--r-star", "--epsilon"))
    def test_nan_target_exits_two_without_output(self, capsys, tmp_path, flag):
        (tmp_path / "var.txt").write_text("\n".join(["2"] * 20 + ["4"] * 20))
        (tmp_path / "chk.txt").write_text("\n".join(["3"] * 20 + ["6"] * 10))
        target = {"--r-star": "0.0", "--epsilon": "0.3", flag: "nan"}
        out = tmp_path / "g.txt"
        code, stdout, err = run_cli(
            capsys, "graphgen", "--var-degrees", str(tmp_path / "var.txt"),
            "--chk-degrees", str(tmp_path / "chk.txt"), "--r-star", target["--r-star"],
            "--epsilon", target["--epsilon"], "--seed", "0", "--out", str(out),
        )
        assert (code, stdout) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", ("", "2\n2.5\n"))
    def test_bad_degree_file_refused_in_one_line(self, capsys, tmp_path, text):
        (tmp_path / "var.txt").write_text(text)
        (tmp_path / "chk.txt").write_text("2\n2\n")
        out = tmp_path / "g.txt"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, stdout, err = run_cli(
                capsys, "graphgen", "--var-degrees", str(tmp_path / "var.txt"),
                "--chk-degrees", str(tmp_path / "chk.txt"), "--r-star", "0.0", "--seed", "0", "--out", str(out),
            )
        reason = "expected one non-negative integer degree per line"
        assert (code, stdout, err) == (2, "", f"error: {tmp_path / 'var.txt'}: {reason}\n")
        assert not out.exists()


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

    @pytest.mark.parametrize("argv, message", (
        (("--regular", "--graph", "g.txt"), "--regular and --graph are exclusive"),
        (("--graph", "g.txt", "--k", "5"), "--k: not read with --regular or --graph"),
        (("--regular", "--m", "5", "--rho", "0.1"), "--m, --rho: not read with --regular or --graph"),
        (("--dv", "4"), "--dv: not read without --regular"),
        (("--graph", "g.txt", "--dc", "4"), "--dc: not read without --regular"),
    ))
    def test_flag_the_law_does_not_read_exits_two(self, capsys, tmp_path, argv, message):
        code, out, err = run_cli(
            capsys, "popdyn", *argv, "--channel", "bec", "--param", "0.3",
            "--population", "200", "--iterations", "1", "--seed", "1",
        )
        assert (code, out, err) == (2, "", f"error: {message}\n")

    def test_omitted_law_flags_keep_their_defaults(self, capsys):
        common = ("--channel", "bec", "--param", "0.3", "--population", "500", "--iterations", "2", "--seed", "1")
        for implicit, explicit in (
            (("--regular",), ("--regular", "--dv", "3", "--dc", "6")),
            ((), ("--k", "1024", "--m", "1024", "--rho", "0.002")),
        ):
            assert run_cli(capsys, "popdyn", *implicit, *common)[1] == run_cli(capsys, "popdyn", *explicit, *common)[1]

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

    @pytest.mark.parametrize("text", ("3 3\n\n\n\n", "4 0\n\n\n\n\n"), ids=("empty-rows", "no-columns"))
    def test_code_without_edges_exits_two_naming_it(self, capsys, tmp_path, text):
        path = tmp_path / "edgeless.txt"
        path.write_text(text)
        code, out, err = run_cli(
            capsys, "popdyn", "--graph", str(path), "--channel", "bec", "--param", "0.2",
            "--population", "200", "--iterations", "1", "--seed", "1",
        )
        assert (code, out, err) == (2, "", f"error: {path}: G has no edges, so its normal graph has no degree law\n")


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


class TestSavedBpcCode:
    """A bpc code's parity bits are known at the decoder: every command that
    reads a systematic code refuses the file, in one line naming it."""

    @pytest.mark.parametrize("command", ("encode", "bounds", "simulate", "popdyn"))
    def test_every_reader_refuses_it(self, capsys, tmp_path, command):
        path = str(tmp_path / "bpc.txt")
        assert run_cli(
            capsys, "sample-code", "--construction", "bpc", "--k", "8", "--m", "4", "--seed", "1", "--out", path,
        )[0] == 0
        csv = tmp_path / "run.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "graph-file", "path": path}, "channel": {"type": "awgn"},
            "sweep": [0.8], "stop": {"max_frames": 4},
        }))
        argv = {
            "encode": ("encode", "--code", path, "--message", "10110001"),
            "bounds": ("bounds", "--code", path, "--sigma", "0.8"),
            "simulate": ("simulate", "--config", str(cfg), "--out", str(csv)),
            "popdyn": ("popdyn", "--graph", path, "--channel", "bec", "--param", "0.2",
                       "--population", "200", "--iterations", "1", "--seed", "1"),
        }[command]
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {path}: holds a bpc code, not a systematic code\n")
        assert sorted(tmp_path.iterdir()) == before


class TestZeroRowCode:
    """A matrix with no rows is no code: every command that reads a code
    file refuses it, in one line naming it, and writes nothing."""

    @pytest.mark.parametrize("command", ("encode", "bounds", "simulate", "popdyn"))
    def test_every_reader_refuses_it(self, capsys, tmp_path, command):
        path = tmp_path / "empty.txt"
        path.write_text("0 4\n")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "graph-file", "path": str(path)}, "channel": {"type": "awgn"},
            "sweep": [0.8], "stop": {"max_frames": 4},
        }))
        argv = {
            "encode": ("encode", "--code", str(path), "--message", ""),
            "bounds": ("bounds", "--code", str(path), "--sigma", "0.8"),
            "simulate": ("simulate", "--config", str(cfg), "--out", str(tmp_path / "run.csv")),
            "popdyn": ("popdyn", "--graph", str(path), "--channel", "bec", "--param", "0.2",
                       "--population", "200", "--iterations", "1", "--seed", "1"),
        }[command]
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out, err) == (2, "", f"error: {path}: the matrix has no rows, so the code carries no message bits\n")
        assert sorted(tmp_path.iterdir()) == before


class TestMalformedJson:
    """A code sidecar or a campaign config cut short is not valid JSON: it
    is refused in one line naming the file, and nothing is written."""

    @pytest.mark.parametrize("command", ("encode", "bounds", "simulate", "simulate-config"))
    def test_refused_naming_the_file(self, capsys, tmp_path, command):
        path = str(tmp_path / "code.txt")
        save_code(SystematicCode(BitMatrix(4, 2, [(0, 0), (3, 1)])), path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "graph-file", "path": path}, "channel": {"type": "awgn"},
            "sweep": [0.8], "stop": {"max_frames": 4},
        }))
        bad = cfg if command == "simulate-config" else Path(f"{path}.json")
        bad.write_text(bad.read_text()[:9])
        simulate = ("simulate", "--config", str(cfg), "--out", str(tmp_path / "run.csv"))
        argv = {
            "encode": ("encode", "--code", path, "--message", "1011"),
            "bounds": ("bounds", "--code", path, "--sigma", "0.8"),
            "simulate": simulate,
            "simulate-config": simulate,
        }[command]
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {bad}: not valid JSON (") and err.count("\n") == 1
        assert sorted(tmp_path.iterdir()) == before


class TestNotUtf8:
    """A code matrix, sidecar, campaign config or degree file holding a byte
    that is not UTF-8 is refused in one line naming the file, and nothing
    is written."""

    @pytest.mark.parametrize("command", ("encode", "bounds", "simulate", "simulate-code", "graphgen"))
    def test_refused_naming_the_file(self, capsys, tmp_path, command):
        path = str(tmp_path / "code.txt")
        save_code(SystematicCode(BitMatrix(4, 2, [(0, 0), (3, 1)])), path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "code": {"construction": "graph-file", "path": path}, "channel": {"type": "awgn"},
            "sweep": [0.8], "stop": {"max_frames": 4},
        }))
        degrees = tmp_path / "var.txt"
        degrees.write_text("2\n2\n")
        simulate = ("simulate", "--config", str(cfg), "--out", str(tmp_path / "run.csv"))
        argv, bad = {
            "encode": (("encode", "--code", path, "--message", "1011"), Path(path)),
            "bounds": (("bounds", "--code", path, "--sigma", "0.8"), Path(f"{path}.json")),
            "simulate": (simulate, cfg),
            "simulate-code": (simulate, Path(path)),
            "graphgen": (("graphgen", "--var-degrees", str(degrees), "--chk-degrees", str(degrees),
                          "--r-star", "0.0", "--seed", "0", "--out", str(tmp_path / "g.txt")), degrees),
        }[command]
        bad.write_bytes(b"\xff" + bad.read_bytes())  # no UTF-8 sequence starts with 0xff
        before = sorted(tmp_path.iterdir())
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {bad}: not UTF-8 text ('utf-8' codec can't decode byte 0xff in position 0: invalid start byte)\n"
        assert sorted(tmp_path.iterdir()) == before


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

    @pytest.mark.parametrize("channel, param, p, rate", (
        ("bsc", "0.11", "0.5", "0.9"), ("awgn", "0.8", "0.5", "0.9"), ("bec", "0.5", "0.5", "0.9"),
        ("bsc", "0.11", "0", "0.3"),
    ))
    def test_exponent_above_information_rate_is_plus_zero(self, capsys, channel, param, p, rate):
        code, out, _ = run_cli(
            capsys, "exponent", "--channel", channel, "--param", param, "--p", p, "--rate", rate,
        )
        assert code == 0
        assert out == "exponent_bits: 0.00000000\n"


    @pytest.mark.parametrize("param", ("nan", "inf"))
    def test_awgn_sigma_must_be_finite(self, capsys, param):
        for extra in ((), ("--rate", "0.1")):
            code, out, err = run_cli(capsys, "exponent", "--channel", "awgn", "--param", param, "--p", "0.5", *extra)
            assert (code, out) == (2, "")
            assert err == f"error: sigma must be finite and positive, got {float(param)}\n"

    @pytest.mark.parametrize("rate", ("nan", "inf"))
    def test_rate_must_be_finite(self, capsys, rate):
        code, out, err = run_cli(capsys, "exponent", "--channel", "bsc", "--param", "0.11", "--p", "0.5", "--rate", rate)
        assert (code, out) == (2, "")
        assert err == f"error: rate must be finite and non-negative, got {float(rate)}\n"

    def test_refusal_prints_no_value(self, capsys):
        # the capacity alone is valid, yet it must not reach stdout before --p is refused
        code, out, err = run_cli(capsys, "exponent", "--channel", "bsc", "--param", "0.1", "--p", "nan")
        assert (code, out) == (2, "")
        assert err.startswith("error:") and err.count("\n") == 1


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

    def test_import_leaves_scipy_stats_out(self):
        # scipy.stats and scipy.optimize are slow to import; only `exponent` and
        # `threshold` need scipy.optimize, and import it when they run
        env = {**os.environ, "PYTHONPATH": str(Path(bgmlab.__file__).parents[1])}
        code = (
            "import sys, bgmlab.sim, bgmlab.concat, bgmlab.graph, bgmlab.popdyn, bgmlab.cli; "
            "sys.exit(' '.join(m for m in ('scipy.stats', 'scipy.optimize') if m in sys.modules) or None)"
        )
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (0, "")
