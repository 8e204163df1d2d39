"""Campaign runner: accounting, stopping, parallel reproducibility, CSV."""

import numpy as np
import pytest

from bgmlab import sim
from bgmlab.concat import ConcatSystem
from bgmlab.decode import BpConfig
from bgmlab.ensemble import sample_bgm, save_code
from bgmlab.sim import (
    SimConfig,
    StopRule,
    build_code,
    config_digest,
    config_from_dict,
    run_campaign,
    write_csv,
)


def bsc_uncoded_config(**overrides):
    base = dict(
        code={"construction": "uncoded", "k": 1000},
        channel={"type": "bsc"},
        sweep=(0.1,),
        stop=StopRule(min_frame_errors=10**6, max_frames=50),
        seed=7,
    )
    base.update(overrides)
    return SimConfig(**base)


# 2 outer [8, 4] blocks over a (16, 16) inner code: 8 message bits in 32
# channel bits, the same as PLAIN_8_32
CONCAT_8_32 = {
    "construction": "concat", "outer_r": 3, "blocks": 2,
    "inner": {"construction": "bgm", "k": 16, "m": 16, "rho": 0.15, "seed": 4},
    "interleaver_seed": 2, "rounds": 2, "first_round_bp_iters": 10,
}
PLAIN_8_32 = {"construction": "bgm", "k": 8, "m": 24, "rho": 0.15, "seed": 4}


class TestConfig:
    def test_from_dict_round_trip(self):
        raw = {
            "code": {"construction": "bgm", "k": 32, "m": 32, "rho": 0.1, "seed": 1},
            "channel": {"type": "awgn"},
            "sweep": [0.5, 0.6],
            "sweep_unit": "param",
            "stop": {"min_frame_errors": 5, "max_frames": 200},
            "decoder": {"max_iterations": 30},
            "seed": 3,
        }
        cfg = config_from_dict(raw)
        assert cfg.sweep == (0.5, 0.6)
        assert cfg.stop.min_frame_errors == 5
        assert cfg.decoder.max_iterations == 30

    def test_missing_key_is_named(self):
        with pytest.raises(ValueError, match="channel"):
            config_from_dict({"code": {}, "sweep": [1.0]})

    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(code={}, channel={"type": "bsc"}, sweep=())
        with pytest.raises(ValueError):
            SimConfig(
                code={}, channel={"type": "bsc"}, sweep=(0.1,), sweep_unit="volts"
            )
        with pytest.raises(ValueError):
            SimConfig(
                code={}, channel={"type": "bsc"}, sweep=(1.0,), sweep_unit="ebn0_db"
            )
        with pytest.raises(ValueError, match="need a code"):
            SimConfig(
                code={"construction": "uncoded", "k": 8}, channel={"type": "awgn"},
                sweep=(1.0,), sweep_unit="ebn0_db",
            )
        with pytest.raises(ValueError, match="receiver settings"):
            SimConfig(code=CONCAT_8_32, channel={"type": "awgn"}, sweep=(1.0,), decoder=BpConfig(max_iterations=20))
        # an uncoded system decides bit by bit, so a decoder block would only move the digest
        with pytest.raises(ValueError, match="receiver settings"):
            bsc_uncoded_config(decoder=BpConfig(max_iterations=3))
        with pytest.raises(ValueError, match="^uncoded code spec missing key: k$"):
            SimConfig(code={"construction": "uncoded"}, channel={"type": "bsc"}, sweep=(0.1,))
        with pytest.raises(ValueError, match="^uncoded k must be >= 1$"):
            SimConfig(code={"construction": "uncoded", "k": 0}, channel={"type": "bsc"}, sweep=(0.1,))
        with pytest.raises(ValueError, match="^config must be a JSON object$"):
            config_from_dict([{"code": {}, "channel": {"type": "bsc"}, "sweep": [0.1]}])
        with pytest.raises(ValueError, match="^sweep must be a list of parameter values$"):
            config_from_dict({"code": {}, "channel": {"type": "bsc"}, "sweep": 0.1})
        for block, key in (("decoder", "max_iters"), ("decoder", "llr_clamp"), ("stop", "max_frame")):
            with pytest.raises(ValueError, match=f"^unknown {block} key: {key}$"):
                config_from_dict({"code": {}, "channel": {"type": "bsc"}, "sweep": [0.1], block: {key: 5}})
        with pytest.raises(ValueError):
            StopRule(min_frame_errors=0)

    def test_digest_tracks_content(self):
        a = bsc_uncoded_config()
        b = bsc_uncoded_config(seed=8)
        assert config_digest(a) == config_digest(bsc_uncoded_config())
        assert config_digest(a) != config_digest(b)


class TestBuildCode:
    def test_constructions(self, tmp_path):
        code = build_code({"construction": "bgm", "k": 16, "m": 8, "rho": 0.2, "seed": 4})
        assert (code.k, code.m) == (16, 8)
        fixed = build_code({"construction": "fixed-row-weight", "k": 16, "m": 8, "w": 3, "seed": 0})
        assert set(fixed.g.row_weights()) == {3}
        assert build_code({"construction": "uncoded", "k": 5}) is None

        path = tmp_path / "code.npz"
        save_code(sample_bgm(12, 6, 0.3, seed=9), path)
        loaded = build_code({"construction": "graph-file", "path": str(path)})
        assert (loaded.k, loaded.m) == (12, 6)

    def test_concat(self):
        system = build_code(CONCAT_8_32)
        assert isinstance(system, ConcatSystem)
        assert (system.blocks, system.outer.n, system.inner.k, system.inner.m) == (2, 8, 16, 16)
        with pytest.raises(ValueError, match="^outer stream length 3\\*8 does not match inner k=16$"):
            build_code({**CONCAT_8_32, "blocks": 3})
        with pytest.raises(ValueError, match="systematic inner"):
            build_code({**CONCAT_8_32, "inner": {"construction": "uncoded", "k": 16}})

    def test_unknown_construction(self):
        with pytest.raises(ValueError):
            build_code({"construction": "polar"})

    def test_missing_key_is_named(self):
        with pytest.raises(ValueError, match="^bgm code spec missing key: k$"):
            build_code({"construction": "bgm", "m": 8, "rho": 0.1})
        with pytest.raises(ValueError, match="^bgm code spec missing key: rho$"):
            build_code({**CONCAT_8_32, "inner": {"construction": "bgm", "k": 16, "m": 16}})


class TestRunCampaign:
    def test_noiseless_point_runs_to_max_frames(self):
        cfg = SimConfig(
            code={"construction": "bgm", "k": 24, "m": 24, "rho": 0.15, "seed": 2},
            channel={"type": "bsc"},
            sweep=(0.0,),
            stop=StopRule(min_frame_errors=100, max_frames=60),
            seed=1,
        )
        (point,) = run_campaign(cfg)
        assert point.frames == 60
        assert point.bit_errors == 0
        assert point.frame_errors == 0

    def test_uncoded_bsc_matches_crossover(self):
        p = 0.1
        cfg = bsc_uncoded_config(sweep=(p,))
        (point,) = run_campaign(cfg)
        bits = point.frames * 1000
        se = np.sqrt(p * (1 - p) / bits)
        assert abs(point.bit_errors / bits - p) < 3 * se
        # every errored frame counts once, every clean frame not at all
        assert point.frame_errors <= point.bit_errors
        assert point.frame_errors >= 1

    def test_stop_on_frame_errors(self):
        cfg = SimConfig(
            code={"construction": "uncoded", "k": 100},
            channel={"type": "bsc"},
            sweep=(0.2,),
            stop=StopRule(min_frame_errors=7, max_frames=10_000),
            chunk=3,
            seed=5,
        )
        (point,) = run_campaign(cfg)
        assert point.frame_errors >= 7
        assert point.frames < 10_000
        # chunked stop decision: whole chunks only
        assert point.frames % 3 == 0

    def test_parallel_matches_serial(self):
        for code, max_frames, decoder in (
            ({"construction": "bgm", "k": 32, "m": 32, "rho": 0.12, "seed": 3}, 3000, BpConfig(max_iterations=20)),
            (CONCAT_8_32, 400, BpConfig()),
        ):
            base = dict(
                code=code,
                channel={"type": "awgn"},
                sweep=(0.7, 0.9),
                stop=StopRule(min_frame_errors=15, max_frames=max_frames),
                decoder=decoder,
                chunk=64,
                seed=11,
            )
            serial = run_campaign(SimConfig(**base, workers=0))
            parallel = run_campaign(SimConfig(**base, workers=3))
            for s, p in zip(serial, parallel, strict=True):
                assert (s.frames, s.bit_errors, s.frame_errors, s.avg_iters) == (p.frames, p.bit_errors, p.frame_errors, p.avg_iters)

    def test_equal_lengths_pair_the_noise(self, monkeypatch):
        noise = {}
        transmit = sim.transmit

        def recording(ch, bits, rng):
            received = transmit(ch, bits, rng)
            noise[name].append(received - (1.0 - 2.0 * bits))
            return received

        monkeypatch.setattr(sim, "transmit", recording)
        for name, code in (("plain", PLAIN_8_32), ("concat", CONCAT_8_32)):
            noise[name] = []
            stop = StopRule(min_frame_errors=10**6, max_frames=40)
            cfg = SimConfig(code=code, channel={"type": "awgn"}, sweep=(0.8, 0.6), stop=stop, seed=13)
            assert [p.k for p in run_campaign(cfg)] == [8, 8]
        assert len(noise["plain"]) == len(noise["concat"]) == 80
        for a, b in zip(noise["plain"], noise["concat"]):
            # equal up to the rounding of adding and removing +/-1
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_ebn0_sweep_improves_with_snr(self):
        cfg = SimConfig(
            code={"construction": "bgm", "k": 48, "m": 48, "rho": 0.1, "seed": 6},
            channel={"type": "awgn"},
            sweep=(0.0, 6.0),
            sweep_unit="ebn0_db",
            stop=StopRule(min_frame_errors=10**6, max_frames=150),
            decoder=BpConfig(max_iterations=25),
            seed=2,
        )
        low, high = run_campaign(cfg)
        assert low.bit_errors > high.bit_errors

    def test_deterministic_per_seed(self):
        cfg = bsc_uncoded_config(sweep=(0.15,))
        a = run_campaign(cfg)
        b = run_campaign(cfg)
        assert (a[0].frames, a[0].bit_errors, a[0].frame_errors) == (
            b[0].frames,
            b[0].bit_errors,
            b[0].frame_errors,
        )


class TestWriteCsv:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = bsc_uncoded_config()
        results = run_campaign(cfg)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(results, cfg, p1)
        write_csv(run_campaign(cfg), cfg, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_schema_and_derived_columns(self, tmp_path):
        cfg = bsc_uncoded_config()
        (point,) = run_campaign(cfg)
        path = tmp_path / "out.csv"
        write_csv([point], cfg, path)
        header, columns, row = path.read_text().splitlines()
        assert header.startswith("# bgmlab-simulate v")
        assert f"config_sha256={config_digest(cfg)}" in header
        assert columns == "param,frames,bit_errors,frame_errors,ber,fer,avg_iters,elapsed_s,seed"
        fields = row.split(",")
        assert float(fields[4]) == point.bit_errors / (point.frames * 1000)
        assert float(fields[5]) == point.frame_errors / point.frames
        assert float(fields[4]) <= float(fields[5])
        assert fields[7] == "0.000"

    def test_timing_flag_fills_elapsed(self, tmp_path):
        cfg = bsc_uncoded_config()
        results = run_campaign(cfg)
        path = tmp_path / "t.csv"
        write_csv(results, cfg, path, timing=True)
        row = path.read_text().splitlines()[2]
        assert row.split(",")[7] != "0.000"
