"""End-to-end acceptance checks, one printed verdict line per criterion.

Heavy Monte Carlo lives here on purpose; the per-module suites stay fast.
Each test prints `criterion N: PASS/FAIL (...)` before asserting so the
verdict survives in captured output either way.
"""

import json
import time
from types import SimpleNamespace

import numpy as np
import pytest

from bgmlab.bounds import ber_lower_bound, fer_lower_bound
from bgmlab.channel import ldpc_threshold_bound, Bec
from bgmlab.concat import bcjr_decode, extended_hamming
from bgmlab.ensemble import iowef, rho_omega, sample_bgm
from bgmlab.graph import GraphGenerationError
from bgmlab.popdyn import popdyn_run, regular_law
from bgmlab.rng import make_rng
from bgmlab.sim import build_code, run_campaign
from bgmlab.cli import main as cli_main

# criteria 5, 6, 7 and 10 run the study scripts' experiments at their defaults,
# and criterion 8 checks population dynamics against bec_popdyn's recursion
import assortativity_study
import bec_popdyn
import concat_floor
import floor_study
import waterfall_gain


def verdict(num, ok, detail):
    print(f"criterion {num:02d}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def number(value, spec):
    """`value` formatted by `spec`, or "none" when the experiment gave no number."""
    return "none" if value is None else format(value, spec)


class TestCriterion01Threshold:
    def test_three_six_threshold(self):
        t0 = time.perf_counter()
        p = ldpc_threshold_bound(3, 6)
        elapsed = time.perf_counter() - t0
        ok = 0.100 <= p <= 0.104 and elapsed < 1.0
        assert verdict(1, ok, f"threshold(3,6)={p:.5f} in [0.100,0.104], {elapsed:.3f}s")


class TestCriterion02ParityFlipLaw:
    def test_monte_carlo_grid_and_monotone_chain(self):
        t0 = time.perf_counter()
        rng = make_rng(0, "acceptance-rho-omega")
        worst_z = 0.0
        for rho in (0.01, 0.1, 0.25):
            previous = rho
            for omega in range(1, 21):
                exact = rho_omega(rho, omega)
                assert rho <= exact + 1e-15
                assert previous <= exact + 1e-15
                assert exact <= 0.5
                previous = exact
                flips = (rng.binomial(omega, rho, size=1_000_000) & 1).mean()
                se = np.sqrt(exact * (1.0 - exact) / 1_000_000)
                worst_z = max(worst_z, abs(flips - exact) / se)
        elapsed = time.perf_counter() - t0
        ok = worst_z < 4.0 and elapsed < 30.0
        assert verdict(2, ok, f"worst |z|={worst_z:.2f} over 60 cells, chain monotone, {elapsed:.1f}s")


class TestCriterion03WeightEnumerator:
    def test_total_mass(self):
        worst = 0.0
        for k in (8, 12, 16):
            total = iowef(k, k, 0.25).total()
            worst = max(worst, abs(total - 2.0**k) / 2.0**k)
        ok = worst < 1e-9
        assert verdict(3, ok, f"sum A_ij vs 2^k, worst rel err {worst:.2e}")

    def test_sampled_ensemble_average(self):
        # per-entry 5% at 200 samples is below the sampling noise floor for
        # small coefficients, so the agreement is scored on aggregate
        # relative L1 mass over entries >= 0.1
        k = m = 8
        analytic = iowef(k, m, 0.25).coefficients
        msgs = ((np.arange(256)[:, None] >> np.arange(7, -1, -1)) & 1).astype(np.uint8)
        msg_w = msgs.sum(axis=1)
        counts = np.zeros_like(analytic)
        n_codes = 200
        for seed in range(n_codes):
            code = sample_bgm(k, m, 0.25, seed=seed)
            par_w = ((msgs @ code.g.to_dense()) & 1).sum(axis=1)
            np.add.at(counts, (msg_w, par_w), 1.0)
        counts /= n_codes
        mask = analytic >= 0.1
        rel_l1 = np.abs(counts - analytic)[mask].sum() / analytic[mask].sum()
        ok = rel_l1 < 0.05
        assert verdict(3, ok, f"ensemble avg over {n_codes} codes, relative L1 {rel_l1:.4f} on A_ij>=0.1")


class TestCriterion04BoundValidity:
    def test_mld_never_beats_bounds(self):
        t0 = time.perf_counter()
        worst_ber = worst_fer = np.inf
        for k, m, rho, seed in ((4, 4, 0.25, 11), (6, 6, 0.3, 2), (8, 8, 0.2, 5)):
            code = sample_bgm(k, m, rho, seed=seed)
            n = k + m
            msgs = ((np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
            signs = 1.0 - 2.0 * np.concatenate([msgs, (msgs @ code.g.to_dense()) & 1], axis=1)
            for sigma in (0.6, 0.8, 1.0):
                rng = make_rng(77, "acceptance-bounds", k, int(sigma * 10))
                trials = 100_000
                frame_errs = 0
                bit_counts = []
                for _ in range(4):
                    y = 1.0 + sigma * rng.standard_normal((trials // 4, n))
                    decided = np.argmax(y @ signs.T, axis=1)
                    bit_counts.append(msgs[decided].sum(axis=1))
                    frame_errs += int(np.count_nonzero(decided))
                bit_counts = np.concatenate(bit_counts)
                ber = bit_counts.mean() / k
                ber_se = bit_counts.std(ddof=1) / (k * np.sqrt(trials))
                fer = frame_errs / trials
                fer_se = np.sqrt(fer * (1.0 - fer) / trials)
                worst_ber = min(worst_ber, (ber - ber_lower_bound(code, sigma)) / ber_se)
                worst_fer = min(worst_fer, (fer - fer_lower_bound(code, sigma)) / fer_se)
        elapsed = time.perf_counter() - t0
        ok = worst_ber >= -3.0 and worst_fer >= -3.0 and elapsed < 300.0
        assert verdict(
            4,
            ok,
            f"MLD slack over 9 points: BER {worst_ber:+.1f}se, FER {worst_fer:+.1f}se, {elapsed:.0f}s",
        )


class TestCriterion05FloorMatchingAtScale:
    def test_bp_floor_within_factor_three_of_bound(self):
        t0 = time.perf_counter()
        sigma = 0.68
        cfg = floor_study.floor_config(sigmas=(sigma,))
        bound = ber_lower_bound(build_code(cfg.code), sigma)
        assert 1e-6 <= bound <= 1e-5
        (point,) = run_campaign(cfg)
        ber = point.ber
        ratio = ber / bound
        elapsed = time.perf_counter() - t0
        ok = (1.0 / 3.0) <= ratio <= 3.0 and elapsed < 3600.0
        assert verdict(
            5,
            ok,
            f"sigma={sigma}: bound={bound:.2e}, measured={ber:.2e} over {point.frames} frames, ratio {ratio:.2f}, {elapsed:.0f}s",
        )


class TestCriterion06AssortativityTargeting:
    @pytest.mark.parametrize("r_star", (-0.5, -0.3, -0.1, 0.2))
    def test_target(self, r_star):
        d1, d2 = assortativity_study.profiles()
        if r_star > 0:
            d2 = d1
        t0 = time.perf_counter()
        graph, r_measured, failure = assortativity_study.build(d1, d2, r_star)
        elapsed = time.perf_counter() - t0
        degrees_ok = graph is not None and (
            sorted(graph.row_weights().tolist()) == sorted(d1.tolist())
            and sorted(graph.col_weights().tolist()) == sorted(d2.tolist())
        )
        ok = (
            failure is None
            and abs(r_measured - r_star) <= 0.02
            and degrees_ok
            and elapsed < 120.0
        )
        assert verdict(
            6,
            ok,
            f"r*={r_star:+.1f}: r_measured={number(r_measured, '+.4f')}, "
            f"degrees preserved={degrees_ok}, {elapsed:.0f}s",
        )


class TestCriterion07DisassortativeGain:
    def test_waterfall_ordering_and_gain(self):
        t0 = time.perf_counter()
        graphs = {name: built.graph for name, built in waterfall_gain.build_graphs().items()}
        grid = waterfall_gain.GRID
        crossings = {
            name: waterfall_gain.crossing(grid, bers)
            for name, bers in waterfall_gain.waterfalls(graphs).items()
        }
        neg, neutral, pos = (crossings[name] for name in ("disassortative", "neutral", "assortative"))
        elapsed = time.perf_counter() - t0
        gain = neutral - neg if neg is not None and neutral is not None else None
        ordered = pos is not None and neutral is not None and pos > neutral
        ok = gain is not None and 0.25 <= gain <= 0.75 and ordered and elapsed < 7200.0
        assert verdict(
            7,
            ok,
            f"1e-3 crossings neg/neutral/pos = "
            f"{number(neg, '.2f')}/{number(neutral, '.2f')}/{number(pos, '.2f')} dB, "
            f"gain {number(gain, '.2f')} dB, assortative worse={ordered}, {elapsed:.0f}s",
        )


class TestVerdictWithoutANumber:
    # a criterion whose experiment gives no number still prints its FAIL line
    def test_criterion_6_without_a_graph(self, monkeypatch, capsys):
        failure = GraphGenerationError("no graph met the request")
        monkeypatch.setattr(assortativity_study, "build", lambda d1, d2, target: (None, None, failure))
        with pytest.raises(AssertionError):
            TestCriterion06AssortativityTargeting().test_target(-0.1)
        out = capsys.readouterr().out
        assert "criterion 06: FAIL (r*=-0.1: r_measured=none, degrees preserved=False" in out

    def test_criterion_7_without_a_crossing(self, monkeypatch, capsys):
        names = ("disassortative", "neutral", "assortative")
        flat = [0.5] * len(waterfall_gain.GRID)  # never reaches 1e-3
        monkeypatch.setattr(waterfall_gain, "build_graphs", lambda: dict.fromkeys(names, SimpleNamespace(graph=None)))
        monkeypatch.setattr(waterfall_gain, "waterfalls", lambda graphs: dict.fromkeys(graphs, flat))
        with pytest.raises(AssertionError):
            TestCriterion07DisassortativeGain().test_waterfall_ordering_and_gain()
        out = capsys.readouterr().out
        assert "criterion 07: FAIL (1e-3 crossings neg/neutral/pos = none/none/none dB, gain none dB" in out


class TestCriterion08PopulationDynamicsOracle:
    def test_bec_recursion_and_threshold_sides(self):
        n = 100_000
        worst = 0.0
        finals = {}
        for eps in (0.40, 0.42, 0.45):
            records = popdyn_run(
                Bec(eps), regular_law(3, 6), population=n, iterations=45, seed=3
            )
            for rec, x in zip(records[:15], bec_popdyn.recursion(eps, regular_law(3, 6), 15)):
                tol = max(0.02 * x, 6.0 * np.sqrt(max(x, 1e-12) / n))
                if eps <= 0.42:
                    worst = max(worst, abs(rec.edge_error_rate - x) / tol)
            finals[eps] = records[-1].error_rate
        converged = finals[0.40] < 1e-3 and finals[0.42] < 1e-3
        stalled = finals[0.45] > 0.05
        ok = worst <= 1.0 and converged and stalled
        assert verdict(
            8,
            ok,
            f"recursion match worst {worst:.2f}x tol, finals 0.40/0.42/0.45 = "
            f"{finals[0.40]:.1e}/{finals[0.42]:.1e}/{finals[0.45]:.2f}",
        )


class TestCriterion09BcjrExactness:
    def test_hundred_random_priors(self):
        code = extended_hamming(3)
        msgs = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
        cws = np.array([code.encode(m) for m in msgs])
        rng = make_rng(4, "acceptance-bcjr")
        worst = 0.0
        for _ in range(100):
            priors = 2.0 * rng.standard_normal(code.n)
            logw = 0.5 * (1.0 - 2.0 * cws) @ priors
            exact = np.empty(code.n)
            for t in range(code.n):
                exact[t] = np.logaddexp.reduce(
                    logw[cws[:, t] == 0]
                ) - np.logaddexp.reduce(logw[cws[:, t] == 1])
            worst = max(worst, float(np.abs(bcjr_decode(code, priors) - exact).max()))
        ok = worst < 1e-9
        assert verdict(9, ok, f"[8,4] trellis vs exhaustive MAP, worst |diff| {worst:.1e}")


class TestCriterion10ConcatenationFloor:
    def test_ten_times_floor_improvement_paired(self):
        t0 = time.perf_counter()
        # scripts/concat_floor.py at its defaults: equal total rate 11/30, and
        # both arms carry 88 message bits in 240 channel bits, so they see
        # the same messages and noise on every frame
        sigma, trials = 0.48, 12000
        plain, concat = concat_floor.paired_floor(sigma, trials)
        plain_errs, concat_errs = plain.bit_errors, concat.bit_errors
        elapsed = time.perf_counter() - t0
        ok = 1e-5 <= plain.ber <= 1e-4 and concat_errs * 10 <= plain_errs
        assert verdict(
            10,
            ok,
            f"sigma={sigma}, {trials} paired frames: plain {plain_errs} errors "
            f"(ber {plain.ber:.2e}), concat {concat_errs} errors, {elapsed:.0f}s",
        )


class TestCriterion11Determinism:
    def test_cli_byte_identical_serial_and_parallel(self, tmp_path, capsys):
        base = {
            "code": {"construction": "bgm", "k": 32, "m": 32, "rho": 0.12, "seed": 3},
            "channel": {"type": "awgn"},
            "sweep": [0.7, 0.9],
            "stop": {"min_frame_errors": 15, "max_frames": 2000},
            "decoder": {"max_iterations": 20},
            "chunk": 64,
            "seed": 11,
        }
        outputs = {}
        for name, workers in (("serial_a", 0), ("serial_b", 0), ("parallel", 3)):
            cfg_path = tmp_path / f"{name}.json"
            cfg_path.write_text(json.dumps({**base, "workers": workers}))
            out_path = tmp_path / f"{name}.csv"
            code = cli_main(
                ["simulate", "--config", str(cfg_path), "--out", str(out_path)]
            )
            capsys.readouterr()
            assert code == 0
            outputs[name] = out_path.read_bytes()
        ok = (
            outputs["serial_a"] == outputs["serial_b"]
            and outputs["serial_a"] == outputs["parallel"]
        )
        assert verdict(11, ok, "simulate CSV byte-identical: rerun and 3-worker pool")
