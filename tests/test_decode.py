"""BP decoding against exact-MAP and MLD oracles on small instances."""

import hashlib

import numpy as np
import pytest

from bgmlab.channel import BpskAwgn, llr, transmit
from bgmlab.decode import (
    BpConfig,
    BpGraph,
    _check_pass,
    bp_decode,
    hard_decision,
    mld_exhaustive,
)
from bgmlab.ensemble import SystematicCode, encode, sample_bgm, sample_fixed_row_weight
from bgmlab.gf2 import BitMatrix
from bgmlab.rng import make_rng


def all_messages(k):
    shifts = np.arange(k - 1, -1, -1)
    return ((np.arange(1 << k)[:, None] >> shifts) & 1).astype(np.uint8)


def exact_bit_posteriors(code, llrs):
    """Bitwise MAP posterior LLRs by full enumeration."""
    msgs = all_messages(code.k)
    cws = np.concatenate([msgs, (msgs @ code.g.to_dense()) & 1], axis=1)
    logw = 0.5 * (1.0 - 2.0 * cws) @ np.asarray(llrs, dtype=np.float64)
    w = np.exp(logw - logw.max())
    post = np.empty(code.k)
    for i in range(code.k):
        w1 = w[msgs[:, i] == 1].sum()
        w0 = w.sum() - w1
        post[i] = np.log(w0) - np.log(w1)
    return post


class TestBpConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            BpConfig(max_iterations=0)


class TestHardDecision:
    def test_signs_and_tie(self):
        out = hard_decision(np.array([2.5, -0.1, 0.0]))
        assert np.array_equal(out, [0, 1, 1])


class TestCheckPass:
    def test_matches_brute_force_exclusive_products(self):
        # checks 0-3 hold 0, 1 (an edge), 2 (an edge and the parity factor)
        # and 1 (the parity factor) exactly-zero factors; signs are mixed
        code = SystematicCode(BitMatrix(4, 4, [
            (0, 0), (1, 0), (2, 0), (0, 1), (3, 1), (1, 2), (2, 2), (3, 2), (0, 3), (2, 3),
        ]))
        graph = BpGraph(code)
        chk = graph.factor_chk
        assert np.array_equal(chk, np.concatenate([code.g.edges[:, 1], np.arange(4)]))
        # each check's edges, then its parity factor, which holds the last value
        factors = {0: [0.9, -0.3, 0.5, -0.6], 1: [0.0, -0.7, 0.35], 2: [0.0, -0.2, 0.6, 0.0], 3: [0.4, -0.8, 0.0]}
        t = np.empty(chk.size)
        for c, values in factors.items():
            t[chk == c] = values
        assert np.array_equal(t[graph.n_edges:], [-0.6, 0.35, 0.0, 0.0])
        want = np.array([np.prod(t[(chk == chk[i]) & (np.arange(t.size) != i)]) for i in range(t.size)])
        want = np.clip(want, -(1 - 1e-14), 1 - 1e-14)
        got = _check_pass(t, chk, code.m)
        assert np.array_equal(got == 0, want == 0)
        assert np.array_equal(np.signbit(got[got != 0]), np.signbit(want[want != 0]))
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)


class TestBpDecode:
    def test_noiseless_recovery_in_one_iteration(self):
        code = sample_bgm(16, 16, 0.2, seed=4)
        u = make_rng(1, "msg").integers(0, 2, size=16).astype(np.uint8)
        llrs = 30.0 * (1.0 - 2.0 * encode(code, u))
        out = bp_decode(code, llrs)
        assert out.converged
        assert out.iterations_used == 1
        assert np.array_equal(out.hard_decision, u)

    def test_code_without_parity_bits_passes_its_llrs_through(self):
        code = SystematicCode(BitMatrix(3, 0, []))
        llrs = np.array([1.5, -0.25, 0.0])
        out = bp_decode(code, llrs)
        assert (out.converged, out.iterations_used) == (True, 1)
        assert np.array_equal(out.posterior, llrs)
        assert np.array_equal(out.hard_decision, [0, 1, 1])

    def test_tree_instance_matches_exact_map(self):
        # path-shaped graph v0-c0-v1-c1-v2 has no cycles, so BP is exact.  The
        # last frames set systematic and parity LLRs to exactly 0, whose tanh
        # factors the check pass counts apart from its log-magnitude sums
        code = SystematicCode(BitMatrix(3, 2, [(0, 0), (1, 0), (1, 1), (2, 1)]))
        rng = make_rng(7, "tree")
        ch = BpskAwgn(0.8)
        zero_sets = [[]] * 20 + [[0], [1], [3], [4], [1, 3], [0, 4], [1, 3, 4], [0, 1, 2, 3, 4]]
        for zeros in zero_sets:
            u = rng.integers(0, 2, size=3).astype(np.uint8)
            llrs = llr(ch, transmit(ch, encode(code, u), rng))
            llrs[zeros] = 0.0
            out = bp_decode(code, llrs, BpConfig(max_iterations=12, early_stop=False))
            assert out.posterior == pytest.approx(
                exact_bit_posteriors(code, llrs), abs=1e-9
            )

    def test_bp_is_pinned(self):
        # sha256 of posteriors, decisions, convergence flags and iteration
        # counts: any change to BP's arithmetic or stop test moves it.  The
        # frames span LLR scales 0.5-30, and some carry exact-zero LLRs on
        # systematic positions, on parity positions, or everywhere
        digest = hashlib.sha256()
        for code in (sample_bgm(64, 64, 0.05, seed=9), sample_fixed_row_weight(256, 256, 8, seed=1)):
            graph = BpGraph(code)
            rng = make_rng(23, "bp-pin", code.k)
            n = code.k + code.m
            frames = []
            for scale in (0.5, 1.0, 3.0, 30.0):
                for zeros in (None, slice(0, code.k), slice(code.k, n)):
                    u = rng.integers(0, 2, size=code.k).astype(np.uint8)
                    llrs = scale * (1.0 - 2.0 * encode(code, u) + 0.6 * rng.standard_normal(n))
                    if zeros is not None:
                        llrs[zeros][rng.random(code.k) < 0.2] = 0.0
                    frames.append(llrs)
            frames.append(np.zeros(n))
            for llrs in frames:
                for cfg in (BpConfig(), BpConfig(max_iterations=7, early_stop=False)):
                    out = bp_decode(graph, llrs, cfg)
                    digest.update(out.posterior.tobytes())
                    digest.update(out.hard_decision.tobytes())
                    digest.update(bytes([out.converged, out.iterations_used]))
        assert digest.hexdigest() == "813c3fcb581f56d4906ad5ec8b21c66496b0df35211a4131e5fbbc200bfe425d"

    def test_low_noise_decodes_reliably(self):
        code = sample_bgm(64, 64, 0.05, seed=9)
        ch = BpskAwgn(0.2)
        rng = make_rng(2, "bp-smoke")
        for trial in range(20):
            u = rng.integers(0, 2, size=64).astype(np.uint8)
            out = bp_decode(code, llr(ch, transmit(ch, encode(code, u), rng)))
            assert out.converged
            assert np.array_equal(out.hard_decision, u)

    def test_stops_at_a_codeword_under_noise(self):
        # about 1.5 parity bits per frame arrive flipped here, so a stop test
        # against the channel's parity decisions would rarely pass.  The code
        # is weak at this noise (some frames decode to another codeword), so
        # the decision is compared with the one after all 50 iterations
        code = sample_bgm(64, 64, 0.05, seed=9)
        ch = BpskAwgn(0.5)
        rng = make_rng(5, "bp-stop")
        for trial in range(20):
            u = rng.integers(0, 2, size=64).astype(np.uint8)
            llrs = llr(ch, transmit(ch, encode(code, u), rng))
            out = bp_decode(code, llrs)
            assert out.converged
            assert out.iterations_used <= 10
            capped = bp_decode(code, llrs, BpConfig(early_stop=False))
            assert np.array_equal(out.hard_decision, capped.hard_decision)

    def test_floor_frames_stop_early(self):
        # criterion 5's code at its floor point
        code = sample_fixed_row_weight(1024, 1024, 8, seed=1)
        graph = BpGraph(code)
        ch = BpskAwgn(0.68)
        rng = make_rng(6, "bp-floor")
        iters = []
        for trial in range(5):
            u = rng.integers(0, 2, size=1024).astype(np.uint8)
            out = bp_decode(graph, llr(ch, transmit(ch, encode(code, u), rng)))
            assert out.converged
            iters.append(out.iterations_used)
        assert np.mean(iters) <= 10

    def test_clamp_preserves_noiseless_decision(self):
        code = sample_bgm(12, 10, 0.3, seed=5)
        u = make_rng(3, "msg").integers(0, 2, size=12).astype(np.uint8)
        huge = 1000.0 * (1.0 - 2.0 * encode(code, u))
        out = bp_decode(code, huge)
        assert np.array_equal(out.hard_decision, u)

    def test_codeword_sign_equivariance(self):
        # BIOS symmetry: flipping LLR signs along a codeword shifts the
        # decoded message by that codeword's message part
        code = sample_bgm(24, 24, 0.1, seed=11)
        rng = make_rng(13, "equivariance")
        ch = BpskAwgn(0.9)
        zero_llr = llr(ch, transmit(ch, np.zeros(48, dtype=np.uint8), rng))
        u = rng.integers(0, 2, size=24).astype(np.uint8)
        signs = 1.0 - 2.0 * encode(code, u)
        base = bp_decode(code, zero_llr, BpConfig(early_stop=False))
        shifted = bp_decode(code, zero_llr * signs, BpConfig(early_stop=False))
        assert np.array_equal(shifted.hard_decision, base.hard_decision ^ u)
        assert shifted.posterior == pytest.approx(
            base.posterior * (1.0 - 2.0 * u), abs=1e-9
        )

    def test_iterations_bounded(self):
        code = sample_bgm(8, 8, 0.25, seed=3)
        out = bp_decode(code, np.zeros(16), BpConfig(max_iterations=5))
        assert out.iterations_used <= 5

    def test_length_validation(self):
        code = sample_bgm(8, 8, 0.25, seed=3)
        with pytest.raises(ValueError):
            bp_decode(code, np.zeros(15))


class TestMldExhaustive:
    def test_noiseless_recovery(self):
        code = sample_bgm(10, 8, 0.3, seed=8)
        u = make_rng(5, "msg").integers(0, 2, size=10).astype(np.uint8)
        llrs = 12.0 * (1.0 - 2.0 * encode(code, u))
        assert np.array_equal(mld_exhaustive(code, llrs), u)

    def test_scale_invariance(self):
        code = sample_bgm(9, 7, 0.25, seed=2)
        rng = make_rng(6, "scale")
        llrs = rng.normal(size=16)
        assert np.array_equal(
            mld_exhaustive(code, llrs), mld_exhaustive(code, 3.7 * llrs)
        )

    def test_lexicographic_tiebreak(self):
        # a zero generator makes parity useless; with zero systematic LLRs
        # on bit 0, messages 01 and 11 tie and the lower one must win
        code = SystematicCode(BitMatrix(2, 1, []))
        assert np.array_equal(mld_exhaustive(code, np.zeros(3)), [0, 0])
        assert np.array_equal(
            mld_exhaustive(code, np.array([0.0, -1.0, 0.0])), [0, 1]
        )

    def test_size_guard(self):
        code = sample_bgm(25, 4, 0.2, seed=1)
        with pytest.raises(ValueError):
            mld_exhaustive(code, np.zeros(29))

    def test_bp_never_beats_mld_framewise(self):
        code = sample_bgm(8, 8, 0.25, seed=14)
        ch = BpskAwgn(0.9)
        rng = make_rng(15, "paired")
        diffs = []
        for trial in range(2000):
            u = rng.integers(0, 2, size=8).astype(np.uint8)
            llrs = llr(ch, transmit(ch, encode(code, u), rng))
            mld_err = not np.array_equal(mld_exhaustive(code, llrs), u)
            bp_err = not np.array_equal(bp_decode(code, llrs).hard_decision, u)
            diffs.append(int(mld_err) - int(bp_err))
        diffs = np.array(diffs, dtype=np.float64)
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        assert diffs.mean() <= 3.0 * max(se, 1e-12)
