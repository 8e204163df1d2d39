"""BP decoding against exact-MAP and MLD oracles on small instances."""

import numpy as np
import pytest
from scipy import stats

from bgmlab.channel import BpskAwgn, Bsc, llr, transmit
from bgmlab.decode import (
    BpConfig,
    bp_decode,
    hard_decision,
    list_coset_decode,
    mld_exhaustive,
    repetition_decision,
)
from bgmlab.ensemble import SystematicCode, encode, sample_bgm
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


class TestBpDecode:
    def test_noiseless_recovery_in_one_iteration(self):
        code = sample_bgm(16, 16, 0.2, seed=4)
        u = make_rng(1, "msg").integers(0, 2, size=16).astype(np.uint8)
        llrs = 30.0 * (1.0 - 2.0 * encode(code, u))
        out = bp_decode(code, llrs)
        assert out.converged
        assert out.iterations_used == 1
        assert np.array_equal(out.hard_decision, u)

    def test_tree_instance_matches_exact_map(self):
        # path-shaped graph v0-c0-v1-c1-v2 has no cycles, so BP is exact
        code = SystematicCode(3, 2, BitMatrix(3, 2, [[0], [0, 1], [1]]))
        rng = make_rng(7, "tree")
        ch = BpskAwgn(0.8)
        for trial in range(20):
            u = rng.integers(0, 2, size=3).astype(np.uint8)
            llrs = llr(ch, transmit(ch, encode(code, u), rng))
            out = bp_decode(code, llrs, BpConfig(max_iterations=12, early_stop=False))
            assert out.posterior == pytest.approx(
                exact_bit_posteriors(code, llrs), abs=1e-9
            )

    def test_low_noise_decodes_reliably(self):
        code = sample_bgm(64, 64, 0.05, seed=9)
        ch = BpskAwgn(0.2)
        rng = make_rng(2, "bp-smoke")
        for trial in range(20):
            u = rng.integers(0, 2, size=64).astype(np.uint8)
            out = bp_decode(code, llr(ch, transmit(ch, encode(code, u), rng)))
            assert out.converged
            assert np.array_equal(out.hard_decision, u)

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

    def test_apriori_pins_the_message(self):
        code = sample_bgm(16, 16, 0.2, seed=6)
        u = make_rng(4, "msg").integers(0, 2, size=16).astype(np.uint8)
        noisy = np.zeros(32)  # channel says nothing at all
        strong = 25.0 * (1.0 - 2.0 * u)
        out = bp_decode(code, noisy, apriori=strong)
        assert np.array_equal(out.hard_decision, u)

    def test_iterations_bounded(self):
        code = sample_bgm(8, 8, 0.25, seed=3)
        out = bp_decode(code, np.zeros(16), BpConfig(max_iterations=5))
        assert out.iterations_used <= 5

    def test_length_validation(self):
        code = sample_bgm(8, 8, 0.25, seed=3)
        with pytest.raises(ValueError):
            bp_decode(code, np.zeros(15))
        with pytest.raises(ValueError):
            bp_decode(code, np.zeros(16), apriori=np.zeros(7))


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
        code = SystematicCode(2, 1, BitMatrix(2, 1, [[], []]))
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


class TestRepetitionDecision:
    def test_rule_and_tie(self):
        assert repetition_decision([0.5, 2.0, 1.0]) == 0
        assert repetition_decision([-1.0, -0.2]) == 1
        assert repetition_decision([1.5, -1.5]) == 1

    def test_awgn_error_rate_matches_q_function(self):
        # eight looks at the same bit through sigma=1 noise err at rate
        # Q(sqrt(8)); check the Monte Carlo against the closed form
        sigma, reps, trials = 1.0, 8, 300_000
        ch = BpskAwgn(sigma)
        rng = make_rng(21, "repetition-mc")
        y = 1.0 + sigma * rng.standard_normal((trials, reps))
        llrs = 2.0 * y / ch.sigma2
        for row in llrs[:50]:
            assert repetition_decision(row) == int(row.sum() <= 0.0)
        errors = np.count_nonzero(llrs.sum(axis=1) <= 0.0)
        p = stats.norm.sf(np.sqrt(reps) / sigma)
        se = np.sqrt(p * (1 - p) / trials)
        assert abs(errors / trials - p) <= 3.0 * se


class TestListCosetDecode:
    def test_noiseless_systematic_part_wins(self):
        code = sample_bgm(10, 8, 0.25, seed=17)
        a_matrix = sample_bgm(10, 4, 0.5, seed=18).g
        u = make_rng(19, "msg").integers(0, 2, size=10).astype(np.uint8)
        v_llr = 20.0 * (1.0 - 2.0 * u)
        parity_llr = 4.0 * (1.0 - 2.0 * np.asarray(
            (u @ code.g.to_dense()) & 1, dtype=np.float64))
        assert np.array_equal(list_coset_decode(a_matrix, code, v_llr, parity_llr), u)

    def test_full_width_map_degenerates_to_parity_selection(self):
        # invertible A makes every coset a singleton: the list is all of
        # F_2^k and the parity score alone picks the winner
        k = 6
        code = sample_bgm(k, 8, 0.3, seed=20)
        identity = BitMatrix(k, k, [[i] for i in range(k)])
        rng = make_rng(22, "full-width")
        v_llr = rng.normal(size=k)
        parity_llr = rng.normal(size=8)
        got = list_coset_decode(identity, code, v_llr, parity_llr)
        msgs = all_messages(k)
        scores = (1.0 - 2.0 * ((msgs @ code.g.to_dense()) & 1)) @ parity_llr
        assert np.array_equal(got, msgs[int(np.argmax(scores))])

    def test_suboptimal_against_joint_mld(self):
        code = sample_bgm(12, 12, 0.25, seed=23)
        a_matrix = sample_bgm(12, 6, 0.5, seed=24).g
        ch_sys = Bsc(0.05)
        ch_par = BpskAwgn(0.8)
        rng = make_rng(25, "lcda-paired")
        diffs = []
        for trial in range(1500):
            u = rng.integers(0, 2, size=12).astype(np.uint8)
            cw = encode(code, u)
            v_llr = llr(ch_sys, transmit(ch_sys, cw[:12], rng))
            parity_llr = llr(ch_par, transmit(ch_par, cw[12:], rng))
            lcda = list_coset_decode(a_matrix, code, v_llr, parity_llr)
            joint = mld_exhaustive(code, np.concatenate([v_llr, parity_llr]))
            diffs.append(
                int(not np.array_equal(lcda, u)) - int(not np.array_equal(joint, u))
            )
        diffs = np.array(diffs, dtype=np.float64)
        se = diffs.std(ddof=1) / np.sqrt(diffs.size)
        # the list decoder may only be worse, up to statistical resolution
        assert diffs.mean() >= -3.0 * max(se, 1e-12)

    def test_size_and_shape_guards(self):
        code = sample_bgm(21, 4, 0.2, seed=1)
        with pytest.raises(ValueError):
            list_coset_decode(
                BitMatrix(21, 2, [[] for _ in range(21)]),
                code,
                np.zeros(21),
                np.zeros(4),
            )
        small = sample_bgm(6, 4, 0.2, seed=1)
        with pytest.raises(ValueError):
            list_coset_decode(
                BitMatrix(5, 2, [[] for _ in range(5)]),
                small,
                np.zeros(6),
                np.zeros(4),
            )
