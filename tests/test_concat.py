"""Outer algebraic code, trellis MAP decoding, and the concatenated receiver."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest

from bgmlab.concat import (
    ConcatConfig,
    ConcatSystem,
    bcjr_decode,
    concat_decode,
    concat_encode,
    extended_hamming,
)
from bgmlab.decode import LLR_CLAMP, BpConfig, bp_decode
from bgmlab.ensemble import sample_bgm
from bgmlab.rng import make_rng
from bgmlab.sim import run_fixed_work


def all_codewords(code):
    msgs = ((np.arange(1 << code.k)[:, None] >> np.arange(code.k - 1, -1, -1)) & 1).astype(np.uint8)
    return np.array([code.encode(m) for m in msgs]), msgs


def map_bit_llrs(codewords, priors):
    """Exhaustive bitwise MAP posteriors by direct marginalization."""
    logw = 0.5 * (1.0 - 2.0 * codewords) @ priors
    posts = np.empty(codewords.shape[1])
    for t in range(codewords.shape[1]):
        w0 = logw[codewords[:, t] == 0]
        w1 = logw[codewords[:, t] == 1]
        posts[t] = (
            np.logaddexp.reduce(w0) - np.logaddexp.reduce(w1)
        )
    return posts


def defined_parity_check(r):
    """H from its definition: the bits of j + 1 in column j, over an all-ones row."""
    n = 2**r
    h = np.zeros((r + 1, n), dtype=np.uint8)
    for col in range(n - 1):
        for bit in range(r):
            h[bit, col] = ((col + 1) >> bit) & 1
    h[r, :] = 1
    return h


# sha256 of generator.to_dense() (uint8) and of info (int64), taken from the
# generic RREF null-space construction the code was first built with
PINNED_GENERATORS = {
    3: ("7701ade06636806cf9f7670ebe2f64e6a739c8c3ef743d6fcee6237c1237c5e0",
        "97da16b117bfaed900e6a458faa28a3e21d09f979dc32090dcb2278b44788ea7"),
    4: ("f35960814fdc0918b657b8bdbce73eeb609a24f2c9dbcac4e8d46937b389b6ad",
        "c58fb5584c2a96ac3f68ab391bd44b59e8520a293255dc1d12f66263710c46ee"),
    5: ("ee01ba5c47bc04e3945d8fe3960d7d7ca29f89335a8fe786037cbe9eca82adc8",
        "133dbcd1445dbce632d40d48c189e74745e32e00ba9aef6d3a07988ed25e891c"),
    6: ("6c87b97b23bc2c6762d506c4aca44f440c02c5fe2fb33c07b080acab31032581",
        "6525538234c2b94876e3f68800ad0fa22843efc2925c43915eebd6b904129dff"),
}


class TestExtendedHamming:
    def test_parity_check_matches_its_definition(self):
        for r in range(2, 7):
            code = extended_hamming(r)
            h = defined_parity_check(r)
            weights = 1 << np.arange(r + 1, dtype=np.int64)
            assert np.array_equal(code.column_syndromes, weights @ h)

    @pytest.mark.parametrize("r", sorted(PINNED_GENERATORS))
    def test_generator_and_info_are_pinned(self, r):
        code = extended_hamming(r)
        gen = code.generator.to_dense()
        info = np.ascontiguousarray(code.info, dtype=np.int64)
        assert gen.dtype == np.uint8
        assert np.array_equal(gen[:, code.info], np.eye(code.k, dtype=np.uint8))
        digests = (hashlib.sha256(gen.tobytes()).hexdigest(), hashlib.sha256(info.tobytes()).hexdigest())
        assert digests == PINNED_GENERATORS[r]

    def test_dimensions(self):
        for r, n, k in ((2, 4, 1), (3, 8, 4), (4, 16, 11), (10, 1024, 1013)):
            code = extended_hamming(r)
            assert (code.n, code.k) == (n, k)

    def test_generator_in_null_space(self):
        for r in (2, 3, 4, 6):
            code = extended_hamming(r)
            g = code.generator.to_dense()
            h = defined_parity_check(r)
            assert not ((g @ h.T) & 1).any()

    def test_minimum_distance_four(self):
        for r in (3, 4):
            code = extended_hamming(r)
            cws, _ = all_codewords(code)
            weights = cws.sum(axis=1)
            assert weights[0] == 0
            assert weights[1:].min() == 4

    def test_r3_codebook_size(self):
        cws, _ = all_codewords(extended_hamming(3))
        assert len({bytes(c) for c in cws}) == 16

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            extended_hamming(1)

    def test_encodes_a_stack_of_messages(self):
        code = extended_hamming(4)
        msgs = make_rng(2, "stack").integers(0, 2, size=(3, 5, code.k), dtype=np.uint8)
        words = code.encode(msgs)
        assert words.shape == (3, 5, code.n)
        assert np.array_equal(words, [[code.encode(m) for m in row] for row in msgs])
        for shape in ((code.k + 1,), (4, code.k - 1), (code.k, 4), ()):
            with pytest.raises(ValueError):
                code.encode(np.zeros(shape, dtype=np.uint8))


class TestSyndromeTrellis:
    def test_zero_terminated_paths_are_exactly_the_codewords(self):
        code = extended_hamming(3)
        cws, _ = all_codewords(code)
        codebook = {bytes(c) for c in cws}
        for value in range(1 << code.n):
            bits = ((value >> np.arange(code.n - 1, -1, -1)) & 1).astype(np.uint8)
            # the state after t sections: partial syndrome of the first t bits
            states = np.concatenate([[0], np.bitwise_xor.accumulate(bits * code.column_syndromes)])
            assert states.size == code.n + 1
            assert (states[-1] == 0) == (bytes(bits) in codebook)


class TestBcjrDecode:
    def test_matches_exhaustive_map(self):
        code = extended_hamming(3)
        cws, _ = all_codewords(code)
        rng = make_rng(4, "bcjr")
        for _ in range(25):
            priors = 2.0 * rng.standard_normal(code.n)
            np.testing.assert_allclose(
                bcjr_decode(code, priors), map_bit_llrs(cws, priors), atol=1e-9
            )

    def test_matches_exhaustive_map_at_large_priors(self):
        # branch weights near exp(-300) per bit: a probability-domain recursion would underflow here
        code = extended_hamming(4)
        cws, _ = all_codewords(code)
        rng = make_rng(4, "bcjr-large")
        for _ in range(5):
            priors = 300.0 * rng.standard_normal(code.n)
            np.testing.assert_allclose(
                bcjr_decode(code, priors), map_bit_llrs(cws, priors), rtol=0.0, atol=1e-9
            )

    def test_posteriors_are_pinned(self):
        # sha256 of the posteriors on fixed-seed stacks, taken from the single sweep on
        # offset metrics (no per-step renormalisation): any change to its arithmetic moves it.
        # When pinned, r = 2-4 matched exhaustive MAP within 1.4e-12 and r = 5 the
        # renormalised sweep it replaced within 1.6e-12
        chunks = []
        for r in range(2, 6):
            code = extended_hamming(r)
            rng = make_rng(29, "bcjr-pin", r)
            for scale in (0.1, 2.0, 30.0, 600.0):
                priors = scale * rng.standard_normal((5, code.n))
                priors[3] = (1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k))) * scale
                priors[4, : code.n // 2] = 0.0
                chunks.append(bcjr_decode(code, priors).tobytes())
        digest = hashlib.sha256(b"".join(chunks)).hexdigest()
        assert digest == "a0318dd0caf7482a44f0d6f6b445258cc9beb4232d70445018863ba3a756948e"

    def test_probability_domain_oracle(self):
        # independent forward-backward with explicit probabilities
        code = extended_hamming(3)
        syn = code.column_syndromes
        n_states = 2 * code.n
        rng = make_rng(9, "bcjr-prob")
        for _ in range(10):
            priors = 1.5 * rng.standard_normal(code.n)
            p0 = 1.0 / (1.0 + np.exp(-priors))
            alphas = [np.eye(n_states)[0]]
            for t in range(code.n):
                nxt = np.zeros(n_states)
                for s in range(n_states):
                    nxt[s] += alphas[-1][s] * p0[t]
                    nxt[s ^ int(syn[t])] += alphas[-1][s] * (1.0 - p0[t])
                alphas.append(nxt / nxt.sum())
            beta = np.eye(n_states)[0]
            posts = np.empty(code.n)
            for t in range(code.n - 1, -1, -1):
                num0 = (alphas[t] * p0[t] * beta).sum()
                num1 = sum(
                    alphas[t][s] * (1.0 - p0[t]) * beta[s ^ int(syn[t])]
                    for s in range(n_states)
                )
                posts[t] = np.log(num0) - np.log(num1)
                new = np.empty(n_states)
                for s in range(n_states):
                    new[s] = beta[s] * p0[t] + beta[s ^ int(syn[t])] * (1.0 - p0[t])
                beta = new / new.sum()
            np.testing.assert_allclose(bcjr_decode(code, priors), posts, atol=1e-7)

    def test_saturated_codeword_priors_keep_signs(self):
        code = extended_hamming(4)
        cws, _ = all_codewords(code)
        word = cws[137]
        priors = (1.0 - 2.0 * word.astype(np.float64)) * 35.0
        posts = bcjr_decode(code, priors)
        assert np.array_equal(posts > 0, priors > 0)
        assert np.abs(posts).min() > 30.0

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            bcjr_decode(extended_hamming(3), np.zeros(7))
        with pytest.raises(ValueError):
            bcjr_decode(extended_hamming(3), np.zeros((2, 7)))

    @pytest.mark.parametrize("bad", (np.inf, -np.inf, np.nan))
    def test_rejects_non_finite_priors(self, bad):
        priors = np.zeros((2, 8))
        priors[1, 5] = bad
        with pytest.raises(ValueError, match="^prior LLRs must be finite$"):
            bcjr_decode(extended_hamming(3), priors)

    def test_stack_equals_block_by_block(self):
        # one pass over a stack of blocks does each block's arithmetic exactly
        code = extended_hamming(4)
        rng = make_rng(12, "bcjr-stack")
        priors = 3.0 * rng.standard_normal((8, code.n))
        priors[2] = (1.0 - 2.0 * rng.integers(0, 2, size=code.n)) * 35.0
        priors[5] = (1.0 - 2.0 * code.encode(rng.integers(0, 2, size=code.k))) * 35.0
        priors[6] = 0.0
        stacked = bcjr_decode(code, priors)
        assert np.array_equal(stacked, np.array([bcjr_decode(code, row) for row in priors]))
        cube = priors[:6].reshape(2, 3, code.n)
        assert np.array_equal(bcjr_decode(code, cube), stacked[:6].reshape(2, 3, code.n))


def desk_system(seed=21):
    outer = extended_hamming(3)
    inner = sample_bgm(32, 16, 0.15, seed=seed)
    return ConcatSystem(outer, 4, inner, interleaver_seed=3)


class TestConcatSystem:
    def test_rate_accounting_desk_scale(self):
        outer = extended_hamming(4)
        inner = sample_bgm(8 * 16, 112, 0.1, seed=1)
        system = ConcatSystem(outer, 8, inner, interleaver_seed=0)
        assert system.total_rate == Fraction(8 * 11, 128 + 112)

    def test_rate_accounting_full_scale(self):
        # 8 outer [1024,1013] blocks over a 16048-bit inner frame; the
        # total rate lands marginally above one half
        outer = extended_hamming(10)
        inner = sample_bgm(8192, 7856, 0.001, seed=1)
        system = ConcatSystem(outer, 8, inner, interleaver_seed=0)
        assert system.total_rate == Fraction(8 * 1013, 8192 + 7856)
        assert abs(float(system.total_rate) - 0.5) < 0.006

    def test_rejects_dimension_mismatch(self):
        outer = extended_hamming(3)
        with pytest.raises(ValueError):
            ConcatSystem(outer, 4, sample_bgm(30, 16, 0.1, seed=0), interleaver_seed=0)
        with pytest.raises(ValueError):
            ConcatSystem(outer, 0, sample_bgm(32, 16, 0.1, seed=0), interleaver_seed=0)

    def test_encode_shape_check(self):
        system = desk_system()
        with pytest.raises(ValueError):
            concat_encode(system, np.zeros((3, 4), dtype=np.uint8))


class TestConcatDecode:
    def test_noiseless_recovery_in_one_round(self):
        system = desk_system()
        rng = make_rng(6, "clean")
        msgs = (rng.random((4, 4)) < 0.5).astype(np.uint8)
        x = concat_encode(system, msgs)
        llrs = (1.0 - 2.0 * x.astype(np.float64)) * 40.0
        out = concat_decode(system, llrs, ConcatConfig(rounds=1))
        u = np.empty(32, dtype=np.uint8)
        u[system.perm] = np.concatenate([system.outer.encode(m) for m in msgs])
        assert out.converged
        assert np.array_equal(out.hard_decision, u)

    def test_rejects_zero_rounds(self):
        with pytest.raises(ValueError, match="rounds must be >= 1"):
            ConcatConfig(rounds=0)

    @pytest.mark.parametrize("key", ("first_round_bp_iters", "later_bp_iters"))
    def test_rejects_zero_bp_iterations_naming_the_key(self, key):
        with pytest.raises(ValueError, match=f"^{key} must be >= 1$"):
            ConcatConfig(**{key: 0})

    def test_rejects_wrong_llr_length(self):
        with pytest.raises(ValueError):
            concat_decode(desk_system(), np.zeros(47))

    def test_extrinsic_separation_audit(self):
        # every message handed across subtracts the receiver's own last
        # contribution; verified in outer-stream order on a full trace of a
        # tiny system, and BP is re-run on the LLRs each round should hand it
        outer = extended_hamming(2)
        inner = sample_bgm(4, 6, 0.4, seed=2)
        system = ConcatSystem(outer, 1, inner, interleaver_seed=5)
        rng = make_rng(8, "audit")
        llrs = 1.5 * rng.standard_normal(10)
        cfg = ConcatConfig(rounds=3, first_round_bp_iters=10, later_bp_iters=5)
        _, trace = concat_decode(system, llrs, cfg, return_trace=True)
        assert len(trace) == 3
        apriori = np.zeros(4)
        for step in trace:
            seen = llrs.copy()
            seen[system.perm] += apriori
            iters = cfg.first_round_bp_iters if step["round"] == 0 else cfg.later_bp_iters
            bp = bp_decode(inner, seen, BpConfig(max_iterations=iters))
            np.testing.assert_array_equal(step["bp_posterior"], bp.posterior)
            np.testing.assert_array_equal(step["bcjr_prior"], step["bp_posterior"][system.perm] - apriori)
            apriori = np.clip(step["bcjr_posterior"] - step["bcjr_prior"], -LLR_CLAMP, LLR_CLAMP)

    def test_receiver_is_pinned(self):
        # sha256 of every round's BCJR posteriors: any change to the receiver's arithmetic moves it.
        # Taken with BP's codeword stop test, under which the inner rounds stop at 2/1/1 iterations,
        # and the BCJR's single sweep on offset metrics
        system = desk_system()
        rng = make_rng(17, "pin")
        x = concat_encode(system, rng.integers(0, 2, size=(4, 4), dtype=np.uint8))
        llrs = 2.0 / 0.7**2 * (1.0 - 2.0 * x + 0.7 * rng.standard_normal(48))
        _, trace = concat_decode(system, llrs, ConcatConfig(rounds=3), return_trace=True)
        digest = hashlib.sha256(b"".join(step["bcjr_posterior"].tobytes() for step in trace)).hexdigest()
        assert digest == "e94ee89a15388e646a822d6c47c6d39319f826c090ed7cf31b3c1a2c0a50dcef"

    def test_receiver_outcome_is_pinned(self):
        # sha256 of the decision, `converged` and `iterations_used` over 200
        # frames, some of which end unconverged after 10 iterations
        system = desk_system()
        rng = make_rng(23, "outcome-pin")
        digest = hashlib.sha256()
        for sigma in (0.6, 0.7, 0.8, 0.9):
            for _ in range(50):
                x = concat_encode(system, rng.integers(0, 2, size=(4, 4), dtype=np.uint8))
                llrs = 2.0 / sigma**2 * (1.0 - 2.0 * x + sigma * rng.standard_normal(48))
                out = concat_decode(system, llrs, ConcatConfig(rounds=3))
                digest.update(out.hard_decision.tobytes() + bytes([out.converged, out.iterations_used]))
        assert digest.hexdigest() == "f7555851409fbee23da75a6c8d04dcecfa6795de7149b280fb806327c64815e1"

    def test_every_round_is_exact_map_on_criterion_10s_system(self):
        # criterion 10's concat arm: 8 [16, 11] blocks over the (128, 112) inner code, 4 rounds;
        # each round's BCJR posteriors are the exhaustive bitwise MAP of its priors over 2048 words
        system = ConcatSystem(extended_hamming(4), 8, sample_bgm(128, 112, 0.15, seed=2), interleaver_seed=1)
        cfg = ConcatConfig(rounds=4, first_round_bp_iters=30)
        cws, _ = all_codewords(system.outer)
        rng = make_rng(28, "receiver-map")
        for sigma in (0.48, 0.7):
            for _ in range(20):
                x = concat_encode(system, rng.integers(0, 2, size=(8, 11), dtype=np.uint8))
                llrs = 2.0 / sigma**2 * (1.0 - 2.0 * x + sigma * rng.standard_normal(240))
                _, trace = concat_decode(system, llrs, cfg, return_trace=True)
                assert len(trace) == cfg.rounds
                for step in trace:
                    priors = step["bcjr_prior"].reshape(8, 16)
                    exact = np.array([map_bit_llrs(cws, block) for block in priors])
                    np.testing.assert_allclose(
                        step["bcjr_posterior"].reshape(8, 16), exact, rtol=0.0, atol=1e-9
                    )

    def test_floor_improvement_over_plain_code_at_matched_rate(self):
        # both systems carry 16 information bits in 48 channel bits, so
        # campaigns with one seed see the same messages and noise; the
        # plain code keeps a handful of weakly protected message bits while
        # the outer code cleans those up
        assert desk_system().total_rate == Fraction(16, 48)
        plain = {"construction": "bgm", "k": 16, "m": 32, "rho": 0.08, "seed": 21}
        concat = {
            "construction": "concat", "outer_r": 3, "blocks": 4,
            "inner": {"construction": "bgm", "k": 32, "m": 16, "rho": 0.15, "seed": 21},
            "interleaver_seed": 3, "rounds": 3, "first_round_bp_iters": 30,
        }
        plain_errs, concat_errs = (p.bit_errors for p in run_fixed_work((plain, concat), 0.65, 300, seed=99))
        assert plain_errs >= 10
        assert concat_errs < plain_errs
