"""Error-floor lower bounds against high-precision and Monte Carlo oracles."""

import mpmath
import numpy as np
import pytest

from bgmlab.bounds import (
    ber_lower_bound,
    fer_lower_bound,
    greedy_orthogonal_list,
    qfunc,
)
from bgmlab.decode import mld_exhaustive
from bgmlab.ensemble import SystematicCode, sample_bgm
from bgmlab.gf2 import BitMatrix
from bgmlab.rng import make_rng


def zero_generator_code(k, m):
    return SystematicCode(BitMatrix(k, m, []))


class TestQfunc:
    def test_center_and_symmetry(self):
        assert qfunc(0.0) == pytest.approx(0.5, abs=1e-15)
        for x in np.linspace(-8.0, 8.0, 33):
            assert qfunc(x) + qfunc(-x) == pytest.approx(1.0, abs=1e-12)

    def test_against_high_precision_oracle(self):
        mpmath.mp.dps = 50
        for x in np.concatenate([np.linspace(-2, 6, 17), [7.0, 10.0, 12.0]]):
            oracle = float(0.5 * mpmath.erfc(x / mpmath.sqrt(2)))
            assert qfunc(float(x)) == pytest.approx(oracle, rel=1e-10)


class TestBerLowerBound:
    def test_huge_noise_saturates_at_half(self):
        code = sample_bgm(12, 12, 0.25, seed=1)
        assert ber_lower_bound(code, 1e9) == pytest.approx(0.5, abs=1e-6)

    def test_zero_generator_is_single_q_value(self):
        code = zero_generator_code(5, 3)
        for sigma in (0.5, 1.0, 2.0):
            assert ber_lower_bound(code, sigma) == pytest.approx(
                float(qfunc(1.0 / sigma)), abs=1e-15
            )

    def test_monotone_in_snr(self):
        code = sample_bgm(16, 16, 0.2, seed=2)
        sigmas = np.linspace(0.3, 2.0, 12)
        values = [ber_lower_bound(code, s) for s in sigmas]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rejects_bad_sigma(self):
        code = sample_bgm(4, 4, 0.25, seed=0)
        for sigma in (0.0, float("nan"), float("inf")):
            for bound in (ber_lower_bound, fer_lower_bound):
                with pytest.raises(ValueError, match="^sigma must be finite and positive"):
                    bound(code, sigma)


class TestGreedyOrthogonalList:
    def test_zero_generator_selects_everything(self):
        code = zero_generator_code(6, 4)
        assert greedy_orthogonal_list(code) == list(range(6))

    def test_shared_column_blocks_selection(self):
        code = SystematicCode(BitMatrix(2, 1, [(0, 0), (1, 0)]))
        assert greedy_orthogonal_list(code) == [0]

    def test_matches_independent_greedy_replay(self):
        code = sample_bgm(8, 10, 0.3, seed=5)
        supports = [set(map(int, s)) for s in code.g.row_supports]
        expected = []
        used = set()
        for i in sorted(range(8), key=lambda i: (int(code.row_weights[i]), i)):
            if supports[i] & used:
                continue
            expected.append(i)
            used |= supports[i]
        got = greedy_orthogonal_list(code)
        assert got == expected
        for a in range(len(got)):
            for b in range(a + 1, len(got)):
                assert not (supports[got[a]] & supports[got[b]])


class TestFerLowerBound:
    def test_single_unit_weight_row(self):
        code = zero_generator_code(1, 2)
        assert fer_lower_bound(code, 0.8) == pytest.approx(
            float(qfunc(1.0 / 0.8)), abs=1e-15
        )

    def test_collapsed_list_single_factor(self):
        # every G row hits the same column, so one weight-2 row survives
        code = SystematicCode(BitMatrix(3, 1, [(0, 0), (1, 0), (2, 0)]))
        assert fer_lower_bound(code, 1.1) == pytest.approx(
            float(qfunc(np.sqrt(2.0) / 1.1)), abs=1e-15
        )

    def test_dominates_min_weight_event(self):
        code = sample_bgm(16, 16, 0.2, seed=3)
        rows = greedy_orthogonal_list(code)
        w_min = int(code.row_weights[rows].min())
        for sigma in (0.5, 1.0):
            assert fer_lower_bound(code, sigma) >= float(
                qfunc(np.sqrt(w_min) / sigma)
            )


class TestBoundsAgainstMldOracle:
    def test_toy_code_monte_carlo_dominates_bounds(self):
        code = sample_bgm(4, 4, 0.25, seed=11)
        sigma = 1.0
        msgs = ((np.arange(16)[:, None] >> np.arange(3, -1, -1)) & 1).astype(np.uint8)
        cws = np.concatenate([msgs, (msgs @ code.g.to_dense()) & 1], axis=1)
        signs = 1.0 - 2.0 * cws

        rng = make_rng(12, "bound-mc")
        # vectorized MLD for the all-zero transmission; argmax of the
        # correlation matches mld_exhaustive including the lowest-lex tie rule
        spot = 1.0 + sigma * rng.standard_normal((100, 8))
        for y in spot:
            idx = int(np.argmax(signs @ y))
            assert np.array_equal(
                mld_exhaustive(code, 2.0 * y / sigma**2), msgs[idx]
            )

        trials = 1_000_000
        frame_bits = np.empty(0)
        bit_counts = []
        frame_errs = 0
        for _ in range(4):
            y = 1.0 + sigma * rng.standard_normal((trials // 4, 8))
            decided = np.argmax(y @ signs.T, axis=1)
            bit_counts.append(msgs[decided].sum(axis=1))
            frame_errs += int(np.count_nonzero(decided))
        bit_counts = np.concatenate(bit_counts)
        ber_hat = bit_counts.mean() / 4.0
        ber_se = bit_counts.std(ddof=1) / (4.0 * np.sqrt(trials))
        fer_hat = frame_errs / trials
        fer_se = np.sqrt(fer_hat * (1.0 - fer_hat) / trials)

        assert ber_lower_bound(code, sigma) <= ber_hat + 3.0 * ber_se
        assert fer_lower_bound(code, sigma) <= fer_hat + 3.0 * fer_se
