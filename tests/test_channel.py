"""Channel models, information quantities, and the threshold bound."""

import math

import mpmath
import numpy as np
import pytest
from scipy import stats

from bgmlab.channel import (
    BEC_ERASURE,
    LLR_SAT,
    Bec,
    BpskAwgn,
    Bsc,
    binary_entropy,
    capacity,
    channel_from_config,
    e0,
    ldpc_threshold_bound,
    llr,
    partial_error_exponent,
    partial_mutual_information,
    sigma_from_ebn0_db,
    transmit,
)
from bgmlab.ensemble import rho_omega
from bgmlab.rng import make_rng


class TestTransmit:
    def test_awgn_vanishing_noise(self):
        ch = BpskAwgn(1e-12)
        bits = np.array([0, 1, 1, 0], dtype=np.uint8)
        received = transmit(ch, bits, make_rng(0, "awgn-clean"))
        assert np.allclose(received, [1.0, -1.0, -1.0, 1.0], atol=1e-10)

    def test_bsc_noiseless(self):
        bits = make_rng(1, "bits").integers(0, 2, size=256).astype(np.uint8)
        assert np.array_equal(transmit(Bsc(0.0), bits, make_rng(2, "x")), bits)

    def test_bsc_flip_rate(self):
        n = 1_000_000
        bits = np.zeros(n, dtype=np.uint8)
        received = transmit(Bsc(0.1), bits, make_rng(3, "bsc-mc"))
        rate = received.mean()
        assert abs(rate - 0.1) <= 3.0 * np.sqrt(0.1 * 0.9 / n)

    def test_bec_marks_erasures_only(self):
        bits = make_rng(4, "bits").integers(0, 2, size=4096).astype(np.uint8)
        received = transmit(Bec(0.3), bits, make_rng(5, "bec"))
        erased = received == BEC_ERASURE
        assert 0 < erased.sum() < bits.size
        assert np.array_equal(received[~erased], bits[~erased])
        assert np.all(transmit(Bec(1.0), bits, make_rng(6, "y")) == BEC_ERASURE)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            Bsc(1.5)
        with pytest.raises(ValueError):
            Bec(-0.1)
        for sigma in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="^sigma must be finite and positive"):
                BpskAwgn(sigma)


class TestLlr:
    def test_awgn_reference_points(self):
        ch = BpskAwgn(0.8)
        out = llr(ch, np.array([0.0, ch.sigma2 / 2.0, -ch.sigma2]))
        assert out == pytest.approx([0.0, 1.0, -2.0], abs=1e-15)

    def test_bsc_magnitude(self):
        out = llr(Bsc(0.1), np.array([0, 1], dtype=np.uint8))
        assert out == pytest.approx([math.log(9.0), -math.log(9.0)], abs=1e-12)

    def test_bsc_degenerate_saturates(self):
        out = llr(Bsc(0.0), np.array([0, 1], dtype=np.uint8))
        assert np.array_equal(out, [LLR_SAT, -LLR_SAT])

    def test_bsc_above_half_flips_sign(self):
        # a 0.9-crossover channel makes a received 0 evidence FOR a one
        out = llr(Bsc(0.9), np.array([0, 1], dtype=np.uint8))
        assert out == pytest.approx([-math.log(9.0), math.log(9.0)], abs=1e-12)

    def test_bsc_is_bit_identical_to_the_log_ratio(self):
        # +/-min(|log((1-p)/p)|, LLR_SAT), a received 0 counting for a one once p > 1/2;
        # compared as bytes, so the -0.0 of a received 1 at p = 1/2 counts too
        received = np.array([[0, 1, 1], [1, 0, 0]], dtype=np.uint8)
        sign = 1.0 - 2.0 * received
        for p in (0.0, 1e-300, 1e-12, 0.01, 0.07, 0.11, 0.3, 0.49, 0.5, 0.51, 0.7, 0.93, 1 - 1e-12, 1.0):
            mag = LLR_SAT if p in (0.0, 1.0) else min(abs(math.log((1.0 - p) / p)), LLR_SAT)
            expected = sign * mag if p <= 0.5 else -sign * mag
            assert llr(Bsc(p), received).tobytes() == expected.tobytes()

    def test_bec_erasure_is_exact_zero(self):
        received = np.array([0, BEC_ERASURE, 1], dtype=np.int8)
        out = llr(Bec(0.4), received)
        assert out[1] == 0.0
        assert np.array_equal(out, [LLR_SAT, 0.0, -LLR_SAT])


class TestChannelConfig:
    def test_round_trips(self):
        assert channel_from_config({"type": "bsc", "param": 0.07}) == Bsc(0.07)
        assert channel_from_config({"type": "bec", "param": 0.4}) == Bec(0.4)
        assert channel_from_config({"type": "awgn", "param": 0.9}) == BpskAwgn(0.9)

    def test_ebn0_conversion(self):
        assert sigma_from_ebn0_db(0.0, 0.5) == pytest.approx(1.0, abs=1e-15)

    @pytest.mark.parametrize("ebn0_db", (-math.inf, math.inf, math.nan, 4000.0, -4000.0))
    def test_ebn0_without_a_finite_sigma_refused(self, ebn0_db):
        with pytest.raises(ValueError, match=f"^Eb/N0 of {ebn0_db} dB gives no finite positive sigma$"):
            sigma_from_ebn0_db(ebn0_db, 0.5)

    def test_rejects_incomplete_config(self):
        with pytest.raises(ValueError):
            channel_from_config({"type": "laplace", "param": 1.0})


class TestPartialMutualInformation:
    def test_zero_at_p_zero(self):
        for ch in (Bsc(0.1), Bec(0.25), BpskAwgn(0.8)):
            assert partial_mutual_information(ch, 0.0) == 0.0

    def test_bsc_capacity_closed_form(self):
        value = partial_mutual_information(Bsc(0.11), 0.5)
        assert value == pytest.approx(1.0 - binary_entropy(0.11), abs=1e-12)

    def test_bec_closed_form(self):
        # conditioning on input 0, only the unerased branch carries
        # information: I_0(p) = -(1 - eps) log2(1 - p)
        eps = 0.35
        for p in (0.1, 0.3, 0.5):
            value = partial_mutual_information(Bec(eps), p)
            assert value == pytest.approx(-(1 - eps) * math.log2(1 - p), abs=1e-12)

    def test_awgn_capacity_against_quadrature_oracle(self):
        sigma = 0.97869
        s2 = sigma * sigma

        def integrand(y):
            dens = mpmath.exp(-((y - 1) ** 2) / (2 * s2)) / mpmath.sqrt(2 * mpmath.pi * s2)
            return dens * (1 - mpmath.log(1 + mpmath.exp(-2 * y / s2)) / mpmath.log(2))

        oracle = float(mpmath.quad(integrand, [-mpmath.inf, 1, mpmath.inf]))
        assert capacity(BpskAwgn(sigma)) == pytest.approx(oracle, abs=1e-8)

    def test_strictly_increasing_in_p(self):
        grid = np.linspace(0.0, 0.5, 50)
        for ch in (Bsc(0.11), Bec(0.4), BpskAwgn(0.97869)):
            values = [partial_mutual_information(ch, p) for p in grid]
            assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_p_outside_half_interval(self):
        with pytest.raises(ValueError):
            partial_mutual_information(Bsc(0.1), 0.6)

    def test_trivial_capacities(self):
        assert capacity(Bec(0.5)) == pytest.approx(0.5, abs=1e-12)
        assert capacity(Bsc(0.0)) == pytest.approx(1.0, abs=1e-12)

    def test_capacities_at_the_edges_of_the_parameter_range(self):
        assert capacity(Bsc(0.7)) == pytest.approx(1.0 - binary_entropy(0.7), abs=1e-12)
        assert capacity(Bsc(1.0)) == pytest.approx(1.0, abs=1e-12)
        assert capacity(Bec(0.0)) == pytest.approx(1.0, abs=1e-12)
        assert capacity(Bec(1.0)) == 0.0
        # a useless channel carries +0.0 bits, not -0.0
        for ch in (Bec(1.0), Bsc(0.5)):
            assert math.copysign(1.0, capacity(ch)) == 1.0


class TestGallagerE0:
    def test_zero_gamma_collapses(self):
        for ch in (Bsc(0.1), Bec(0.3), BpskAwgn(1.1)):
            for p in (0.1, 0.5):
                assert e0(ch, p, 0.0) == pytest.approx(0.0, abs=1e-12)

    def test_slope_at_zero_is_partial_information(self):
        h = 1e-5
        for ch in (Bsc(0.1), Bec(0.3), BpskAwgn(0.97869)):
            for p in (0.2, 0.5):
                slope = e0(ch, p, h) / h
                assert slope == pytest.approx(
                    partial_mutual_information(ch, p), abs=1e-3
                )

    def test_bsc_cutoff_rate(self):
        # gamma = 1 at uniform prior reduces to the cutoff rate
        # -log2((1 + 2 sqrt(p(1-p))) / 2), evaluated here for p = 0.1
        value = e0(Bsc(0.1), 0.5, 1.0)
        expected = -math.log2((1.0 + 2.0 * math.sqrt(0.09)) / 2.0)
        assert value == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.32192809488736235, abs=1e-15)

    def test_bsc_above_half_cutoff_rate(self):
        # the crossover 0.7 channel is the 0.3 one with its outputs relabeled
        value = e0(Bsc(0.7), 0.5, 1.0)
        assert value == pytest.approx(-math.log2((1.0 + 2.0 * math.sqrt(0.21)) / 2.0), abs=1e-12)

    def test_zero_gamma_is_plus_zero(self):
        for ch in (Bsc(0.11), Bec(0.5), BpskAwgn(0.8)):
            for p in (0.0, 0.2, 0.5):
                assert math.copysign(1.0, e0(ch, p, 0.0)) == 1.0 and e0(ch, p, 0.0) == 0.0

    def test_concave_in_gamma(self):
        grid = np.linspace(0.0, 1.0, 21)
        for ch in (Bsc(0.1), BpskAwgn(0.9)):
            vals = np.array([e0(ch, 0.5, g) for g in grid])
            mids = np.array([e0(ch, 0.5, (a + b) / 2) for a, b in zip(grid, grid[1:])])
            assert np.all(mids >= (vals[:-1] + vals[1:]) / 2 - 1e-9)

    def test_rejects_gamma_outside_unit_interval(self):
        with pytest.raises(ValueError):
            e0(Bsc(0.1), 0.5, 1.5)


class TestPartialErrorExponent:
    def test_zero_above_information_rate(self):
        for ch in (Bsc(0.1), Bec(0.3)):
            info = partial_mutual_information(ch, 0.5)
            assert partial_error_exponent(ch, 0.5, 1.2 * info) == pytest.approx(
                0.0, abs=1e-6
            )

    def test_rate_zero_maximizes_at_gamma_one(self):
        for ch in (Bsc(0.1), Bec(0.3)):
            assert partial_error_exponent(ch, 0.5, 0.0) == pytest.approx(
                e0(ch, 0.5, 1.0), abs=1e-7
            )

    def test_positive_below_information_rate(self):
        info = partial_mutual_information(Bsc(0.1), 0.5)
        assert partial_error_exponent(Bsc(0.1), 0.5, 0.9 * info) > 0.0

    def test_nonincreasing_in_rate(self):
        for ch in (Bsc(0.1), BpskAwgn(0.9)):
            rates = np.linspace(0.0, 1.0, 11)
            vals = [partial_error_exponent(ch, 0.4, r) for r in rates]
            assert all(a >= b - 1e-10 for a, b in zip(vals, vals[1:]))

    def test_rejects_negative_rate(self):
        for rate in (-0.1, float("nan")):
            with pytest.raises(ValueError, match="^rate must be finite and non-negative"):
                partial_error_exponent(Bsc(0.1), 0.5, rate)


class TestThresholdBound:
    def test_three_six_matches_reference(self):
        assert ldpc_threshold_bound(3, 6) == pytest.approx(0.102, abs=0.002)

    def test_four_eight_defining_inequality(self):
        th = ldpc_threshold_bound(4, 8)

        def margin(p):
            return 4 * binary_entropy(rho_omega(p, 8)) - 8 * binary_entropy(p)

        assert 0.0 < th < 0.5
        assert margin(th - 1e-4) > 0.0
        assert margin(th + 1e-4) < 0.0

    def test_equal_degrees_never_bind(self):
        # rho_d(p) > p on (0, 1/2) so the defining inequality holds everywhere
        assert ldpc_threshold_bound(4, 4) == 0.5
        assert ldpc_threshold_bound(6, 3) == 0.5

    def test_rejects_degenerate_degrees(self):
        with pytest.raises(ValueError):
            ldpc_threshold_bound(0, 6)
        with pytest.raises(ValueError):
            ldpc_threshold_bound(3, 1)


class TestOutputSymmetry:
    def test_awgn_llr_mirror(self):
        ch = BpskAwgn(0.9)
        n = 1_000_000
        zero = llr(ch, transmit(ch, np.zeros(n, dtype=np.uint8), make_rng(7, "sym0")))
        one = llr(ch, transmit(ch, np.ones(n, dtype=np.uint8), make_rng(8, "sym1")))
        _, pvalue = stats.ks_2samp(zero, -one)
        assert pvalue > 0.01

    def test_discrete_llr_mirror(self):
        # discrete outputs have ties, so compare atom frequencies instead
        n = 1_000_000
        for ch in (Bsc(0.12), Bec(0.3)):
            zero = llr(ch, transmit(ch, np.zeros(n, dtype=np.uint8), make_rng(9, "d0")))
            one = llr(ch, transmit(ch, np.ones(n, dtype=np.uint8), make_rng(10, "d1")))
            atoms = np.unique(np.concatenate([zero, -one]))
            for atom in atoms:
                f0 = np.mean(zero == atom)
                f1 = np.mean(-one == atom)
                se = np.sqrt(max(f0 * (1 - f0), f1 * (1 - f1), 1e-12) / n)
                assert abs(f0 - f1) <= 4.0 * np.sqrt(2.0) * se
