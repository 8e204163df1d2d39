"""Ensemble sampling and weight enumerators against closed forms and Monte Carlo."""

import hashlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from bgmlab.ensemble import (
    bpc_weight_distribution,
    encode,
    iowef,
    load_code,
    rho_omega,
    sample_bgm,
    sample_bpc,
    sample_fixed_row_weight,
    save_code,
)
from bgmlab.rng import make_rng


class TestRhoOmega:
    def test_degenerate_points(self):
        assert rho_omega(0.5, 1) == 0.5
        assert rho_omega(0.5, 7) == 0.5
        assert rho_omega(0.3, 0) == 0.0
        assert rho_omega(0.3, 1) == pytest.approx(0.3, abs=1e-15)

    def test_rejects_rho_outside_half_interval(self):
        for bad in (0.0, -0.1, 0.5001, 1.0):
            with pytest.raises(ValueError):
                rho_omega(bad, 3)

    def test_rejects_negative_omega(self):
        with pytest.raises(ValueError):
            rho_omega(0.1, -1)

    def test_monte_carlo_parity(self):
        # XOR of omega Bernoulli(rho) bits is odd-count parity, so the
        # closed form must sit inside the binomial confidence band.
        rho, omega, trials = 0.01, 5, 10_000_000
        p = rho_omega(rho, omega)
        rng = make_rng(99, "rho-omega-mc")
        ones = rng.binomial(omega, rho, size=trials)
        est = float(np.mean(ones & 1))
        se = np.sqrt(p * (1.0 - p) / trials)
        assert abs(est - p) <= 3.0 * se

    def test_monotone_chain_on_grid(self):
        for rho in (0.01, 0.1, 0.25, 0.49, 0.5):
            prev = rho_omega(rho, 1)
            assert prev >= rho - 1e-15
            for omega in range(2, 60):
                cur = rho_omega(rho, omega)
                assert prev - 1e-15 <= cur <= 0.5 + 1e-15
                prev = cur

    @given(
        rho=st.floats(min_value=1e-3, max_value=0.5),
        omega=st.integers(min_value=1, max_value=300),
    )
    def test_chain_property(self, rho, omega):
        lo = rho_omega(rho, omega)
        hi = rho_omega(rho, omega + 1)
        assert rho - 1e-12 <= lo <= hi + 1e-12 <= 0.5 + 2e-12


class TestSampleBgm:
    def test_seed_determinism(self):
        a = sample_bgm(32, 48, 0.1, seed=5)
        b = sample_bgm(32, 48, 0.1, seed=5)
        assert a.g == b.g
        assert sample_bgm(32, 48, 0.1, seed=6).g != a.g

    @pytest.mark.parametrize("k, m, rho, seed, digest", (
        (64, 64, 0.05, 3, "6200bb906f948a35"),
        (513, 2000, 0.01, 1, "7ed4649359ce6247"),  # 513 rows are 3 blocks of 131 and one of 120
        (2, 300000, 0.001, 7, "4de29243d0ab00ef"),  # each row is wider than a block
        (3000, 1, 0.5, 2, "591ed9a40e2b7e4e"),
    ))
    def test_draw_is_pinned(self, k, m, rho, seed, digest):
        # bgm and bpc read the same stream; the digests were taken when each
        # row was drawn by its own rng.random(m) call
        for code in (sample_bgm(k, m, rho, seed=seed), sample_bpc(k, m, rho, seed=seed)):
            assert hashlib.sha256(code.g.edges.tobytes()).hexdigest()[:16] == digest

    def test_density_concentrates(self):
        k = m = 1024
        rho = 0.01
        code = sample_bgm(k, m, rho, seed=17)
        density = code.g.nnz() / (k * m)
        assert abs(density - rho) <= 4.0 * np.sqrt(rho * (1 - rho) / (k * m))

    def test_half_rho_is_unbiased(self):
        total = 0
        n_samples = 1000
        for seed in range(n_samples):
            total += sample_bgm(8, 8, 0.5, seed=seed).g.nnz()
        mean = total / (n_samples * 64)
        sigma = np.sqrt(0.25 / (n_samples * 64))
        assert abs(mean - 0.5) <= 3.0 * sigma

    def test_rate_and_row_weights(self):
        code = sample_bgm(6, 18, 0.3, seed=1)
        assert code.rate == Fraction(1, 4)
        dense = code.g.to_dense()
        assert np.array_equal(code.row_weights, 1 + dense.sum(axis=1))
        assert np.all(code.row_weights >= 1)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            sample_bgm(0, 4, 0.1, seed=0)
        with pytest.raises(ValueError):
            sample_bgm(4, 4, 0.0, seed=0)
        with pytest.raises(ValueError):
            sample_bgm(4, 4, 0.75, seed=0)


class TestFixedRowWeight:
    def test_full_weight_gives_all_ones(self):
        for k, m in ((5, 6), (1024, 1024)):
            code = sample_fixed_row_weight(k, m, m, seed=0)
            assert np.all(code.g.to_dense() == 1)

    def test_exact_row_weights_at_scale(self):
        code = sample_fixed_row_weight(1024, 1024, 8, seed=3)
        assert np.all(code.g.row_weights() == 8)

    def test_rejects_overweight_rows(self):
        with pytest.raises(ValueError):
            sample_fixed_row_weight(4, 4, 5, seed=0)

    def test_seed_determinism(self):
        a = sample_fixed_row_weight(16, 32, 4, seed=9)
        b = sample_fixed_row_weight(16, 32, 4, seed=9)
        assert a.g == b.g

    def test_column_weights_are_binomial(self):
        # each row places w ones uniformly, so a fixed column is hit with
        # probability w/m independently per row
        k, m, w = 200, 50, 5
        observed = np.concatenate(
            [
                sample_fixed_row_weight(k, m, w, seed=s).g.to_dense().sum(axis=0)
                for s in range(40)
            ]
        )
        support = np.arange(k + 1)
        pmf = stats.binom.pmf(support, k, w / m)
        expected = pmf * observed.size
        # pool tail bins so every expected count is at least 5
        lo = int(np.searchsorted(np.cumsum(expected), 5.0))
        hi = int(support.size - np.searchsorted(np.cumsum(expected[::-1]), 5.0))
        edges = np.concatenate([[-0.5], support[lo:hi] + 0.5, [k + 0.5]])
        obs_binned, _ = np.histogram(observed, bins=edges)
        exp_binned = np.concatenate(
            [[expected[: lo + 1].sum()], expected[lo + 1 : hi], [expected[hi:].sum()]]
        )
        exp_binned *= obs_binned.sum() / exp_binned.sum()
        _, pvalue = stats.chisquare(obs_binned, exp_binned)
        assert pvalue > 1e-3

    def test_every_subset_is_equally_likely(self):
        # each row is a uniform 2-subset of 5 columns: C(5, 2) = 10 outcomes
        k, m = 60000, 5
        dense = sample_fixed_row_weight(k, m, 2, seed=0).g.to_dense()
        subset = dense @ (1 << np.arange(m))
        outcomes = [(1 << a) | (1 << b) for a in range(m) for b in range(a + 1, m)]
        counts = np.array([np.count_nonzero(subset == s) for s in outcomes])
        assert counts.sum() == k
        _, pvalue = stats.chisquare(counts)
        assert pvalue > 1e-3

    @pytest.mark.parametrize("w", [0, 1, 15, 16])
    def test_rows_hold_w_distinct_sorted_columns(self, w):
        code = sample_fixed_row_weight(40, 16, w, seed=4)
        for support in code.g.row_supports:
            assert support.size == w
            assert np.all(np.diff(support) > 0)


class TestEncode:
    def test_zero_message(self):
        code = sample_bgm(7, 9, 0.3, seed=2)
        assert not encode(code, np.zeros(7, dtype=np.uint8)).any()

    def test_unit_vectors_reproduce_rows(self):
        code = sample_bgm(6, 10, 0.3, seed=4)
        dense = code.g.to_dense()
        for i in range(code.k):
            u = np.zeros(code.k, dtype=np.uint8)
            u[i] = 1
            word = encode(code, u)
            assert np.array_equal(word[: code.k], u)
            assert np.array_equal(word[code.k :], dense[i])
            assert word.sum() == code.row_weights[i]

    def test_linearity(self):
        code = sample_bgm(12, 8, 0.25, seed=7)
        rng = make_rng(7, "encode-linearity")
        for _ in range(50):
            u1 = rng.integers(0, 2, size=code.k).astype(np.uint8)
            u2 = rng.integers(0, 2, size=code.k).astype(np.uint8)
            assert np.array_equal(
                encode(code, u1) ^ encode(code, u2), encode(code, u1 ^ u2)
            )

    def test_rejects_length_mismatch(self):
        code = sample_bgm(5, 5, 0.2, seed=0)
        with pytest.raises(ValueError):
            encode(code, np.zeros(4, dtype=np.uint8))

    def test_injective_exhaustively(self):
        code = sample_bgm(8, 4, 0.4, seed=11)
        words = {
            bytes(encode(code, ((val >> np.arange(8)) & 1).astype(np.uint8)))
            for val in range(256)
        }
        assert len(words) == 256


class TestIowef:
    def test_zero_weight_row(self):
        table = iowef(10, 6, 0.2)
        assert table.coefficients[0, 0] == 1.0
        assert np.all(table.log_coeff[0, 1:] == -np.inf)

    def test_weight_one_mass_is_k(self):
        table = iowef(10, 7, 0.2)
        assert np.sum(table.coefficients[1]) == pytest.approx(10.0, rel=1e-12)

    def test_two_by_two_exact(self):
        table = iowef(1, 1, 0.3)
        assert table.coefficients == pytest.approx(
            np.array([[1.0, 0.0], [0.7, 0.3]]), abs=1e-12
        )

    @pytest.mark.parametrize("k", [8, 16, 30])
    def test_total_mass(self, k):
        table = iowef(k, 12, 0.25)
        assert table.log_total() == pytest.approx(k * np.log(2.0), rel=1e-9)

    def test_truncation(self):
        table = iowef(12, 5, 0.1, max_input_weight=3)
        assert table.log_coeff.shape == (4, 6)
        with pytest.raises(ValueError):
            iowef(12, 5, 0.1, max_input_weight=13)

    def test_matches_sampled_ensemble(self):
        # brute-force ensemble average over independently drawn matrices,
        # compared only where the Monte Carlo error is small
        k = m = 6
        rho = 0.25
        n_codes = 600
        analytic = iowef(k, m, rho).coefficients
        messages = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
        in_weight = messages.sum(axis=1)
        rng = make_rng(123, "iowef-oracle")
        counts = np.zeros((k + 1, m + 1))
        for _ in range(n_codes):
            g = (rng.random((k, m)) < rho).astype(np.uint8)
            out_weight = (messages @ g % 2).sum(axis=1)
            np.add.at(counts, (in_weight, out_weight), 1.0)
        estimate = counts / n_codes
        mask = analytic >= 1.0
        se = np.sqrt(analytic[mask] / n_codes)
        assert np.all(np.abs(estimate[mask] - analytic[mask]) <= 5.0 * se)


class TestBpc:
    def test_membership_and_rates(self):
        code = sample_bpc(12, 5, 0.25, seed=8)
        assert code.design_rate == Fraction(7, 12)
        assert code.actual_rate >= code.design_rate
        assert code.contains(np.zeros(12, dtype=np.uint8))

    def test_zero_weight_entry(self):
        assert bpc_weight_distribution(10, 4, 0.3)[0] == 1.0

    def test_half_rho_closed_form(self):
        k, m = 11, 6
        dist = bpc_weight_distribution(k, m, 0.5)
        omega = np.arange(k + 1)
        expected = stats.binom(k, 0.5).pmf(omega) * 2.0**k * 2.0**-m
        expected[0] = 1.0
        assert dist == pytest.approx(expected, rel=1e-12)

    def test_matches_exhaustive_ensemble(self):
        # every weight-omega vector survives all m checks with probability
        # (1 - rho_omega)^m; verify by enumerating membership per sample
        k, m, rho = 12, 6, 0.25
        n_codes = 500
        analytic = bpc_weight_distribution(k, m, rho)
        vectors = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1).astype(np.uint8)
        weights = vectors.sum(axis=1)
        rng = make_rng(0, "bpc-oracle")
        counts = np.zeros(k + 1)
        for _ in range(n_codes):
            g = (rng.random((k, m)) < rho).astype(np.uint8)
            member = ~(vectors @ g % 2).any(axis=1)
            np.add.at(counts, weights[member], 1.0)
        estimate = counts / n_codes
        mask = analytic >= 0.5
        rel = np.abs(estimate[mask] - analytic[mask]) / analytic[mask]
        assert rel.max() <= 0.05


class TestSerialization:
    def test_systematic_round_trip(self, tmp_path):
        code = sample_bgm(9, 13, 0.2, seed=21)
        path = tmp_path / "code.txt"
        save_code(code, path)
        loaded = load_code(path)
        assert loaded.g == code.g
        assert loaded.k == code.k and loaded.m == code.m
        assert loaded.meta["construction"] == "bgm"
        assert loaded.meta["rho"] == 0.2

    def test_bpc_round_trip(self, tmp_path):
        # a bpc code is saved like any other, but its parity bits are known at
        # the decoder, so no reader of systematic codes takes it back
        code = sample_bpc(7, 3, 0.4, seed=2)
        path = tmp_path / "bpc.txt"
        save_code(code, path)
        assert path.exists() and (tmp_path / "bpc.txt.json").exists()
        with pytest.raises(ValueError, match=f"^{path}: holds a bpc code, not a systematic code$"):
            load_code(path)

    def test_missing_sidecar_still_loads(self, tmp_path):
        code = sample_fixed_row_weight(6, 8, 2, seed=1)
        path = tmp_path / "bare.txt"
        save_code(code, path)
        (tmp_path / "bare.txt.json").unlink()
        loaded = load_code(path)
        assert loaded.g == code.g
        assert loaded.meta == {}
