"""Degree-correlated population dynamics against closed-form density evolution."""

import dataclasses
import hashlib

import numpy as np
import pytest
from scipy.stats import binom

from bgmlab.channel import Bec, BpskAwgn, Bsc
from bgmlab.ensemble import sample_bgm
from bgmlab.graph import BipartiteGraph, configuration_model
from bgmlab.popdyn import (
    EdgeDegreeLaw,
    _ClassSampler,
    law_from_ensemble,
    law_from_graph,
    popdyn_run,
    regular_law,
)

import bec_popdyn


def law_correlation(law):
    kv = law.var_degrees.astype(float)
    kc = law.chk_degrees.astype(float)
    ev = (law.q_v * kv).sum()
    ec = (law.q_c * kc).sum()
    cov = (law.joint * np.outer(kv - ev, kc - ec)).sum()
    sv = np.sqrt((law.q_v * (kv - ev) ** 2).sum())
    sc = np.sqrt((law.q_c * (kc - ec) ** 2).sum())
    return cov / (sv * sc)


def graph_law(r_star, k=256, rho=0.04):
    """Joint law of a graph built at r_star over a sampled BGM profile."""
    profile = sample_bgm(k, k, rho, seed=1).g
    built = configuration_model(
        profile.row_weights(), profile.col_weights(), r_star, epsilon=0.05, seed=0
    )
    return law_from_graph(built.graph)


class TestEdgeDegreeLaw:
    def test_conditionals_normalized(self):
        law = graph_law(-0.3)
        np.testing.assert_allclose(law.cond_c_given_v.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(law.cond_v_given_c.sum(axis=1), 1.0, atol=1e-12)
        np.testing.assert_allclose(law.joint.sum(), 1.0, atol=1e-12)

    def test_node_law_divides_out_edge_weighting(self):
        law = EdgeDegreeLaw(
            var_degrees=np.array([2, 4]),
            chk_degrees=np.array([3]),
            joint=np.array([[0.5], [0.5]]),
        )
        # equal edge mass on degrees 2 and 4 means twice as many degree-2 nodes
        np.testing.assert_allclose(law.node_v, [2 / 3, 1 / 3], atol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            EdgeDegreeLaw(np.array([2]), np.array([3]), np.ones((2, 1)))
        with pytest.raises(ValueError):
            EdgeDegreeLaw(np.array([2]), np.array([3]), np.zeros((1, 1)))
        with pytest.raises(ValueError):
            EdgeDegreeLaw(np.array([2]), np.array([3]), -np.ones((1, 1)))
        with pytest.raises(ValueError):
            EdgeDegreeLaw(np.array([0]), np.array([3]), np.ones((1, 1)))
        with pytest.raises(ValueError):
            EdgeDegreeLaw(
                np.array([2]), np.array([1]), np.ones((1, 1)), parity_attached=True
            )

    @pytest.mark.parametrize("bad", (np.nan, np.inf, -np.inf))
    def test_non_finite_joint_refused(self, bad):
        joint = np.array([[0.5, 0.1], [bad, 0.25]])
        with pytest.raises(ValueError, match="finite"):
            EdgeDegreeLaw(np.array([2, 5]), np.array([3, 7]), joint)


class TestLawFromEnsemble:
    def test_gives_product_law(self):
        law = law_from_ensemble(128, 128, 0.05)
        np.testing.assert_allclose(
            law.joint, np.outer(law.q_v, law.q_c), atol=1e-12
        )
        assert abs(law_correlation(law)) < 1e-10

    def test_marginals_match_excess_weighted_binomials(self):
        k = m = 512
        rho = 0.02
        law = law_from_ensemble(k, m, rho)
        support = np.arange(m + 1)
        pmf = binom.pmf(support, m, rho)
        keep = (pmf >= 1e-9) & (support >= 1)
        q_v = support[keep] * pmf[keep]
        q_v = q_v / q_v.sum()
        np.testing.assert_allclose(law.joint.sum(axis=1), q_v, atol=1e-6)
        # check side: plus one for the parity slot
        np.testing.assert_allclose(law.chk_degrees, support[keep] + 1)
        np.testing.assert_allclose(law.joint.sum(axis=0), q_v, atol=1e-6)


class TestLawFromGraph:
    def test_hand_count(self):
        # edges (v0,c0), (v1,c0), (v1,c1): variable degrees 1, 2 and check
        # degrees 2, 1, each check counting one more for its parity slot
        law = law_from_graph(BipartiteGraph(2, 2, [(0, 0), (1, 0), (1, 1)]))
        assert law.parity_attached
        np.testing.assert_array_equal(law.var_degrees, [1, 2])
        np.testing.assert_array_equal(law.chk_degrees, [2, 3])
        np.testing.assert_allclose(law.joint, [[0, 1 / 3], [1 / 3, 1 / 3]], atol=1e-15)

    def test_disassortative_graph_tilts_negative(self):
        assert law_correlation(graph_law(-0.5)) < -0.2

    def test_assortative_graph_tilts_positive(self):
        assert law_correlation(graph_law(0.5)) > 0.2


def sampler_laws():
    """Class laws with tiny, zero-mass and bucket-edge classes, as rows of
    the laws popdyn_run draws from or written out by hand."""
    graph = graph_law(-0.3, k=64, rho=0.06)
    return {
        "ensemble": law_from_ensemble(1024, 1024, 0.01).cond_v_given_c[0],
        "graph-row": graph.cond_c_given_v[0],
        "graph-column": graph.cond_v_given_c[-1],
        "bucket-edges": np.array([0.25, 0.25, 0.5]),
        "zero-mass": np.array([0.0, 0.5, 0.0, 0.0, 0.5, 0.0]),
        "near-1e-9": np.array([1e-9, 0.5, 3e-9, 0.5 - 5e-9, 1e-9]),
        "300-classes": np.random.default_rng(0).dirichlet(np.full(300, 0.3)),
    }


SAMPLER_LAWS = sampler_laws()


class TestClassSampler:
    @pytest.mark.parametrize("name, p", SAMPLER_LAWS.items(), ids=SAMPLER_LAWS)
    def test_hand_picked_uniforms_match_searchsorted(self, name, p):
        sampler = _ClassSampler(p)
        cdf = sampler.cdf[sampler.cdf < 1.0]
        u = np.concatenate([
            [0.0, 1.0 - 2.0**-53],
            np.arange(4096) / 4096,
            cdf,
            np.nextafter(cdf, 0.0),
            np.nextafter(cdf, 1.0),
        ])
        np.testing.assert_array_equal(sampler.classes(u), sampler.cdf.searchsorted(u, "right"))

    @pytest.mark.parametrize("name, p", SAMPLER_LAWS.items(), ids=SAMPLER_LAWS)
    def test_marks_only_buckets_a_cdf_value_falls_inside(self, name, p):
        # a cdf value on a bucket edge leaves both neighbours to the table
        sampler = _ClassSampler(p)
        scaled = sampler.cdf * 4096
        inside = np.unique(np.floor(scaled[scaled % 1 != 0]).astype(int))
        np.testing.assert_array_equal(np.flatnonzero(sampler.table < 0), inside)
        if name == "ensemble":
            assert inside.size == 24

    @pytest.mark.parametrize("name, p", SAMPLER_LAWS.items(), ids=SAMPLER_LAWS)
    def test_draws_what_choice_draws(self, name, p):
        sampler = _ClassSampler(p)
        ours, theirs = np.random.default_rng(7), np.random.default_rng(7)
        for shape in ((1000, 37), (5,), (0, 3)):
            got = sampler.classes(ours.random(shape))
            np.testing.assert_array_equal(got, theirs.choice(p.size, size=shape, p=p))
        assert ours.bit_generator.state == theirs.bit_generator.state


class TestPopdynRun:
    def test_matches_erasure_density_evolution(self):
        # fresh variable-to-check erasure fraction per round against the
        # scalar recursion for the (3,6)-regular tree ensemble
        n = 100_000
        for eps in (0.42, 0.35):
            records = popdyn_run(
                Bec(eps), regular_law(3, 6), population=n, iterations=12, seed=3
            )
            for rec, x in zip(records, bec_popdyn.recursion(eps, regular_law(3, 6), 12), strict=True):
                tol = max(0.02 * x, 6.0 * np.sqrt(max(x, 1e-12) / n))
                assert abs(rec.edge_error_rate - x) <= tol

    def test_conditional_draws_match_correlated_recursion(self):
        # the conditionals differ from the marginals, so a draw that ignores
        # the receiving node's degree leaves the recursion's band
        law = EdgeDegreeLaw(
            np.array([2, 5]), np.array([3, 7]), np.array([[0.5, 0.1], [0.15, 0.25]]),
            parity_attached=True,
        )
        n = 100_000
        for eps in (0.2, 0.35, 0.5):
            records = popdyn_run(Bec(eps), law, population=n, iterations=15, seed=0)
            for rec, x in zip(records, bec_popdyn.recursion(eps, law, 15), strict=True):
                tol = max(0.02 * x, 6.0 * np.sqrt(max(x, 1e-12) / n))
                assert abs(rec.edge_error_rate - x) <= tol

    @pytest.mark.parametrize("ch, digest", (
        (Bec(0.42), "f4bf1c9fc0babc90338600b0d667c67377070f1e6866e8266c2a8935863937e2"),
        (BpskAwgn(0.8), "6f69bf0ec1a1a53ea367c2429ed7fc906ef337fe694bf4b821209bcd56e21ac1"),
        (Bsc(0.07), "65d69067ba3d5049abb90ed81f4d953686b625dfdb0e2d317137b527f8f4af20"),
    ), ids=("bec", "awgn", "bsc"))
    def test_regular_law_trajectory_pinned(self, ch, digest):
        # a single-class draw is one scalar-bound integers call, so changes to
        # the multi-class draw must leave these records as they are
        records = popdyn_run(ch, regular_law(3, 6), population=2000, iterations=5, seed=3)
        blob = repr([dataclasses.astuple(r) for r in records]).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    @pytest.mark.parametrize("law, ch, digest", (
        ("ensemble", Bec(0.42), "a6a3e966d6ac9f49b4da6d6edc877ceed550423b09c997154386f272f4cf4c4f"),
        ("ensemble", BpskAwgn(0.8), "7776cc15aa8e359db935f4a6cd5aa0d797c35a58cb3499632b5462e4ef75cf45"),
        ("ensemble", Bsc(0.07), "70308038412b50b92fe3899fa1fccefaeec21a4aab090a9492e273d849818658"),
        ("graph", Bec(0.42), "c49b649ffd1613e1c9727fb279614b0579ff2d0f500fb32aa5d8d830291e4518"),
        ("graph", BpskAwgn(0.8), "815a920b418eac909d993f10a5ee8610119acb9b063f97280fb2b3dc96eab10f"),
        ("graph", Bsc(0.07), "b238cae58116deb26add4fd620fb8ac75ee945cf0c616d2da2c047b5c875f947"),
    ), ids=("ensemble-bec", "ensemble-awgn", "ensemble-bsc", "graph-bec", "graph-awgn", "graph-bsc"))
    def test_multi_class_trajectory_pinned(self, law, ch, digest):
        # digests taken when classes were drawn by rng.choice: the class
        # sampler must draw the same classes from the same random stream
        law = law_from_ensemble(1024, 1024, 0.01) if law == "ensemble" else graph_law(-0.3, k=64, rho=0.06)
        records = popdyn_run(ch, law, population=3000, iterations=4, seed=3)
        blob = repr([dataclasses.astuple(r) for r in records]).encode()
        assert hashlib.sha256(blob).hexdigest() == digest

    def test_near_silent_channel_clears_in_one_round(self):
        records = popdyn_run(
            BpskAwgn(1e-3), regular_law(3, 6), population=2000, iterations=2, seed=0
        )
        assert records[0].error_rate == 0.0
        assert records[1].error_rate == 0.0

    def test_error_rate_nonincreasing_below_threshold(self):
        n = 100_000
        for eps in (0.42, 0.35):
            records = popdyn_run(
                Bec(eps), regular_law(3, 6), population=n, iterations=12, seed=3
            )
            errs = [r.error_rate for r in records]
            for before, after in zip(errs, errs[1:]):
                assert after - before < 3.0 / np.sqrt(n)

    def test_deterministic_per_seed(self):
        law = graph_law(-0.3, k=64, rho=0.06)
        ch = BpskAwgn(0.9)
        a = popdyn_run(ch, law, population=3000, iterations=4, seed=11)
        b = popdyn_run(ch, law, population=3000, iterations=4, seed=11)
        assert a == b
        c = popdyn_run(ch, law, population=3000, iterations=4, seed=12)
        assert a != c

    def test_correlated_law_runs_and_improves(self):
        law = graph_law(-0.5)
        records = popdyn_run(
            BpskAwgn(0.75), law, population=20_000, iterations=8, seed=2
        )
        assert records[-1].error_rate < records[0].error_rate
        assert all(np.isfinite(r.llr_mean) and np.isfinite(r.llr_var) for r in records)

    def test_validation(self):
        message = "population must be positive and iterations non-negative"
        with pytest.raises(ValueError, match=message):
            popdyn_run(Bec(0.4), regular_law(3, 6), population=0)
        with pytest.raises(ValueError, match=message):
            popdyn_run(Bec(0.4), regular_law(3, 6), iterations=-1)

    def test_zero_iterations_is_empty(self):
        assert popdyn_run(Bec(0.4), regular_law(3, 6), iterations=0) == []
