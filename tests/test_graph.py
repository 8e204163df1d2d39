"""Degree statistics, assortativity, and targeted graph generation."""

import hashlib
import time

import numpy as np
import pytest

from bgmlab.ensemble import sample_bgm, sample_fixed_row_weight
from bgmlab.gf2 import BitMatrix
from bgmlab.graph import (
    BipartiteGraph,
    GraphGenerationError,
    assortativity,
    configuration_model,
    sample_neutral_graph,
)
from bgmlab.rng import make_rng


def complete_bipartite(n1, n2):
    return BipartiteGraph(
        n1, n2, [(v, c) for v in range(n1) for c in range(n2)]
    )


def binomial_profile(n, p, seed, tag="prof"):
    return np.maximum(make_rng(seed, tag).binomial(n, p, size=n), 1)


@pytest.fixture
def no_sampling(monkeypatch):
    def refuse(*key):
        raise AssertionError("sampling started")

    monkeypatch.setattr("bgmlab.graph.make_rng", refuse)


def criterion6_profiles():
    g = sample_bgm(1024, 1024, 0.01, seed=5).g
    return g.row_weights(), g.col_weights()


class TestBipartiteGraph:
    def test_rejects_parallel_edges(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(0, 0), (0, 0)])

    def test_rejects_out_of_range_endpoints(self):
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(2, 0)])
        with pytest.raises(ValueError):
            BipartiteGraph(2, 2, [(0, -1)])

    def test_adjacency_and_degrees(self):
        g = BipartiteGraph(3, 2, [(0, 0), (0, 1), (2, 1)])
        assert g.nnz() == 3
        assert np.array_equal(g.row_weights(), [2, 0, 1])
        assert np.array_equal(g.col_weights(), [1, 2])
        assert np.array_equal(g.row_supports[0], [0, 1])
        assert np.array_equal(g.edges[g.edges[:, 1] == 1, 0], [0, 2])


def edge_law_stats(g):
    """The degree laws of the pooled edge-law form: p is the node degree law over
    both sides, q its excess-weighted law, e the symmetrized joint law of the
    degrees at the two ends of an edge, and sigma_q2 the variance of q."""
    dv, dc = g.row_weights(), g.col_weights()
    deg = np.concatenate([dv, dc])
    j = np.arange(deg.max() + 1)
    p = np.bincount(deg, minlength=j.size) / deg.size
    q = j * p / (j * p).sum()
    e = np.zeros((j.size, j.size))
    np.add.at(e, (dv[g.edges[:, 0]], dc[g.edges[:, 1]]), 1.0)
    e = 0.5 * (e + e.T) / g.nnz()
    sigma_q2 = (j * j * q).sum() - (j * q).sum() ** 2
    return p, q, e, sigma_q2


def edge_law_assortativity(g):
    """r = sum_ij ij (e_ij - q_i q_j) / sigma_q^2 over the edge_law_stats tables."""
    _, q, e, sigma_q2 = edge_law_stats(g)
    j = np.arange(q.size)
    return float(np.sum(np.outer(j, j) * (e - np.outer(q, q))) / sigma_q2)


class TestDegreeStats:
    """Hand counts of the reference tables that assortativity is matched to."""

    def test_complete_bipartite_two_two(self):
        p, _, e, sigma_q2 = edge_law_stats(complete_bipartite(2, 2))
        assert p[2] == 1.0
        assert e[2, 2] == 1.0
        assert sigma_q2 == pytest.approx(0.0, abs=1e-12)

    def test_star_hand_count(self):
        p, q, _, _ = edge_law_stats(BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)]))
        assert p[1] == pytest.approx(0.75)
        assert p[3] == pytest.approx(0.25)
        assert q[1] == pytest.approx(0.5)
        assert q[3] == pytest.approx(0.5)

    def test_path_hand_count(self):
        # two degree-1 variables joined through one degree-2 check
        p, _, e, _ = edge_law_stats(BipartiteGraph(2, 1, [(0, 0), (1, 0)]))
        assert p[1] == pytest.approx(2 / 3)
        assert p[2] == pytest.approx(1 / 3)
        assert e[1, 2] == pytest.approx(0.5)
        assert e[2, 1] == pytest.approx(0.5)
        assert e[1, 1] == 0.0

    def test_distributions_normalize(self):
        g = sample_neutral_graph(
            binomial_profile(64, 0.05, 1), binomial_profile(64, 0.05, 1), seed=3
        )
        p, q, e, _ = edge_law_stats(g)
        j = np.arange(p.size)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert q.sum() == pytest.approx(1.0, abs=1e-12)
        assert e.sum() == pytest.approx(1.0, abs=1e-12)
        jp = j * p
        assert q == pytest.approx(jp / jp.sum(), abs=1e-12)


class TestAssortativity:
    def test_empty_graph_rejected(self):
        g = BipartiteGraph(2, 2, np.empty((0, 2), dtype=np.int64))
        with pytest.raises(ValueError):
            assortativity(g)

    def test_matches_edge_law_form(self):
        star = BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
        path = BipartiteGraph(2, 1, [(0, 0), (1, 0)])  # two degree-1 variables, one degree-2 check
        graphs = [star, path]
        for seed in range(10):
            d = binomial_profile(64, 0.05, seed)
            graphs.append(sample_neutral_graph(d, make_rng(seed, "shuffle").permutation(d), seed=seed))
        d1, d2 = criterion6_profiles()
        graphs += [configuration_model(d1, d2, r_star, seed=1).graph for r_star in (-0.3, 0.0)]
        for g in graphs:
            assert assortativity(g) == pytest.approx(edge_law_assortativity(g), abs=1e-12)
        assert edge_law_assortativity(star) == pytest.approx(-1.0, abs=1e-12)
        assert edge_law_assortativity(path) == pytest.approx(-1.0, abs=1e-12)

    def test_regular_graph_is_undefined(self):
        assert np.isnan(assortativity(complete_bipartite(2, 2)))
        assert np.isnan(assortativity(complete_bipartite(3, 3)))

    def test_star_is_maximally_disassortative(self):
        g = BipartiteGraph(1, 3, [(0, 0), (0, 1), (0, 2)])
        assert assortativity(g) == pytest.approx(-1.0, abs=1e-12)

    def test_bounded_on_random_graphs(self):
        count = 0
        for seed in range(1000):
            rng = make_rng(seed, "bound-check")
            d1 = rng.integers(1, 5, size=24)
            d2 = rng.integers(1, 5, size=24)
            # rebalance stub counts with one extra node of the right degree
            diff = int(d1.sum() - d2.sum())
            if diff > 0:
                d2 = np.concatenate([d2, [diff]])
            elif diff < 0:
                d1 = np.concatenate([d1, [-diff]])
            try:
                g = sample_neutral_graph(d1, d2, seed=seed)
            except GraphGenerationError:
                # the rebalancing node can make the sequence infeasible
                continue
            r = assortativity(g)
            if not np.isnan(r):
                assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
                count += 1
        assert count > 900


class TestSampleNeutralGraph:
    def test_infeasible_sequences_rejected_before_sampling(self, no_sampling):
        # a degree-3 variable needs three distinct checks; only two exist
        with pytest.raises(GraphGenerationError):
            sample_neutral_graph([3, 1], [2, 2])

    def test_repair_reaches_the_only_simple_graph(self):
        # K_{4,4} is the only simple realization, so nearly every pairing
        # starts with parallel edges and the repair must keep all degrees
        for seed in range(20):
            g = sample_neutral_graph([4] * 4, [4] * 4, seed=seed)
            assert g.nnz() == 16
            assert np.array_equal(g.row_weights(), [4] * 4)
            assert np.array_equal(g.col_weights(), [4] * 4)


class TestConfigurationModel:
    def test_deterministic_and_degree_exact(self):
        prof = binomial_profile(240, 0.02, 3, "smallprof")
        a = configuration_model(prof, prof, r_star=-0.2, epsilon=0.05, seed=5)
        b = configuration_model(prof, prof, r_star=-0.2, epsilon=0.05, seed=5)
        assert np.array_equal(a.graph.edges, b.graph.edges)
        # pinned sorted-edge digest: the stored edge order must not steer the rewiring
        assert hashlib.sha256(a.graph.edges.tobytes()).hexdigest()[:16] == "b4f8994d00c152f7"
        assert abs(a.r_measured + 0.2) <= 0.05
        assert np.array_equal(a.graph.row_weights(), prof)
        assert np.array_equal(a.graph.col_weights(), prof)

    def test_assortative_target_small_scale(self):
        prof = binomial_profile(240, 0.02, 3, "smallprof")
        res = configuration_model(prof, prof, r_star=0.3, epsilon=0.1, seed=5)
        assert abs(res.r_measured - 0.3) <= 0.1

    def test_strong_assortative_target_at_scale(self):
        prof = binomial_profile(1024, 0.01, 42, "bigprof")
        res = configuration_model(prof, prof, r_star=0.5, epsilon=0.02, seed=11)
        assert abs(res.r_measured - 0.5) <= 0.02

    def test_neutral_model_near_zero(self):
        prof = binomial_profile(1024, 0.01, 42, "bigprof")
        g = sample_neutral_graph(prof, prof, seed=2)
        assert abs(assortativity(g)) <= 0.08

    def test_stub_imbalance_rejected(self):
        with pytest.raises(ValueError):
            configuration_model([2, 2], [3], r_star=-0.2, epsilon=0.1)

    @pytest.mark.parametrize("d1, d2, r_star, epsilon, message", (
        ([], [], -0.2, 0.1, "non-empty"),
        ([2, 2], [], -0.2, 0.1, "non-empty"),
        ([2, 2], [2, 1, 1], float("nan"), 0.1, "r_star"),
        ([2, 2], [2, 1, 1], 1.5, 0.1, "r_star"),
        ([2, 2], [2, 1, 1], -float("inf"), 0.1, "r_star"),
        ([2, 2], [2, 1, 1], -0.2, float("nan"), "epsilon"),
        ([2, 2], [2, 1, 1], -0.2, float("inf"), "epsilon"),
        ([2, 2], [2, 1, 1], -0.2, 0.0, "epsilon"),
    ))
    def test_bad_input_rejected_before_sampling(self, no_sampling, d1, d2, r_star, epsilon, message):
        with pytest.raises(ValueError, match=message):
            configuration_model(d1, d2, r_star=r_star, epsilon=epsilon)

    def test_equal_degrees_everywhere_rejected(self):
        # r is undefined (NaN) when every node has the same degree
        with pytest.raises(GraphGenerationError):
            configuration_model([2] * 4, [2] * 4, r_star=-0.2)

    def test_unequal_profiles_reach_positive_target(self):
        d1, d2 = criterion6_profiles()
        res = configuration_model(d1, d2, r_star=0.2, epsilon=0.02, seed=0)
        assert abs(res.r_measured - 0.2) <= 0.02
        assert np.array_equal(res.graph.row_weights(), d1)
        assert np.array_equal(res.graph.col_weights(), d2)

    @pytest.mark.parametrize("seed", (0, 10))
    @pytest.mark.parametrize("r_star", (-0.5, -0.3))
    def test_criterion6_profile_reaches_disassortative_targets(self, r_star, seed):
        d1, d2 = criterion6_profiles()
        res = configuration_model(d1, d2, r_star, epsilon=0.02, seed=seed)
        assert abs(res.r_measured - r_star) <= 0.02
        assert res.r_measured == assortativity(res.graph)
        assert np.array_equal(res.graph.row_weights(), d1)
        assert np.array_equal(res.graph.col_weights(), d2)

    def test_unreachable_target_carries_best_build(self):
        prof = binomial_profile(240, 0.02, 3, "smallprof")
        with pytest.raises(GraphGenerationError) as err:
            configuration_model(prof, prof, r_star=-1.0, epsilon=0.02, seed=1)
        assert err.value.best_result is not None
        assert err.value.best_result.r_measured == assortativity(err.value.best_result.graph)
        assert np.array_equal(err.value.best_result.graph.row_weights(), prof)

    def test_single_degree_side_skips_the_swap_search(self):
        # every variable node has degree 8, so no swap can move r
        g = sample_fixed_row_weight(1024, 1024, 8, seed=1).g
        d1, d2 = g.row_weights(), g.col_weights()
        t0 = time.perf_counter()
        with pytest.raises(GraphGenerationError) as err:
            configuration_model(d1, d2, r_star=-0.3, epsilon=0.02, seed=0)
        assert time.perf_counter() - t0 < 0.5  # a full proposal budget takes seconds
        best = err.value.best_result
        assert best.swaps == 0
        assert best.r_measured == assortativity(sample_neutral_graph(d1, d2, seed=0))
        # within epsilon but not epsilon / 2: the neutral graph is returned
        near = configuration_model(d1, d2, r_star=best.r_measured + 0.015, epsilon=0.02, seed=0)
        assert (near.swaps, near.r_measured) == (0, best.r_measured)


class TestGeneratorConversion:
    """A graph is its generator matrix: row v holds the checks joined to v."""

    def test_complete_bipartite_is_all_ones(self):
        assert np.all(complete_bipartite(2, 2).to_dense() == 1)

    def test_empty_graph_is_zero_matrix(self):
        g = BipartiteGraph(3, 4, np.empty((0, 2), dtype=np.int64))
        assert not g.to_dense().any()

    def test_round_trip_identity(self):
        prof1 = binomial_profile(48, 0.06, 4)
        prof2 = binomial_profile(48, 0.06, 4)
        g = sample_neutral_graph(prof1, prof2, seed=8)
        shuffled = make_rng(8, "shuffle").permutation(g.edges)
        assert BipartiteGraph(g.n_var, g.n_chk, shuffled) == g

    def test_matrix_round_trip(self):
        mat = BitMatrix(3, 5, [(0, 0), (0, 4), (2, 1), (2, 2), (2, 3)])
        assert BipartiteGraph(mat.rows, mat.cols, mat.edges[::-1]) == mat
