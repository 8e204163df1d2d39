"""Bipartite normal graphs, degree-degree correlation, and generation.

Assortativity r is the Pearson correlation of the degrees at the two ends
of an edge, every edge counted as (d_v, d_c) and as (d_c, d_v).  Degrees
are thereby pooled over both sides, both ends follow the excess-weighted
law q, and r = sum_ij ij (e_ij - q_i q_j) / sigma_q^2 is a single scalar in
[-1, 1]; when every edge end has the same degree sigma_q^2 vanishes and r
is reported as NaN.

Graph generation matches two prescribed degree sequences exactly: stubs
are paired uniformly at random and parallel edges repaired by edge swaps.
With the degrees fixed, r is linear in the sum over edges of d_v * d_c, so
degree-preserving double-edge swaps (Maslov & Sneppen, Science 296, 910,
2002; Xulvi-Brunet & Sokolov, PRE 70, 066102, 2004) steer r directly
toward a target r*.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .gf2 import BitMatrix
from .rng import make_rng

__all__ = [
    "BipartiteGraph",
    "assortativity",
    "GraphGenerationError",
    "GraphBuildResult",
    "configuration_model",
    "sample_neutral_graph",
]


class BipartiteGraph(BitMatrix):
    """Simple bipartite graph: n_var left nodes, n_chk right nodes.

    It is its own generator matrix: row v of G holds the checks joined to
    variable v.
    """

    __slots__ = ()

    @property
    def n_var(self) -> int:
        return self.rows

    @property
    def n_chk(self) -> int:
        return self.cols


def _edge_end_degrees(g: BitMatrix) -> tuple[np.ndarray, np.ndarray]:
    """(x, y): the degrees at the two ends of every edge, in both orientations."""
    dv = g.row_weights()[g.edges[:, 0]].astype(np.float64)
    dc = g.col_weights()[g.edges[:, 1]].astype(np.float64)
    return np.concatenate([dv, dc]), np.concatenate([dc, dv])


def assortativity(g: BitMatrix) -> float:
    """Degree correlation over edges; NaN when every edge end has the same degree."""
    if g.nnz() == 0:
        raise ValueError("assortativity needs at least one edge")
    x, y = _edge_end_degrees(g)
    mu, var = x.mean(), x.var()
    if var <= 0.0:
        return float("nan")
    return float(np.mean((x - mu) * (y - mu)) / var)


class GraphGenerationError(RuntimeError):
    """Raised when no graph meets the request; carries the closest build."""

    def __init__(self, message: str, best_result: "GraphBuildResult | None" = None):
        super().__init__(message)
        self.best_result = best_result


@dataclass
class GraphBuildResult:
    graph: BipartiteGraph
    r_measured: float
    swaps: int


# proposals allowed per edge, shared by parallel-edge repair and rewiring
_PROPOSALS_PER_EDGE = 200
_DRAW_BATCH = 4096


def _checked_sequences(d1, d2) -> tuple[np.ndarray, np.ndarray]:
    d1 = np.asarray(d1, dtype=np.int64)
    d2 = np.asarray(d2, dtype=np.int64)
    if d1.size == 0 or d2.size == 0:
        raise ValueError("degree sequences must be non-empty")
    if d1.min() < 0 or d2.min() < 0:
        raise ValueError("degrees must be non-negative")
    if d1.sum() != d2.sum():
        raise ValueError(f"stub mismatch: sum(d1)={d1.sum()} != sum(d2)={d2.sum()}")
    if d1.sum() == 0:
        raise ValueError("degree sequences have no edges")
    return d1, d2


def _admits_simple_graph(d1: np.ndarray, d2: np.ndarray) -> bool:
    """Gale-Ryser: the k largest d1 fit into sum_j min(d2_j, k), for every k."""
    a = np.sort(d1)[::-1]
    at_least = np.cumsum(np.bincount(d2, minlength=a.size + 1)[::-1])[::-1]
    return bool(np.all(np.cumsum(a) <= np.cumsum(at_least[1 : a.size + 1])))


def _proposals(rng: np.random.Generator, m_edges: int):
    """Random edge index pairs, drawn in batches, up to the proposal budget."""
    for _ in range(0, _PROPOSALS_PER_EDGE * m_edges, _DRAW_BATCH):
        yield from rng.integers(0, m_edges, size=(_DRAW_BATCH, 2)).tolist()


def _pair_stubs(d1, d2, seed: int) -> tuple[np.ndarray, np.ndarray, list, list]:
    """Checked sequences and the (v, c) endpoint lists of a repaired stub
    pairing, in pairing order: configuration_model draws its swap proposals
    by index into these lists."""
    d1, d2 = _checked_sequences(d1, d2)
    if not _admits_simple_graph(d1, d2):
        raise GraphGenerationError("the degree sequences admit no simple bipartite graph")
    rng = make_rng(seed, "configuration-model")
    n_chk = d2.size
    v = np.repeat(np.arange(d1.size, dtype=np.int64), d1).tolist()
    c = rng.permutation(np.repeat(np.arange(n_chk, dtype=np.int64), d2)).tolist()
    count = Counter(vi * n_chk + ci for vi, ci in zip(v, c))
    dups = [i for i in range(len(v)) if count[v[i] * n_chk + c[i]] > 1]
    proposals = _proposals(rng, len(v))
    while dups:
        i = dups.pop()
        if count[v[i] * n_chk + c[i]] == 1:  # its twin was repaired first
            continue
        for _, j in proposals:
            if v[j] != v[i] and count[v[i] * n_chk + c[j]] == 0:
                break
        else:
            raise GraphGenerationError("parallel-edge repair ran out of proposals")
        count[v[i] * n_chk + c[i]] -= 1
        count[v[j] * n_chk + c[j]] -= 1
        c[i], c[j] = c[j], c[i]
        count[v[i] * n_chk + c[i]] += 1
        count[v[j] * n_chk + c[j]] += 1
        if count[v[j] * n_chk + c[j]] > 1:
            dups.append(j)
    return d1, d2, v, c


def sample_neutral_graph(d1, d2, seed: int = 0) -> BipartiteGraph:
    """Uniform stub pairing with parallel edges repaired by edge swaps.

    Sequences that admit no simple bipartite graph are rejected before any
    sampling.  Each parallel edge then trades its check end with a random
    edge, one swap at a time, whenever its new edge is not yet in the graph.
    The partner's new edge may itself be a duplicate, which is then repaired
    in turn, so no swap adds a duplicate and both degree sequences are kept.
    """
    d1, d2, v, c = _pair_stubs(d1, d2, seed)
    return BipartiteGraph(d1.size, d2.size, np.column_stack([v, c]))


def configuration_model(
    d1,
    d2,
    r_star: float,
    epsilon: float = 0.02,
    seed: int = 0,
) -> GraphBuildResult:
    """Degree-exact bipartite graph with assortativity steered to r_star.

    Starts from sample_neutral_graph and rewires it by double-edge swaps
    (v1,c1),(v2,c2) -> (v1,c2),(v2,c1), which keep every degree.  With the
    degree sequences fixed, r is linear in S = sum over edges of d_v * d_c,
    and a swap changes S by (d_v1 - d_v2)(d_c2 - d_c1), so the target is
    S* = M (r* sigma_q^2 + mu_q^2) over the pooled edge-perspective law q.
    A swap is accepted only when it moves S strictly closer to S* and
    creates no parallel edge.

    The search stops once |r - r*| <= epsilon / 2, not epsilon: aiming at
    the middle of the band leaves margin for callers that check the result
    against epsilon.  Proposals are capped at a fixed multiple of the edge
    count, and none is made when one side has a single degree, since no
    swap can then move r.  A graph that ends within epsilon is still
    returned; otherwise GraphGenerationError carries the final graph, which
    is the best one because the search is monotone in |S - S*|.
    """
    # NaN fails every comparison, so these refuse it too
    if not -1.0 <= r_star <= 1.0:
        raise ValueError(f"r_star must lie in [-1, 1], got {r_star}")
    if not 0.0 < epsilon < np.inf:
        raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
    d1, d2, v, c = _pair_stubs(d1, d2, seed)
    n_var, n_chk = d1.size, d2.size
    x, _ = _edge_end_degrees(BipartiteGraph(n_var, n_chk, np.column_stack([v, c])))
    mu_q, sigma_q2 = float(x.mean()), float(x.var())
    if sigma_q2 <= 0.0:
        raise GraphGenerationError("assortativity is undefined when every node has the same degree")
    m_edges = len(v)
    s_target = m_edges * (r_star * sigma_q2 + mu_q**2)
    tol = m_edges * sigma_q2 * epsilon / 2

    kv, kc = d1.tolist(), d2.tolist()
    keys = {vi * n_chk + ci for vi, ci in zip(v, c)}
    s = sum(kv[vi] * kc[ci] for vi, ci in zip(v, c))
    swaps = 0
    rng = make_rng(seed, "configuration-model", "rewire")
    # with one degree on either side every swap leaves S as it is
    movable = len({kv[x] for x in v}) > 1 and len({kc[x] for x in c}) > 1
    for a, b in _proposals(rng, m_edges) if movable else ():
        if abs(s - s_target) <= tol:
            break
        v1, c1, v2, c2 = v[a], c[a], v[b], c[b]
        s_new = s + (kv[v1] - kv[v2]) * (kc[c2] - kc[c1])
        if abs(s_new - s_target) >= abs(s - s_target):
            continue
        new_a, new_b = v1 * n_chk + c2, v2 * n_chk + c1
        if new_a in keys or new_b in keys:
            continue
        keys.difference_update((v1 * n_chk + c1, v2 * n_chk + c2))
        keys.update((new_a, new_b))
        c[a], c[b] = c2, c1
        s = s_new
        swaps += 1
    graph = BipartiteGraph(n_var, n_chk, np.column_stack([v, c]))
    result = GraphBuildResult(graph, assortativity(graph), swaps)
    if abs(result.r_measured - r_star) > epsilon:
        why = "rewiring ran out of proposals" if movable else "a side with one degree left r fixed"
        raise GraphGenerationError(
            f"{why} before reaching r*={r_star} +/- {epsilon}; "
            f"best r={result.r_measured:.4f}",
            best_result=result,
        )
    return result
