"""Degree-correlated density evolution by population dynamics.

Message distributions are tracked as sample populations bucketed by the
degree of the emitting node, so that degree-degree correlation (an edge
joint degree law) can condition which bucket an incoming message is drawn
from.  The check side optionally carries a parity-observation attachment:
check degree then counts the parity slot, and each check update consumes
one fresh parity-channel LLR along with its variable messages.

All-zero-codeword convention throughout: correct LLRs are positive, an
error is a non-positive sign, and BEC erasures sit exactly at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.stats import binom

from .channel import Channel, llr, transmit
from .decode import _ATANH_LIMIT, LLR_CLAMP
from .gf2 import BitMatrix
from .rng import make_rng

__all__ = [
    "EdgeDegreeLaw",
    "regular_law",
    "law_from_ensemble",
    "law_from_graph",
    "PopdynRecord",
    "popdyn_run",
]

_MIN_BUCKET = 100  # smallest population kept per degree, however rare the degree


@dataclass(eq=False)
class EdgeDegreeLaw:
    """Edge-perspective joint law over (variable degree, check degree).

    `joint[i, j]` is the probability that a uniformly chosen edge joins a
    variable of degree var_degrees[i] to a check of degree chk_degrees[j].
    When parity_attached is set, check degrees include the parity slot and
    the check update consumes a fresh parity LLR.
    """

    var_degrees: np.ndarray
    chk_degrees: np.ndarray
    joint: np.ndarray
    parity_attached: bool = False
    q_v: np.ndarray = field(init=False, repr=False)
    q_c: np.ndarray = field(init=False, repr=False)
    cond_c_given_v: np.ndarray = field(init=False, repr=False)
    cond_v_given_c: np.ndarray = field(init=False, repr=False)
    node_v: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.var_degrees = np.asarray(self.var_degrees, dtype=np.int64)
        self.chk_degrees = np.asarray(self.chk_degrees, dtype=np.int64)
        joint = np.asarray(self.joint, dtype=np.float64)
        if joint.shape != (self.var_degrees.size, self.chk_degrees.size):
            raise ValueError("joint shape does not match degree supports")
        if np.any(joint < 0):
            raise ValueError("joint entries must be non-negative")
        total = joint.sum()
        if total <= 0:
            raise ValueError("joint law has no mass")
        self.joint = joint / total
        self.q_v = self.joint.sum(axis=1)
        self.q_c = self.joint.sum(axis=0)
        if np.any(self.q_v <= 0) or np.any(self.q_c <= 0):
            raise ValueError("every listed degree needs positive edge mass")
        if int(self.var_degrees.min()) < 1:
            raise ValueError("variable degrees must be >= 1")
        floor = 2 if self.parity_attached else 1
        if int(self.chk_degrees.min()) < floor:
            raise ValueError(f"check degrees must be >= {floor} for this law")
        self.cond_c_given_v = self.joint / self.q_v[:, None]
        self.cond_v_given_c = (self.joint / self.q_c[None, :]).T
        # node-perspective variable degree law: divide out the edge weighting
        node = self.q_v / self.var_degrees
        self.node_v = node / node.sum()


def regular_law(dv: int, dc: int) -> EdgeDegreeLaw:
    """Single-degree law for a (dv, dc)-regular graph, no parity attachment."""
    return EdgeDegreeLaw(
        var_degrees=np.array([dv]),
        chk_degrees=np.array([dc]),
        joint=np.ones((1, 1)),
        parity_attached=False,
    )


def _truncated_binomial(n: int, p: float, mass_tol: float) -> tuple[np.ndarray, np.ndarray]:
    support = np.arange(n + 1)
    pmf = binom.pmf(support, n, p)
    keep = pmf >= mass_tol
    return support[keep], pmf[keep]


def law_from_ensemble(k: int, m: int, rho: float, mass_tol: float = 1e-9) -> EdgeDegreeLaw:
    """Product joint degree law of the Bernoulli ensemble.

    Variable degrees follow Binomial(m, rho); graph-side check degrees
    follow Binomial(k, rho), shifted by one here because the parity
    attachment occupies a slot on every check.  Degrees with pmf below
    mass_tol are dropped.  A degree-correlated law comes from a built graph
    through law_from_graph.
    """
    wv, pv = _truncated_binomial(m, rho, mass_tol)
    dv_mask = wv >= 1
    wv, pv = wv[dv_mask], pv[dv_mask]
    dcg, pc = _truncated_binomial(k, rho, mass_tol)
    dc_mask = dcg >= 1
    dcg, pc = dcg[dc_mask], pc[dc_mask]
    if wv.size == 0 or dcg.size == 0:
        raise ValueError("degree supports vanished; loosen mass_tol")
    return EdgeDegreeLaw(
        var_degrees=wv,
        chk_degrees=dcg + 1,
        joint=np.outer(wv * pv, dcg * pc),
        parity_attached=True,
    )


def law_from_graph(g: BitMatrix) -> EdgeDegreeLaw:
    """Joint degree law of a code's normal graph: its generator matrix G,
    such as a built bgmlab.graph.BipartiteGraph.

    Counts the graph's edges by (variable degree, check degree + 1), the one
    counting the parity slot, so density evolution models the exact graph
    that is simulated, degree correlation included.
    """
    dv = g.row_weights()[g.edges[:, 0]]
    dc = g.col_weights()[g.edges[:, 1]] + 1
    var_degrees, iv = np.unique(dv, return_inverse=True)
    chk_degrees, ic = np.unique(dc, return_inverse=True)
    joint = np.zeros((var_degrees.size, chk_degrees.size))
    np.add.at(joint, (iv, ic), 1.0)
    return EdgeDegreeLaw(
        var_degrees=var_degrees,
        chk_degrees=chk_degrees,
        joint=joint,
        parity_attached=True,
    )


@dataclass
class PopdynRecord:
    iteration: int
    error_rate: float       # wrong-sign fraction of full-degree posteriors
    edge_error_rate: float  # wrong-sign fraction of fresh variable-to-check messages
    llr_mean: float         # over the check-to-variable population
    llr_var: float


def _bucket_sizes(weights: np.ndarray, total: int) -> np.ndarray:
    return np.maximum(np.round(weights * total).astype(np.int64), _MIN_BUCKET)


def _channel_llrs(ch: Channel, size: int, rng: np.random.Generator) -> np.ndarray:
    zeros = np.zeros(size, dtype=np.uint8)
    return llr(ch, transmit(ch, zeros, rng))


def _draw_from_buckets(
    buckets: list[np.ndarray],
    cond: np.ndarray,
    n_rows: int,
    n_inputs: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """(n_rows, n_inputs) samples; each entry's bucket drawn from cond."""
    out = np.empty((n_rows, n_inputs))
    if n_inputs == 0:
        return out
    if cond.size == 1:
        src = buckets[0]
        idx = rng.integers(0, src.size, size=(n_rows, n_inputs))
        return src[idx]
    classes = rng.choice(cond.size, size=n_rows * n_inputs, p=cond)
    flat = out.reshape(-1)
    for j in range(cond.size):
        mask = classes == j
        cnt = int(mask.sum())
        if cnt:
            src = buckets[j]
            flat[mask] = src[rng.integers(0, src.size, size=cnt)]
    return out


def popdyn_run(
    ch: Channel,
    law: EdgeDegreeLaw,
    population: int = 100_000,
    iterations: int = 50,
    seed: int = 0,
) -> list[PopdynRecord]:
    """Evolve message populations for `iterations` rounds.

    Each round: refresh every variable-to-check bucket (sum of conditioned
    check samples plus a fresh channel LLR), then every check-to-variable
    bucket (tanh rule over conditioned variable samples, plus the parity
    LLR when the law carries the attachment), then estimate the bit error
    rate from full-degree posteriors.
    """
    if population < 1 or iterations < 0:
        raise ValueError("population must be positive and iterations non-negative")
    rng = make_rng(seed, "popdyn")
    nv = law.var_degrees.size
    nc = law.chk_degrees.size
    sizes_v = _bucket_sizes(law.q_v, population)
    sizes_c = _bucket_sizes(law.q_c, population)
    c2v = [np.zeros(s) for s in sizes_c]
    v2c = [np.zeros(s) for s in sizes_v]

    records: list[PopdynRecord] = []
    for it in range(1, iterations + 1):
        # variable pass
        new_v2c = []
        for i in range(nv):
            t = int(law.var_degrees[i]) - 1
            incoming = _draw_from_buckets(c2v, law.cond_c_given_v[i], int(sizes_v[i]), t, rng)
            new_v2c.append(incoming.sum(axis=1) + _channel_llrs(ch, int(sizes_v[i]), rng))
        v2c = new_v2c

        # check pass
        new_c2v = []
        for j in range(nc):
            t = int(law.chk_degrees[j]) - (2 if law.parity_attached else 1)
            incoming = _draw_from_buckets(v2c, law.cond_v_given_c[j], int(sizes_c[j]), t, rng)
            tanhs = np.tanh(0.5 * np.clip(incoming, -LLR_CLAMP, LLR_CLAMP))
            prod = tanhs.prod(axis=1)
            if law.parity_attached:
                par = _channel_llrs(ch, int(sizes_c[j]), rng)
                prod = prod * np.tanh(0.5 * np.clip(par, -LLR_CLAMP, LLR_CLAMP))
            new_c2v.append(2.0 * np.arctanh(np.clip(prod, -_ATANH_LIMIT, _ATANH_LIMIT)))
        c2v = new_c2v

        # full-degree posterior error estimate
        counts = rng.multinomial(population, law.node_v)
        errors = 0
        for i in range(nv):
            if counts[i] == 0:
                continue
            d = int(law.var_degrees[i])
            incoming = _draw_from_buckets(c2v, law.cond_c_given_v[i], int(counts[i]), d, rng)
            post = incoming.sum(axis=1) + _channel_llrs(ch, int(counts[i]), rng)
            errors += int((post <= 0.0).sum())

        pooled_v2c = np.concatenate(v2c)
        pooled_c2v = np.concatenate(c2v)
        records.append(
            PopdynRecord(
                iteration=it,
                error_rate=errors / population,
                edge_error_rate=float((pooled_v2c <= 0.0).mean()),
                llr_mean=float(pooled_c2v.mean()),
                llr_var=float(pooled_c2v.var()),
            )
        )
    return records
