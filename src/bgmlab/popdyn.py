"""Degree-correlated density evolution by population dynamics.

Each side's messages live in one array, split into classes by the degree
of the emitting node.  An edge joint degree law conditions which class an
incoming message is drawn from, so degree-degree correlation shapes the
dynamics.  The check side optionally carries a parity-observation
attachment: check degree then counts the parity slot, and each check
update consumes one fresh parity-channel LLR along with its variable
messages.

All-zero-codeword convention throughout: correct LLRs are positive, an
error is a non-positive sign, and BEC erasures sit exactly at zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import Channel, llr, transmit
from .decode import _ATANH_LIMIT, LLR_CLAMP
from .ensemble import log_binom_pmf
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
_MASS_TOL = 1e-9  # law_from_ensemble drops degrees with less probability
_GUIDE = 4096  # guide-table buckets; a power of two keeps u * _GUIDE exact


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
        if not np.all(np.isfinite(joint)):
            raise ValueError("joint entries must be finite")
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


def _binomial_degrees(n: int, p: float) -> tuple[np.ndarray, np.ndarray]:
    """Degrees d >= 1 of Binomial(n, p) with pmf >= _MASS_TOL, and their pmf."""
    pmf = np.exp(log_binom_pmf(n, p))
    d = np.flatnonzero(pmf[1:] >= _MASS_TOL) + 1
    return d, pmf[d]


def law_from_ensemble(k: int, m: int, rho: float) -> EdgeDegreeLaw:
    """Product joint degree law of the Bernoulli ensemble.

    Variable degrees follow Binomial(m, rho); graph-side check degrees
    follow Binomial(k, rho), shifted by one here because the parity
    attachment occupies a slot on every check.  Degrees with pmf below
    1e-9 are dropped.  A degree-correlated law comes from a built graph
    through law_from_graph.
    """
    if not 0.0 < rho <= 0.5:
        raise ValueError(f"rho must lie in (0, 1/2], got {rho}")
    wv, pv = _binomial_degrees(m, rho)
    dcg, pc = _binomial_degrees(k, rho)
    if wv.size == 0 or dcg.size == 0:
        raise ValueError(f"degree supports vanished: no degree >= 1 has pmf >= {_MASS_TOL:g}")
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


class _ClassSampler:
    """Class indices drawn from the law p as rng.choice(p.size, shape, p=p)
    draws them: the same index for every entry, the generator left in the
    same state.

    choice returns cdf.searchsorted(u, "right") for u = rng.random(shape).
    A guide table (Chen & Asau 1974) splits [0, 1) into _GUIDE buckets and
    stores the class of every bucket that no cdf value falls inside, so
    most entries cost one gather; the rest, marked -1, go through
    searchsorted.
    """

    def __init__(self, p: np.ndarray):
        self.cdf = p.cumsum()
        self.cdf /= self.cdf[-1]
        edges = np.arange(_GUIDE + 1) / _GUIDE
        lo = self.cdf.searchsorted(edges[:-1], "right")
        hi = self.cdf.searchsorted(edges[1:], "left")
        # the smallest signed type that holds every class and the -1 mark
        self.table = np.where(lo == hi, lo, -1).astype(np.min_scalar_type(-p.size))

    def classes(self, u: np.ndarray) -> np.ndarray:
        cls = self.table[(u * _GUIDE).astype(np.intp)]
        miss = cls < 0
        cls[miss] = self.cdf.searchsorted(u[miss], "right")
        return cls


@dataclass
class _Population:
    """One side's messages: class i holds msgs[start[i] : start[i] + size[i]]."""

    msgs: np.ndarray
    start: np.ndarray
    size: np.ndarray

    @classmethod
    def zeros(cls, weights: np.ndarray, total: int) -> "_Population":
        size = np.maximum(np.round(weights * total).astype(np.int64), _MIN_BUCKET)
        return cls(np.zeros(int(size.sum())), np.cumsum(size) - size, size)

    def part(self, i: int) -> slice:
        return slice(self.start[i], self.start[i] + self.size[i])

    def draw(self, sampler: _ClassSampler, shape: tuple, rng: np.random.Generator) -> np.ndarray:
        """Messages of the given shape; each entry's class drawn by sampler,
        its member uniformly within the class."""
        if sampler.cdf.size == 1:
            return self.msgs[rng.integers(0, self.size[0], shape)]
        cls = sampler.classes(rng.random(shape))
        return self.msgs[self.start[cls] + rng.integers(0, self.size[cls])]


def _channel_llrs(ch: Channel, size: int, rng: np.random.Generator) -> np.ndarray:
    zeros = np.zeros(size, dtype=np.uint8)
    return llr(ch, transmit(ch, zeros, rng))


def popdyn_run(
    ch: Channel,
    law: EdgeDegreeLaw,
    population: int = 100_000,
    iterations: int = 50,
    seed: int = 0,
) -> list[PopdynRecord]:
    """Evolve message populations for `iterations` rounds.

    Each round: refresh every variable-to-check class (sum of conditioned
    check samples plus a fresh channel LLR), then every check-to-variable
    class (tanh rule over conditioned variable samples, plus the parity
    LLR when the law carries the attachment), then estimate the bit error
    rate from full-degree posteriors, the same variable update over all
    of a node's edges.
    """
    if population < 1 or iterations < 0:
        raise ValueError("population must be positive and iterations non-negative")
    rng = make_rng(seed, "popdyn")
    v2c = _Population.zeros(law.q_v, population)
    c2v = _Population.zeros(law.q_c, population)
    chk_inputs = law.chk_degrees - (2 if law.parity_attached else 1)
    c_given_v = [_ClassSampler(row) for row in law.cond_c_given_v]
    v_given_c = [_ClassSampler(row) for row in law.cond_v_given_c]

    def variable_update(i: int, rows: int, inputs: int) -> np.ndarray:
        incoming = c2v.draw(c_given_v[i], (rows, inputs), rng)
        return incoming.sum(axis=1) + _channel_llrs(ch, rows, rng)

    records: list[PopdynRecord] = []
    for it in range(1, iterations + 1):
        for i, dv in enumerate(law.var_degrees):
            v2c.msgs[v2c.part(i)] = variable_update(i, v2c.size[i], dv - 1)

        for j, t in enumerate(chk_inputs):
            incoming = v2c.draw(v_given_c[j], (c2v.size[j], t), rng)
            prod = np.tanh(0.5 * np.clip(incoming, -LLR_CLAMP, LLR_CLAMP)).prod(axis=1)
            if law.parity_attached:
                par = _channel_llrs(ch, c2v.size[j], rng)
                prod = prod * np.tanh(0.5 * np.clip(par, -LLR_CLAMP, LLR_CLAMP))
            c2v.msgs[c2v.part(j)] = 2.0 * np.arctanh(np.clip(prod, -_ATANH_LIMIT, _ATANH_LIMIT))

        counts = rng.multinomial(population, law.node_v)
        errors = sum(
            int((variable_update(i, counts[i], law.var_degrees[i]) <= 0.0).sum())
            for i in np.flatnonzero(counts)
        )
        records.append(
            PopdynRecord(
                iteration=it,
                error_rate=errors / population,
                edge_error_rate=float((v2c.msgs <= 0.0).mean()),
                llr_mean=float(c2v.msgs.mean()),
                llr_var=float(c2v.msgs.var()),
            )
        )
    return records
