"""Decoders for systematic sparse codes.

The workhorse is flooding sum-product BP on the code's normal graph: one
variable node per message bit, one check node per parity position.  The
parity observation enters each check as a degree-1 attachment, so its LLR
is folded straight into the check update.  Exhaustive MLD, the repetition
decision rule, and two-step list-coset decoding serve as small-scale
oracles and references.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2 import BitMatrix, mat_vec_mul
from .ensemble import SystematicCode, encode

__all__ = [
    "BpConfig",
    "DecodeOutcome",
    "hard_decision",
    "BpGraph",
    "bp_decode",
    "mld_exhaustive",
    "repetition_decision",
    "list_coset_decode",
]

_ATANH_LIMIT = 1.0 - 1e-14  # keeps arctanh finite after product rounding
LLR_CLAMP = 30.0  # bound on every LLR entering a tanh and on every message passed on


@dataclass(frozen=True)
class BpConfig:
    max_iterations: int = 50
    early_stop: bool = True

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")


@dataclass
class DecodeOutcome:
    hard_decision: np.ndarray
    converged: bool
    iterations_used: int
    posterior: np.ndarray | None = field(default=None, repr=False)


def hard_decision(llrs) -> np.ndarray:
    """0 where the LLR is strictly positive, else 1 (ties break to 1)."""
    return (np.asarray(llrs) <= 0.0).astype(np.uint8)


class BpGraph:
    """Edge arrays of a code's normal graph: views of its G's edge array."""

    def __init__(self, code: SystematicCode):
        self.code = code
        self.k = code.k
        self.m = code.m
        self.edge_var = code.g.edges[:, 0]
        self.edge_chk = code.g.edges[:, 1]
        self.n_edges = code.g.nnz()


def _check_pass(t_edge, t_par, edge_chk, m):
    """Exclusive tanh products per check, with the parity factor included.

    Works in sign/log-magnitude form so that exactly-zero factors (erasures)
    are tracked by count instead of killing the whole product.
    """
    mag = np.abs(t_edge)
    zero = mag < 1e-300
    with np.errstate(divide="ignore"):
        logmag = np.where(zero, 0.0, np.log(np.where(zero, 1.0, mag)))
    neg = (t_edge < 0.0).astype(np.int64)

    par_zero = np.abs(t_par) < 1e-300
    with np.errstate(divide="ignore"):
        par_log = np.where(par_zero, 0.0, np.log(np.abs(np.where(par_zero, 1.0, t_par))))

    chk_log = np.bincount(edge_chk, weights=logmag * ~zero, minlength=m) + par_log
    chk_neg = np.bincount(edge_chk, weights=neg, minlength=m) + (t_par < 0.0)
    chk_zero = np.bincount(edge_chk, weights=zero, minlength=m) + par_zero

    other_zero = chk_zero[edge_chk] - zero
    excl_log = chk_log[edge_chk] - np.where(zero, 0.0, logmag)
    excl_neg = chk_neg[edge_chk] - neg
    prod = np.where(other_zero > 0, 0.0, np.exp(excl_log))
    prod = np.where(excl_neg % 2 == 1, -prod, prod)
    return np.clip(prod, -_ATANH_LIMIT, _ATANH_LIMIT)


def bp_decode(
    graph: BpGraph | SystematicCode,
    llrs,
    cfg: BpConfig = BpConfig(),
    apriori=None,
) -> DecodeOutcome:
    """Flooding sum-product decoding from channel LLRs of length k + m.

    `apriori` optionally adds extrinsic LLRs on the k systematic positions
    (used by the concatenated receiver).  The posterior field of the outcome
    holds message-bit LLRs including channel and a-priori parts.  Early
    stopping declares convergence when the re-encoded hard decision matches
    the hard decisions of the parity channel LLRs.
    """
    if isinstance(graph, SystematicCode):
        graph = BpGraph(graph)
    code = graph.code
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (code.k + code.m,):
        raise ValueError(f"LLR length {llrs.shape} does not match n={code.k + code.m}")
    l_sys = llrs[: code.k].copy()
    if apriori is not None:
        apriori = np.asarray(apriori, dtype=np.float64)
        if apriori.shape != (code.k,):
            raise ValueError("apriori length must equal k")
        l_sys = l_sys + apriori
    l_par = llrs[code.k :]
    par_hard = hard_decision(l_par)

    t_par = np.tanh(0.5 * np.clip(l_par, -LLR_CLAMP, LLR_CLAMP))
    v2c = l_sys[graph.edge_var]
    c2v = np.zeros(graph.n_edges)
    posterior = l_sys.copy()
    converged = False
    iterations = 0

    for iteration in range(1, cfg.max_iterations + 1):
        iterations = iteration
        t_edge = np.tanh(0.5 * np.clip(v2c, -LLR_CLAMP, LLR_CLAMP))
        prod = _check_pass(t_edge, t_par, graph.edge_chk, code.m)
        c2v = np.clip(2.0 * np.arctanh(prod), -LLR_CLAMP, LLR_CLAMP)

        var_tot = np.bincount(graph.edge_var, weights=c2v, minlength=code.k)
        posterior = l_sys + var_tot
        v2c = posterior[graph.edge_var] - c2v

        u_hat = hard_decision(posterior)
        converged = bool(np.array_equal(mat_vec_mul(code.g, u_hat), par_hard))
        if converged and cfg.early_stop:
            break

    return DecodeOutcome(
        hard_decision=hard_decision(posterior),
        converged=converged,
        iterations_used=iterations,
        posterior=posterior,
    )


def _codebook(k: int, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Messages start..stop as rows in lexicographic order (u_0 leftmost)."""
    if stop is None:
        stop = 2**k
    idx = np.arange(start, stop, dtype=np.uint32)
    shifts = np.arange(k - 1, -1, -1, dtype=np.uint32)
    return ((idx[:, None] >> shifts[None, :]) & 1).astype(np.uint8)


def mld_exhaustive(code: SystematicCode, llrs) -> np.ndarray:
    """Exact ML message by scoring all 2^k codewords against the LLRs.

    Maximizes the correlation sum((1 - 2c) * llr); ties resolve to the
    lexicographically smallest message.  Guarded to k <= 24; enumeration is
    chunked so memory stays flat.
    """
    if code.k > 24:
        raise ValueError(f"exhaustive MLD is limited to k <= 24, got k={code.k}")
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (code.k + code.m,):
        raise ValueError(f"LLR length {llrs.shape} does not match n={code.k + code.m}")
    g_dense = code.g.to_dense()
    l_sys = llrs[: code.k]
    l_par = llrs[code.k :]
    best_score = -np.inf
    best_idx = 0
    total = 2**code.k
    chunk = min(total, 1 << 16)
    for start in range(0, total, chunk):
        msgs = _codebook(code.k, start, min(start + chunk, total))
        parity = (msgs @ g_dense) & 1
        scores = (1.0 - 2.0 * msgs) @ l_sys + (1.0 - 2.0 * parity) @ l_par
        local = int(np.argmax(scores))
        # strict > keeps the earliest (lowest lex) index on ties
        if scores[local] > best_score:
            best_score = float(scores[local])
            best_idx = start + local
    return _codebook(code.k, best_idx, best_idx + 1)[0]


def repetition_decision(llrs) -> int:
    """Decide the bit behind repeated observations: 0 iff the LLR sum is positive."""
    total = float(np.sum(np.asarray(llrs, dtype=np.float64)))
    return 0 if total > 0.0 else 1


def list_coset_decode(
    a_matrix: BitMatrix,
    code: SystematicCode,
    v_llr,
    parity_llr,
) -> np.ndarray:
    """Two-step list decoding through the coset partition {u : u @ A = z}.

    Step 1 keeps the systematically most likely member of each coset of the
    auxiliary map A (k x m_tilde).  Step 2 picks the list member whose
    parity word u @ G best explains parity_llr.  Ties at either step break
    to the lexicographically smallest message.
    """
    k = code.k
    if a_matrix.rows != k:
        raise ValueError(f"A has {a_matrix.rows} rows, expected k={k}")
    if k > 20:
        raise ValueError(f"list-coset decoding enumerates 2^k messages; k={k} > 20")
    m_tilde = a_matrix.cols
    v_llr = np.asarray(v_llr, dtype=np.float64)
    parity_llr = np.asarray(parity_llr, dtype=np.float64)
    if v_llr.shape != (k,):
        raise ValueError("v_llr length must equal k")
    if parity_llr.shape != (code.m,):
        raise ValueError("parity_llr length must equal m")

    msgs = _codebook(k)
    z = (msgs @ a_matrix.to_dense()) & 1
    if m_tilde:
        z_keys = z @ (1 << np.arange(m_tilde - 1, -1, -1, dtype=np.int64))
    else:
        z_keys = np.zeros(2**k, dtype=np.int64)
    sys_scores = (1.0 - 2.0 * msgs) @ v_llr

    # group by coset; message order is lexicographic, so the first index
    # attaining a group's max score is the lowest-lex tiebreak
    order = np.argsort(z_keys, kind="stable")
    sorted_keys = z_keys[order]
    starts = np.flatnonzero(np.concatenate([[True], sorted_keys[1:] != sorted_keys[:-1]]))
    group_max = np.maximum.reduceat(sys_scores[order], starts)
    bounds = np.concatenate([starts, [order.size]])
    n = order.size
    is_max = sys_scores[order] == np.repeat(group_max, np.diff(bounds))
    first_pos = np.minimum.reduceat(np.where(is_max, np.arange(n), n), starts)
    reps = order[first_pos]

    list_idx = np.sort(reps.astype(np.int64))
    parity = (msgs[list_idx] @ code.g.to_dense()) & 1
    par_scores = (1.0 - 2.0 * parity) @ parity_llr
    winner = list_idx[int(np.argmax(par_scores))]
    return msgs[winner].copy()
