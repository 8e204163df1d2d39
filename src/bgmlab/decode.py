"""Decoders for systematic sparse codes.

The workhorse is flooding sum-product BP on the code's normal graph: one
variable node per message bit, one check node per parity position.  The
parity observation is a degree-1 attachment to its check, so the check
pass reads it as that check's last factor, after the check's edges: one
pass over one factor array gives the messages to the edges and the
extrinsic to the parity bits alike.  Exhaustive MLD is the small-scale
oracle that BP is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .gf2 import mat_vec_mul
from .ensemble import SystematicCode

__all__ = [
    "BpConfig",
    "DecodeOutcome",
    "hard_decision",
    "BpGraph",
    "bp_decode",
    "mld_exhaustive",
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
    """Factor arrays of a code's normal graph: each check's edges, then its
    parity observation as its last factor."""

    def __init__(self, code: SystematicCode):
        self.code = code
        self.edge_var = code.g.edges[:, 0]
        self.n_edges = code.g.nnz()
        self.factor_chk = np.concatenate([code.g.edges[:, 1], np.arange(code.m)])


def _check_pass(t, chk, m):
    """Exclusive tanh product to every factor: its check's other factors.

    `t` holds the factors' tanh values and `chk` their checks.  Works in
    sign/log-magnitude form: the log magnitudes and the sign parities are
    summed per check, and each product takes its own factor back out; its
    sign comes back by one multiply by +/-1.0, which is exact.  A factor of
    magnitude under 1e-300 (an erasure) adds 0 to the log sum and 1 to its
    check's zero count instead; a product is 0 when its check counts a zero
    factor other than its own, counted only when some factor is zero.
    """
    mag = np.abs(t)
    zero = mag < 1e-300
    mag[zero] = 1.0
    logmag = np.log(mag, out=mag)
    neg = t < 0.0
    chk_odd = np.bincount(chk[neg], minlength=m) & 1

    # a new array, not -=: the bincount of no factors (a code with m = 0) is int64
    log = np.bincount(chk, weights=logmag, minlength=m)[chk] - logmag
    prod = np.exp(log, out=log)
    if zero.any():
        prod[np.bincount(chk[zero], minlength=m)[chk] - zero > 0] = 0.0
    prod *= 1.0 - 2.0 * (chk_odd[chk] ^ neg)
    return prod.clip(-_ATANH_LIMIT, _ATANH_LIMIT, out=prod)


def bp_decode(
    graph: BpGraph | SystematicCode,
    llrs,
    cfg: BpConfig = BpConfig(),
) -> DecodeOutcome:
    """Flooding sum-product decoding from the codeword's k + m channel LLRs.

    BP reads nothing else: the concatenated receiver adds its outer
    extrinsic to the systematic LLRs first.  The outcome's posterior holds
    the message-bit LLRs.  The decision has converged when it is a codeword:
    the re-encoded message decision matches the hard decisions of the parity
    posteriors (channel LLR plus the whole check's extrinsic).  With early
    stopping, decoding ends at the first iteration that converges.
    """
    if isinstance(graph, SystematicCode):
        graph = BpGraph(graph)
    code = graph.code
    llrs = np.asarray(llrs, dtype=np.float64)
    if llrs.shape != (code.k + code.m,):
        raise ValueError(f"LLR length {llrs.shape} does not match n={code.k + code.m}")
    l_sys = llrs[: code.k]
    l_par = llrs[code.k :]

    e = graph.n_edges
    t = np.empty(e + code.m)  # the edges' tanh messages, then the parity observations'
    np.tanh(0.5 * l_par.clip(-LLR_CLAMP, LLR_CLAMP), out=t[e:])
    v2c = l_sys[graph.edge_var]

    for iterations in range(1, cfg.max_iterations + 1):
        np.tanh(0.5 * v2c.clip(-LLR_CLAMP, LLR_CLAMP), out=t[:e])
        ext = 2.0 * np.arctanh(_check_pass(t, graph.factor_chk, code.m))
        c2v = ext[:e].clip(-LLR_CLAMP, LLR_CLAMP)

        var_tot = np.bincount(graph.edge_var, weights=c2v, minlength=code.k)
        posterior = l_sys + var_tot
        v2c = posterior[graph.edge_var] - c2v

        u_hat = hard_decision(posterior)
        par_hard = hard_decision(l_par + ext[e:])
        converged = bool(np.array_equal(mat_vec_mul(code.g, u_hat), par_hard))
        if converged and cfg.early_stop:
            break

    return DecodeOutcome(
        hard_decision=u_hat,
        converged=converged,
        iterations_used=iterations,
        posterior=posterior,
    )


def _codebook(k: int, start: int, stop: int) -> np.ndarray:
    """Messages start..stop as rows in lexicographic order (u_0 leftmost)."""
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
