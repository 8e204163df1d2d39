"""Concatenation of an outer algebraic code with an inner sparse code.

The outer code is the extended Hamming family [2^r, 2^r - r - 1] with
minimum distance 4, decoded bitwise-MAP on its syndrome trellis (log-domain
BCJR).  Outer codewords, interleaved, form the message of an inner
systematic Bernoulli code decoded by BP.  The receiver alternates the two
decoders, exchanging extrinsic LLRs only: each component receives the
other's output minus what it supplied itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .gf2 import BitMatrix, gf2_null_space
from .ensemble import SystematicCode, encode
from .decode import LLR_CLAMP, BpConfig, BpGraph, DecodeOutcome, bp_decode, hard_decision
from .rng import make_rng

__all__ = [
    "ExtendedHammingCode",
    "extended_hamming",
    "SyndromeTrellis",
    "bcjr_decode",
    "ConcatConfig",
    "ConcatSystem",
    "concat_encode",
    "concat_decode",
]


@dataclass(eq=False)
class ExtendedHammingCode:
    """[2^r, 2^r - r - 1] code: Hamming plus an overall parity bit."""

    r: int
    n: int = field(init=False)
    k: int = field(init=False)
    parity_check: BitMatrix = field(init=False, repr=False)
    generator: BitMatrix = field(init=False, repr=False)
    info: np.ndarray = field(init=False, repr=False)
    trellis: SyndromeTrellis = field(init=False, repr=False)
    _gen_dense: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"need r >= 2, got {self.r}")
        self.n = 2**self.r
        self.k = self.n - self.r - 1
        h = np.zeros((self.r + 1, self.n), dtype=np.uint8)
        for col in range(self.n - 1):
            value = col + 1
            for bit in range(self.r):
                h[bit, col] = (value >> bit) & 1
        h[self.r, :] = 1  # overall parity row covers every position
        self.parity_check = BitMatrix.from_dense(h)
        basis = gf2_null_space(h)
        if basis.shape[0] != self.k:
            raise ValueError("parity-check matrix rank is off")
        self._gen_dense = basis
        self.generator = BitMatrix.from_dense(basis)
        # message positions: the first unit column of each generator row
        unit = np.flatnonzero(basis.sum(axis=0) == 1)
        _, first = np.unique(basis[:, unit].argmax(axis=0), return_index=True)
        self.info = unit[first]
        if not np.array_equal(basis[:, self.info], np.eye(self.k, dtype=np.uint8)):
            raise ValueError("generator carries no identity on its message positions")
        self.trellis = SyndromeTrellis(self.parity_check)

    def encode(self, messages) -> np.ndarray:
        """Codewords (..., n) of one message or a (..., k) stack of them."""
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.shape[-1:] != (self.k,):
            raise ValueError(f"message shape {messages.shape} does not end in k={self.k}")
        return (messages @ self._gen_dense) & 1


def extended_hamming(r: int) -> ExtendedHammingCode:
    return ExtendedHammingCode(r)


class SyndromeTrellis:
    """Sectionalized syndrome trellis of a binary linear code.

    State after t sections is the partial syndrome of the first t bits; a
    codeword is any 0 -> 0 path.  State count is 2^(rows of H), at most
    2^(r+1) for the extended Hamming family.
    """

    def __init__(self, parity_check: BitMatrix):
        h = parity_check.to_dense()
        self.n = h.shape[1]
        self.n_states = 1 << h.shape[0]
        weights = 1 << np.arange(h.shape[0], dtype=np.int64)
        self.column_syndromes = (h.astype(np.int64) * weights[:, None]).sum(axis=0)

    def codeword_states(self, codeword) -> np.ndarray:
        """Partial-syndrome state sequence, length n + 1, for a bit vector."""
        codeword = np.asarray(codeword, dtype=np.int64)
        states = np.zeros(self.n + 1, dtype=np.int64)
        acc = 0
        for t in range(self.n):
            if codeword[t]:
                acc ^= int(self.column_syndromes[t])
            states[t + 1] = acc
        return states


def bcjr_decode(code: ExtendedHammingCode, prior_llrs) -> np.ndarray:
    """Bitwise MAP posterior LLRs over the code, from per-bit prior LLRs.

    Log-domain forward-backward on the code's syndrome trellis, run at once
    over every block of a (..., n) stack of priors.  Branch metrics are
    +/- L/2 per bit so per-section constants cancel in the posteriors.
    """
    trellis = code.trellis
    priors = np.asarray(prior_llrs, dtype=np.float64)
    if priors.shape[-1:] != (trellis.n,):
        raise ValueError(f"prior shape {priors.shape} does not end in n={trellis.n}")
    n = trellis.n
    state_idx = np.arange(trellis.n_states)

    alpha = np.full((n + 1, *priors.shape[:-1], trellis.n_states), -np.inf)
    alpha[0, ..., 0] = 0.0
    for t in range(n):
        half = 0.5 * priors[..., t, None]
        flip = state_idx ^ int(trellis.column_syndromes[t])
        stay = alpha[t] + half
        move = (alpha[t] - half)[..., flip]
        alpha[t + 1] = np.logaddexp(stay, move)
        alpha[t + 1] -= _finite_peak(alpha[t + 1])

    posterior = np.empty(priors.shape)
    beta = np.full(alpha.shape[1:], -np.inf)
    beta[..., 0] = 0.0
    for t in range(n - 1, -1, -1):
        half = 0.5 * priors[..., t, None]
        flip = state_idx ^ int(trellis.column_syndromes[t])
        num0 = _logsumexp(alpha[t] + half + beta)
        num1 = _logsumexp(alpha[t] - half + beta[..., flip])
        posterior[..., t] = num0 - num1
        beta = np.logaddexp(beta + half, beta[..., flip] - half)
        beta -= _finite_peak(beta)
    return posterior


def _finite_peak(values: np.ndarray) -> np.ndarray:
    """Maximum over the last axis (kept), or 0 where that maximum is not finite."""
    peak = values.max(axis=-1, keepdims=True)
    return np.where(np.isfinite(peak), peak, 0.0)


def _logsumexp(values: np.ndarray) -> np.ndarray:
    """peak + log sum exp(values - peak) over the last axis; -inf where the peak is not finite."""
    peak = values.max(axis=-1)
    finite = np.isfinite(peak)
    shift = np.where(finite, peak, 0.0)
    total = np.exp(values - shift[..., None]).sum(axis=-1)
    return np.where(finite, shift + np.log(np.where(finite, total, 1.0)), -np.inf)


@dataclass(frozen=True)
class ConcatConfig:
    rounds: int = 5
    first_round_bp_iters: int = 50
    later_bp_iters: int = 10

    def __post_init__(self):
        if self.rounds < 1:
            raise ValueError("rounds must be >= 1")


@dataclass(eq=False)
class ConcatSystem:
    """Outer blocks feeding an inner systematic code through an interleaver."""

    outer: ExtendedHammingCode
    blocks: int
    inner: SystematicCode
    interleaver_seed: int
    perm: np.ndarray = field(init=False, repr=False)
    graph: BpGraph = field(init=False, repr=False)

    def __post_init__(self):
        if self.blocks < 1:
            raise ValueError("need at least one outer block")
        if self.blocks * self.outer.n != self.inner.k:
            raise ValueError(
                f"outer stream length {self.blocks}*{self.outer.n} "
                f"does not match inner k={self.inner.k}"
            )
        rng = make_rng(self.interleaver_seed, "interleaver")
        # inner message position of outer-stream bit i
        self.perm = rng.permutation(self.inner.k)
        self.graph = BpGraph(self.inner)

    def message_bits(self, inner_message) -> np.ndarray:
        """The blocks * outer.k outer message bits carried by an inner message."""
        blocks = np.asarray(inner_message)[self.perm].reshape(self.blocks, self.outer.n)
        return blocks[:, self.outer.info].reshape(-1)

    @property
    def total_rate(self) -> Fraction:
        return Fraction(self.outer.k * self.blocks, self.inner.k + self.inner.m)


def concat_encode(system: ConcatSystem, outer_messages) -> np.ndarray:
    """Encode block messages (blocks x outer.k) into an inner codeword."""
    msgs = np.asarray(outer_messages, dtype=np.uint8)
    if msgs.shape != (system.blocks, system.outer.k):
        raise ValueError(
            f"messages shape {msgs.shape} does not match ({system.blocks}, {system.outer.k})"
        )
    u = np.empty(system.inner.k, dtype=np.uint8)
    u[system.perm] = system.outer.encode(msgs).reshape(-1)
    return encode(system.inner, u)


def concat_decode(
    system: ConcatSystem,
    llrs,
    cfg: ConcatConfig = ConcatConfig(),
    return_trace: bool = False,
):
    """Iterative decoding; returns the inner-message estimate.

    Round structure: BP on the inner graph with the outer extrinsic as
    a-priori on systematic bits, then one BCJR pass over all outer blocks
    with priors equal to the BP posterior minus that a-priori.  The hard
    decision always covers the inner message bits (the interleaved outer
    codeword stream).
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    inner = system.inner
    if llrs.shape != (inner.k + inner.m,):
        raise ValueError(f"LLR length {llrs.shape} does not match {inner.k + inner.m}")
    trace = []
    outer_extrinsic = np.zeros(inner.k)
    for rnd in range(cfg.rounds):
        iters = cfg.first_round_bp_iters if rnd == 0 else cfg.later_bp_iters
        bp_cfg = BpConfig(max_iterations=iters)
        outcome = bp_decode(system.graph, llrs, bp_cfg, apriori=outer_extrinsic)
        inner_extrinsic = outcome.posterior - outer_extrinsic

        # deinterleave to outer-stream order and decode every block at once
        stream_prior = inner_extrinsic[system.perm]
        stream_post = bcjr_decode(system.outer, stream_prior.reshape(system.blocks, -1)).reshape(-1)
        stream_extrinsic = stream_post - stream_prior
        new_outer_extrinsic = np.empty(inner.k)
        new_outer_extrinsic[system.perm] = stream_extrinsic
        if return_trace:
            trace.append(
                {
                    "round": rnd,
                    "bp_apriori": outer_extrinsic.copy(),
                    "bp_posterior": outcome.posterior.copy(),
                    "inner_extrinsic": inner_extrinsic.copy(),
                    "bcjr_prior": stream_prior.copy(),
                    "bcjr_posterior": stream_post.copy(),
                    "outer_extrinsic": new_outer_extrinsic.copy(),
                }
            )
        outer_extrinsic = np.clip(new_outer_extrinsic, -LLR_CLAMP, LLR_CLAMP)

    # final decision: outer posteriors mapped back to inner message order
    stream_decision = hard_decision(stream_post)
    u_hat = np.empty(inner.k, dtype=np.uint8)
    u_hat[system.perm] = stream_decision
    final = DecodeOutcome(
        hard_decision=u_hat,
        converged=outcome.converged,
        iterations_used=outcome.iterations_used,
        posterior=None,
    )
    return (final, trace) if return_trace else final
