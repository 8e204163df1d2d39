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

from .gf2 import BitMatrix
from .ensemble import SystematicCode, encode
from .decode import LLR_CLAMP, BpConfig, BpGraph, DecodeOutcome, bp_decode, hard_decision
from .rng import make_rng

__all__ = [
    "ExtendedHammingCode",
    "extended_hamming",
    "bcjr_decode",
    "ConcatConfig",
    "ConcatSystem",
    "check_outer_stream",
    "concat_encode",
    "concat_decode",
]


@dataclass(eq=False)
class ExtendedHammingCode:
    """[2^r, 2^r - r - 1] code: Hamming plus an overall parity bit.

    The code is its column-syndrome table: column j of H is the bits of
    ((j + 1) mod n) | 2^r, the bits of j + 1 over an all-ones parity row.
    The parity and message positions, the generator and the labels of the
    BCJR trellis all read that one array; H itself is not stored.
    """

    r: int
    n: int = field(init=False)
    k: int = field(init=False)
    column_syndromes: np.ndarray = field(init=False, repr=False)
    generator: BitMatrix = field(init=False, repr=False)
    info: np.ndarray = field(init=False, repr=False)
    _gen_dense: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if self.r < 2:
            raise ValueError(f"need r >= 2, got {self.r}")
        self.n = 2**self.r
        self.k = self.n - self.r - 1
        syn = ((np.arange(self.n) + 1) % self.n) | self.n
        self.column_syndromes = syn
        # parity positions: the leftmost columns outside the span of the
        # columns before them (the RREF pivots); `reach` maps each syndrome
        # they span to the bitmask of the parity columns that sum to it
        parity, reach = [], {0: 0}
        for j, s in enumerate(syn.tolist()):
            if s not in reach:
                reach.update({t ^ s: mask | 1 << len(parity) for t, mask in reach.items()})
                parity.append(j)
        self.info = np.delete(np.arange(self.n), parity)
        # message position j's row: a 1 at j, plus the parity columns summing to its syndrome
        masks = np.array([reach[s] for s in syn[self.info].tolist()])
        gen = np.zeros((self.k, self.n), dtype=np.uint8)
        gen[np.arange(self.k), self.info] = 1
        gen[:, parity] = (masks[:, None] >> np.arange(len(parity))) & 1
        self._gen_dense = gen
        self.generator = BitMatrix.from_dense(gen)

    def encode(self, messages) -> np.ndarray:
        """Codewords (..., n) of one message or a (..., k) stack of them."""
        messages = np.asarray(messages, dtype=np.uint8)
        if messages.shape[-1:] != (self.k,):
            raise ValueError(f"message shape {messages.shape} does not end in k={self.k}")
        return (messages @ self._gen_dense) & 1


def extended_hamming(r: int) -> ExtendedHammingCode:
    return ExtendedHammingCode(r)


def bcjr_decode(code: ExtendedHammingCode, prior_llrs) -> np.ndarray:
    """Bitwise MAP posterior LLRs over the code, from per-bit prior LLRs.

    Log-domain forward-backward on the code's syndrome trellis, run at once
    over every block of a (..., n) stack of finite priors.  The state after
    t sections is the partial syndrome of the first t bits, one of 2n
    values, and a 1 at bit t moves it by `column_syndromes[t]`; codewords
    are the 0 -> 0 paths.  Branch metrics are +/- L/2 per bit so
    per-section constants cancel in the posteriors.  One sweep of n - 1
    steps walks both recursions: step i moves the forward metrics over
    section i and the backward metrics over section n - 1 - i.
    """
    n, states = code.n, 2 * code.n
    priors = np.asarray(prior_llrs, dtype=np.float64)
    if priors.shape[-1:] != (n,):
        raise ValueError(f"prior shape {priors.shape} does not end in n={n}")
    if not np.isfinite(priors).all():
        raise ValueError("prior LLRs must be finite")
    half = 0.5 * priors.reshape(-1, n).T[:, :, None]  # (section, block, 1)
    blocks = half.shape[1]
    # metrics[i] stacks alpha_i and beta_(n-i), each (blocks, states)
    metrics = np.full((n, 2, blocks, states), -np.inf)
    metrics[0, :, :, 0] = 0.0
    sections = np.stack([np.arange(n), np.arange(n)[::-1]], axis=1)  # step i's (forward, backward) section
    steps = half[sections]  # (step, direction, block, 1)
    flips = np.arange(states) ^ code.column_syndromes[:, None]  # state s, moved by a 1 at section t
    # flat index into metrics: entry (i, d, b, s) reads metrics[i, d, b, flips[sections[i, d], s]]
    rows = np.arange(n * 2 * blocks).reshape(n, 2, blocks, 1) * states
    gather = rows + flips[sections][:, :, None, :]
    flat = metrics.reshape(-1)
    for i in range(n - 1):
        h = steps[i]
        np.logaddexp(metrics[i] + h, flat[gather[i]] - h, out=metrics[i + 1])
        metrics[i + 1] -= metrics[i + 1].max(axis=-1, keepdims=True)

    # section t joins alpha_t with beta_(t+1), the backward metrics of step n - 1 - t
    alpha, beta = metrics[:, 0], metrics[::-1, 1]
    moved = flat[gather[::-1, 1]]
    posterior = _logsumexp(alpha + half + beta) - _logsumexp(alpha - half + moved)
    return posterior.T.reshape(priors.shape)


def _logsumexp(values: np.ndarray) -> np.ndarray:
    """peak + log sum exp(values - peak) over the last axis."""
    peak = values.max(axis=-1)
    return peak + np.log(np.exp(values - peak[..., None]).sum(axis=-1))


@dataclass(frozen=True)
class ConcatConfig:
    rounds: int = 5
    first_round_bp_iters: int = 50
    later_bp_iters: int = 10

    def __post_init__(self):
        for name in ("rounds", "first_round_bp_iters", "later_bp_iters"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")


def check_outer_stream(blocks: int, n: int, inner_k: int) -> None:
    """Refuse `blocks` outer codewords of length n that do not make up one inner message."""
    if blocks < 1:
        raise ValueError("need at least one outer block")
    if blocks * n != inner_k:
        raise ValueError(f"outer stream length {blocks}*{n} does not match inner k={inner_k}")


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
        check_outer_stream(self.blocks, self.outer.n, self.inner.k)
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

    The receiver keeps one array, the outer code's clipped extrinsic in
    outer-stream order (zeros in round 0).  Each round adds it to the LLRs
    of the inner message bits it covers and runs BP; one BCJR pass over all
    outer blocks then takes the BP posterior minus it as priors.  The hard
    decision is in inner-message order.  The outcome's `converged` and
    `iterations_used` are those of the last round's inner BP: whether its
    decision reached an inner codeword, and after how many iterations.
    """
    llrs = np.asarray(llrs, dtype=np.float64)
    inner = system.inner
    if llrs.shape != (inner.k + inner.m,):
        raise ValueError(f"LLR length {llrs.shape} does not match {inner.k + inner.m}")
    trace = []
    prior = np.zeros(inner.k)  # what BP is told of the stream bits, beyond the channel
    for rnd in range(cfg.rounds):
        iters = cfg.first_round_bp_iters if rnd == 0 else cfg.later_bp_iters
        seen = llrs.copy()
        seen[system.perm] += prior
        outcome = bp_decode(system.graph, seen, BpConfig(max_iterations=iters))

        # BP's extrinsic in outer-stream order; every block is decoded at once
        stream_prior = outcome.posterior[system.perm] - prior
        stream_post = bcjr_decode(system.outer, stream_prior.reshape(system.blocks, -1)).reshape(-1)
        if return_trace:
            trace.append(
                {
                    "round": rnd,
                    "bp_posterior": outcome.posterior,
                    "bcjr_prior": stream_prior,
                    "bcjr_posterior": stream_post,
                }
            )
        prior = np.clip(stream_post - stream_prior, -LLR_CLAMP, LLR_CLAMP)

    # final decision: outer posteriors mapped back to inner message order
    u_hat = np.empty(inner.k, dtype=np.uint8)
    u_hat[system.perm] = hard_decision(stream_post)
    final = DecodeOutcome(
        hard_decision=u_hat,
        converged=outcome.converged,
        iterations_used=outcome.iterations_used,
    )
    return (final, trace) if return_trace else final
