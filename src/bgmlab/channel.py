"""Binary-input output-symmetric channels and their information quantities.

Three channel families: BSC(p), BEC(eps), and BPSK over AWGN with noise
variance sigma^2 (bit b maps to the signal 1 - 2b).  LLRs are natural-log
log(P(y|0)/P(y|1)); information-theoretic quantities are reported in bits.

A BIOS channel is fully described by the law of its LLR L given X = 0, and
`llr`, I_0 and E_0 read that law alone: BSC and BEC through one table of
(P(y|0), LLR(y)) over their outputs, AWGN through L = 2Y / sigma^2.  The
"partial" quantities condition the input prior on an arbitrary P(X=1) = p
instead of the uniform prior: partial mutual information I_0(p) and the
partial Gallager exponent E_0(p, gamma), each an expectation over L.  Both
reduce to the familiar uniform-prior forms at p = 1/2.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import roots_hermite

from .ensemble import rho_omega

__all__ = [
    "LLR_SAT",
    "Bsc",
    "Bec",
    "BpskAwgn",
    "BEC_ERASURE",
    "channel_from_config",
    "transmit",
    "llr",
    "partial_mutual_information",
    "capacity",
    "e0",
    "partial_error_exponent",
    "binary_entropy",
    "ldpc_threshold_bound",
    "sigma_from_ebn0_db",
]

# Saturation magnitude standing in for infinite LLRs (BEC known bits,
# BSC with p in {0, 1}).  tanh(LLR_SAT / 2) rounds to 1.0 in float64,
# which is exactly the hard-evidence behavior wanted downstream.
LLR_SAT = 40.0

BEC_ERASURE = -1  # erasure mark in BEC output arrays


@dataclass(frozen=True)
class Bsc:
    p: float

    def __post_init__(self):
        if not 0.0 <= self.p <= 1.0:
            raise ValueError(f"crossover must lie in [0, 1], got {self.p}")


@dataclass(frozen=True)
class Bec:
    eps: float

    def __post_init__(self):
        if not 0.0 <= self.eps <= 1.0:
            raise ValueError(f"erasure rate must lie in [0, 1], got {self.eps}")


@dataclass(frozen=True)
class BpskAwgn:
    sigma: float

    def __post_init__(self):
        if not 0.0 < self.sigma < math.inf:  # NaN fails both comparisons
            raise ValueError(f"sigma must be finite and positive, got {self.sigma}")

    @property
    def sigma2(self) -> float:
        return self.sigma * self.sigma


Channel = Bsc | Bec | BpskAwgn


def sigma_from_ebn0_db(ebn0_db: float, rate: float) -> float:
    """Noise sigma for a given Eb/N0 in dB at unit signal energy."""
    if rate <= 0:
        raise ValueError("rate must be positive")
    try:
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        sigma = math.sqrt(1.0 / (2.0 * rate * ebn0))
    except ArithmeticError:  # 10**x overflows, or underflows to 0 and the division fails
        sigma = math.nan
    if not 0.0 < sigma < math.inf:  # NaN fails both comparisons
        raise ValueError(f"Eb/N0 of {ebn0_db} dB gives no finite positive sigma")
    return sigma


def channel_from_config(cfg: dict) -> Channel:
    """Build a channel from {"type": ..., "param": ...}; AWGN's param is sigma."""
    kind = cfg.get("type")
    if kind == "bsc":
        return Bsc(float(cfg["param"]))
    if kind == "bec":
        return Bec(float(cfg["param"]))
    if kind == "awgn":
        return BpskAwgn(float(cfg["param"]))
    raise ValueError(f"unknown channel type {kind!r}")


def transmit(ch: Channel, bits, rng: np.random.Generator) -> np.ndarray:
    """Send a bit array through the channel.

    BSC returns uint8 bits, BEC returns int8 with BEC_ERASURE marking
    erasures, AWGN returns float64 observations of the signal 1 - 2b.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if isinstance(ch, Bsc):
        flips = rng.random(bits.shape) < ch.p
        return (bits ^ flips).astype(np.uint8)
    if isinstance(ch, Bec):
        out = bits.astype(np.int8)
        out[rng.random(bits.shape) < ch.eps] = BEC_ERASURE
        return out
    if isinstance(ch, BpskAwgn):
        signal = 1.0 - 2.0 * bits.astype(np.float64)
        return signal + ch.sigma * rng.standard_normal(bits.shape)
    raise TypeError(f"not a channel: {ch!r}")


def _output_law(ch: Bsc | Bec) -> tuple[np.ndarray, np.ndarray]:
    """(P(y|0), LLR(y)) of a discrete channel, indexed by the output value y.

    BSC: y in (0, 1), LLR +/-log((1-p)/p), infinite at p in {0, 1}.  BEC: y in
    (0, 1, erasure); BEC_ERASURE is -1, so table[received] reads the last slot.
    """
    if isinstance(ch, Bsc):
        if ch.p in (0.0, 1.0):
            lam = math.inf if ch.p == 0.0 else -math.inf
        else:
            lam = math.log((1.0 - ch.p) / ch.p)
        return np.array([1.0 - ch.p, ch.p]), np.array([lam, -lam])
    if isinstance(ch, Bec):
        return np.array([1.0 - ch.eps, 0.0, ch.eps]), np.array([math.inf, -math.inf, 0.0])
    raise TypeError(f"not a channel: {ch!r}")


def llr(ch: Channel, received) -> np.ndarray:
    """Natural-log LLR log(P(y|0)/P(y|1)) per observation.

    Infinite values (BEC known bits, BSC with p in {0, 1}) saturate at
    +/- LLR_SAT; BEC erasures map to exactly 0.
    """
    if isinstance(ch, BpskAwgn):
        return 2.0 * np.asarray(received, dtype=np.float64) / ch.sigma2
    _, table = _output_law(ch)
    return np.clip(table, -LLR_SAT, LLR_SAT)[np.asarray(received)]


@lru_cache(maxsize=None)
def _hermite_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = roots_hermite(order)
    return nodes, weights / math.sqrt(math.pi)


_GH_ORDERS = (32, 48, 64, 96, 128, 192, 256, 384)
_GH_TOL = 1e-9


def _expect_llr(ch: Channel, f) -> float:
    """E[f(L) | X = 0]: a sum over the outputs of nonzero probability, or for
    AWGN, L = 2Y / sigma^2 with Y ~ N(1, sigma^2), Gauss-Hermite rules of
    rising order until two successive ones agree within _GH_TOL."""
    if isinstance(ch, BpskAwgn):
        prev = None
        for order in _GH_ORDERS:
            t, w = _hermite_rule(order)
            y = 1.0 + math.sqrt(2.0) * ch.sigma * t
            val = float(np.dot(w, f(2.0 * y / ch.sigma2)))
            if prev is not None and abs(val - prev) <= _GH_TOL:
                return val
            prev = val
        return prev
    prob, table = _output_law(ch)
    keep = prob > 0.0
    return float(np.dot(prob[keep], f(table[keep])))


def partial_mutual_information(ch: Channel, p: float) -> float:
    """I_0(p) = sum_y P(y|0) log2(P(y|0) / P(y)), P(y) = (1-p)P(y|0) + pP(y|1).

    As P(y|1)/P(y|0) = e^(-L), this is E[log2(1 / ((1-p) + p e^(-L))) | X = 0].
    Strictly increasing in p on [0, 1/2]; I_0(1/2) is the channel capacity.
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p must lie in [0, 1/2], got {p}")
    if p == 0.0:
        return 0.0
    return _expect_llr(ch, lambda L: np.log2(1.0 / ((1.0 - p) + p * np.exp(-L))))


def capacity(ch: Channel) -> float:
    return partial_mutual_information(ch, 0.5)


def e0(ch: Channel, p: float, gamma: float) -> float:
    """Partial Gallager function, in bits.

    E_0(p, gamma) = -log2 sum_y P(y|0)^(1/(1+gamma))
        [(1-p) P(y|0)^(1/(1+gamma)) + p P(y|1)^(1/(1+gamma))]^gamma
                  = log2(1 / E[((1-p) + p e^(-L/(1+gamma)))^gamma | X = 0]).

    E_0(p, 0) = 0, and the slope at gamma = 0 equals I_0(p).
    """
    if not 0.0 <= p <= 0.5:
        raise ValueError(f"p must lie in [0, 1/2], got {p}")
    if not 0.0 <= gamma <= 1.0:
        raise ValueError(f"gamma must lie in [0, 1], got {gamma}")
    if gamma == 0.0:
        return 0.0
    return math.log2(1.0 / _expect_llr(ch, lambda L: ((1.0 - p) + p * np.exp(-L / (1.0 + gamma))) ** gamma))


_GAMMA_GRID = np.linspace(0.0, 1.0, 32)


def partial_error_exponent(ch: Channel, p: float, rate: float) -> float:
    """max over gamma in [0, 1] of E_0(p, gamma) - gamma * rate, in bits.

    A coarse 32-point scan brackets the optimum, then a bounded scalar
    search refines gamma to 1e-8.  Never negative: gamma = 0 gives 0.
    """
    if not 0.0 <= rate < np.inf:  # NaN fails both comparisons
        raise ValueError(f"rate must be finite and non-negative, got {rate}")
    # scipy.optimize takes about 0.2 s and 22 MB to import, and only `exponent` and `threshold` need it
    from scipy.optimize import minimize_scalar

    def objective(g: float) -> float:
        return e0(ch, p, g) - g * rate

    values = np.array([objective(g) for g in _GAMMA_GRID])
    best = int(np.argmax(values))
    lo = _GAMMA_GRID[max(best - 1, 0)]
    hi = _GAMMA_GRID[min(best + 1, len(_GAMMA_GRID) - 1)]
    res = minimize_scalar(lambda g: -objective(g), bounds=(lo, hi), method="bounded", options={"xatol": 1e-8})
    # 0.0 comes first, so a tie with -0.0 returns +0.0
    return max(0.0, -float(res.fun), float(values[best]))


def binary_entropy(p: float) -> float:
    """H(p) in bits with the 0 log 0 = 0 convention."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"p must lie in [0, 1], got {p}")
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


_THRESHOLD_TOL = 1e-6


def ldpc_threshold_bound(dc: int, dr: int) -> float:
    """Largest p in (0, 1/2) with dr H(p) < dc H(rho_dr(p)).

    rho_dr(p) = (1 - (1 - 2p)^dr) / 2 is the crossover seen by a degree-dr
    check.  Solved by Brent's method (brentq) to `_THRESHOLD_TOL`.  Returns
    0.5 when the inequality holds over the whole interval and 0.0 when it
    never holds.
    """
    if dc < 1 or dr < 2:
        raise ValueError(f"need dc >= 1 and dr >= 2, got ({dc}, {dr})")
    from scipy.optimize import brentq  # imported here for the reason given in partial_error_exponent

    def gap(p: float) -> float:
        return dc * binary_entropy(rho_omega(p, dr)) - dr * binary_entropy(p)

    # at dc == dr the gap rounds to exactly 0 at the right endpoint, which
    # still means the inequality holds on the open interval
    lo, hi = 1e-9, 0.5 - 1e-12
    if gap(hi) >= 0.0:
        return 0.5
    if gap(lo) <= 0.0:
        return 0.0
    return float(brentq(gap, lo, hi, xtol=_THRESHOLD_TOL))
