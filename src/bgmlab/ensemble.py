"""Bernoulli generator-matrix code ensembles.

A systematic code transmits the message followed by parity bits u @ G,
where G has i.i.d. Bernoulli(rho) entries.  The parity-check sibling uses
the same G as a check matrix: {u : u @ G = 0}.  Expected weight enumerators
of both families have closed forms in terms of the parity success
probability rho_omega and are evaluated in log space.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

from .gf2 import BitMatrix, load_matrix, mat_vec_mul, rank, read_text, save_matrix
from .rng import make_rng

__all__ = [
    "rho_omega",
    "SystematicCode",
    "BpcCode",
    "sample_bgm",
    "sample_fixed_row_weight",
    "sample_bpc",
    "encode",
    "Iowef",
    "iowef",
    "log_binom_pmf",
    "bpc_weight_distribution",
    "save_code",
    "load_code",
]


def rho_omega(rho: float, omega: int) -> float:
    """Probability that a parity bit disagrees with 0 given a weight-omega message.

    Each parity bit is an XOR of Bernoulli(rho) picks over the omega set
    message positions, so the closed form is (1 - (1 - 2 rho)^omega) / 2.
    It is nondecreasing in omega and tends to 1/2.
    """
    if not 0.0 < rho <= 0.5:
        raise ValueError(f"rho must lie in (0, 1/2], got {rho}")
    if omega < 0:
        raise ValueError(f"omega must be non-negative, got {omega}")
    return 0.5 * (1.0 - (1.0 - 2.0 * rho) ** omega)


@dataclass(eq=False)
class SystematicCode:
    """Code with generator [I | G]; k x m is the shape of the sparse G."""

    g: BitMatrix
    meta: dict = field(default_factory=dict)
    k: int = field(init=False)
    m: int = field(init=False)
    row_weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.k, self.m = self.g.rows, self.g.cols
        # weight of row i of [I | G]; the identity contributes the +1
        self.row_weights = 1 + self.g.row_weights()

    @property
    def rate(self) -> Fraction:
        return Fraction(self.k, self.k + self.m)


def encode(code: SystematicCode, u) -> np.ndarray:
    """Systematic codeword (u, u @ G) as a uint8 array of length k + m."""
    u = np.asarray(u, dtype=np.uint8)
    if u.shape != (code.k,):
        raise ValueError(f"message length {u.shape} does not match k={code.k}")
    return np.concatenate([u, mat_vec_mul(code.g, u)])


@dataclass(eq=False)
class BpcCode:
    """Parity-check code {u in F_2^k : u @ G = 0}; k x m is the shape of G."""

    g: BitMatrix
    meta: dict = field(default_factory=dict)
    k: int = field(init=False)
    m: int = field(init=False)

    def __post_init__(self):
        self.k, self.m = self.g.rows, self.g.cols

    @property
    def design_rate(self) -> Fraction:
        return Fraction(self.k - self.m, self.k)

    @property
    def actual_rate(self) -> Fraction:
        # dimension k - rank(G); equals the design rate iff G has full column rank
        return Fraction(self.k - rank(self.g), self.k)

    def contains(self, u) -> bool:
        u = np.asarray(u, dtype=np.uint8)
        if u.shape != (self.k,):
            raise ValueError(f"vector length {u.shape} does not match k={self.k}")
        return not mat_vec_mul(self.g, u).any()


def _sample_g(k: int, m: int, rho: float, seed: int) -> BitMatrix:
    if k <= 0 or m <= 0:
        raise ValueError("k and m must be positive")
    if not 0.0 < rho <= 0.5:
        raise ValueError(f"rho must lie in (0, 1/2], got {rho}")
    rng = make_rng(seed, "bgm-sample")
    # one uniform draw per entry, in row-major order, in blocks of about 2**18
    # doubles (2 MB): rng.random((r, m)) draws what r calls of rng.random(m) do
    step = max(1, (1 << 18) // m)
    blocks = [
        np.argwhere(rng.random((min(step, k - i), m)) < rho) + (i, 0)
        for i in range(0, k, step)
    ]
    return BitMatrix(k, m, np.concatenate(blocks))


def sample_bgm(k: int, m: int, rho: float, seed: int) -> SystematicCode:
    """Draw a systematic code with i.i.d. Bernoulli(rho) entries in G."""
    g = _sample_g(k, m, rho, seed)
    return SystematicCode(g, meta={"construction": "bgm", "rho": rho, "seed": seed})


def sample_fixed_row_weight(k: int, m: int, w: int, seed: int) -> SystematicCode:
    """Draw a systematic code whose G rows each have exactly w ones.

    Each row is a uniform w-subset of the m columns, drawn by Floyd's
    algorithm (Bentley & Floyd, CACM 30(9), 1987) on all k rows at once:
    step i draws t uniform in [0, j] with j = m - w + i, and a row that
    already holds t takes j instead.
    """
    if k <= 0 or m <= 0:
        raise ValueError("k and m must be positive")
    if not 0 <= w <= m:
        raise ValueError(f"row weight {w} outside [0, {m}]")
    rng = make_rng(seed, "fixed-row-weight-sample")
    rows = np.arange(k)
    taken = np.zeros((k, m), dtype=bool)
    picks = np.empty((k, w), dtype=np.int64)
    for i, j in enumerate(range(m - w, m)):
        t = rng.integers(0, j + 1, size=k)
        t = np.where(taken[rows, t], j, t)
        taken[rows, t] = True
        picks[:, i] = t
    picks.sort(axis=1)
    g = BitMatrix(k, m, np.column_stack([np.repeat(rows, w), picks.reshape(-1)]))
    return SystematicCode(g, meta={"construction": "fixed-row-weight", "w": w, "seed": seed})


def sample_bpc(k: int, m: int, rho: float, seed: int) -> BpcCode:
    """Draw a parity-check code from the same Bernoulli(rho) matrix family."""
    g = _sample_g(k, m, rho, seed)
    return BpcCode(g, meta={"construction": "bpc", "rho": rho, "seed": seed})


def _log_binom(n: int, k_arr) -> np.ndarray:
    k_arr = np.asarray(k_arr, dtype=np.float64)
    return gammaln(n + 1) - gammaln(k_arr + 1) - gammaln(n - k_arr + 1)


def log_binom_pmf(n: int, p) -> np.ndarray:
    """Natural log of P(X = j), j = 0..n, for X ~ Binomial(n, p); j runs
    along the last axis, so an array p of shape (r, 1) gives r rows."""
    j = np.arange(n + 1, dtype=np.float64)
    with np.errstate(divide="ignore"):
        return _log_binom(n, j) + j * np.log(p) + (n - j) * np.log1p(-p)


@dataclass
class Iowef:
    """Ensemble-average input-output weight enumerator.

    log_coeff[i, j] is the natural log of the expected number of codewords
    with message weight i and parity weight j.  Totals are exact in log
    space; the linear table overflows to inf for large k and is provided
    for inspection at small scale.
    """

    k: int
    m: int
    rho: float
    max_input_weight: int
    log_coeff: np.ndarray

    @property
    def coefficients(self) -> np.ndarray:
        with np.errstate(over="ignore"):
            return np.exp(self.log_coeff)

    def log_total(self) -> float:
        """Natural log of the summed coefficient mass."""
        return float(logsumexp(self.log_coeff))

    def total(self) -> float:
        return float(np.exp(self.log_total()))


def iowef(k: int, m: int, rho: float, max_input_weight: int | None = None) -> Iowef:
    """Expected codeword counts A_{i,j} over the Bernoulli(rho) ensemble.

    A_{i,j} = C(k,i) C(m,j) rho_i^j (1-rho_i)^(m-j): the parity weight of a
    weight-i message is binomial with success probability rho_i.
    """
    if k <= 0 or m <= 0:
        raise ValueError("k and m must be positive")
    if max_input_weight is None:
        max_input_weight = k
    if not 0 <= max_input_weight <= k:
        raise ValueError(f"max_input_weight {max_input_weight} outside [0, {k}]")
    n_i = max_input_weight + 1
    log_coeff = np.full((n_i, m + 1), -np.inf)
    log_coeff[0, 0] = 0.0  # the zero message always maps to zero parity
    i = np.arange(1, n_i)
    p = np.array([rho_omega(rho, int(w)) for w in i])
    log_coeff[1:] = _log_binom(k, i)[:, None] + log_binom_pmf(m, p[:, None])
    return Iowef(k=k, m=m, rho=rho, max_input_weight=max_input_weight, log_coeff=log_coeff)


def bpc_weight_distribution(k: int, m: int, rho: float) -> np.ndarray:
    """Expected number of weight-omega words in the parity-check family.

    A_omega = C(k, omega) (1 - rho_omega)^m, the chance that all m checks
    annihilate a fixed weight-omega vector, summed over positions.
    """
    if k <= 0 or m <= 0:
        raise ValueError("k and m must be positive")
    omega = np.arange(1, k + 1)
    p = np.array([rho_omega(rho, int(w)) for w in omega])
    log_a = np.concatenate(([0.0], _log_binom(k, omega) + m * np.log1p(-p)))
    with np.errstate(over="ignore"):
        return np.exp(log_a)


def save_code(code: SystematicCode | BpcCode, path) -> None:
    """Write the G matrix in the text format plus a JSON sidecar at path + '.json'."""
    save_matrix(code.g, path)
    header = {"k": code.k, "m": code.m}
    header.update(code.meta)
    with open(f"{path}.json", "w") as fh:
        json.dump(header, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_code(path) -> SystematicCode:
    """Read a systematic code saved by save_code; the sidecar is optional.
    A bpc code's parity bits are known at the decoder, so its file is refused."""
    g = load_matrix(path)
    if g.rows == 0:
        raise ValueError(f"{path}: the matrix has no rows, so the code carries no message bits")
    meta = {}
    try:
        meta = json.loads(read_text(f"{path}.json"))
    except FileNotFoundError:
        pass
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}.json: not valid JSON ({exc})")
    if not isinstance(meta, dict):
        raise ValueError(f"{path}.json: the sidecar must be a JSON object")
    for key, size in (("k", g.rows), ("m", g.cols)):
        if meta.get(key, size) != size:
            raise ValueError(
                f"{path}.json: sidecar {key}={meta[key]} contradicts the matrix header's {key}={size}"
            )
    if meta.get("construction") == "bpc":
        raise ValueError(f"{path}: holds a bpc code, not a systematic code")
    return SystematicCode(g, meta={key: val for key, val in meta.items() if key not in ("k", "m")})
