"""Maximum-likelihood performance floors for systematic sparse codes.

Over BPSK/AWGN, flipping message bit i of the all-zero codeword produces a
codeword at Euclidean distance set by omega_i, the weight of row i of
[I | G].  Pairwise error probabilities of those k competitors give a BER
lower bound valid for any decoder; a subset of rows with pairwise disjoint
supports gives independent error events and hence a certified FER lower
bound.
"""

from __future__ import annotations

import numpy as np
from scipy.special import erfc

from .channel import BpskAwgn
from .ensemble import SystematicCode

__all__ = [
    "qfunc",
    "ber_lower_bound",
    "greedy_orthogonal_list",
    "fer_lower_bound",
]


def qfunc(x) -> np.ndarray | float:
    """Gaussian tail Q(x) via erfc, accurate into the far tail."""
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def ber_lower_bound(code: SystematicCode, sigma: float) -> float:
    """(1/k) sum_i Q(sqrt(omega_i) / sigma) over the k rows of [I | G]."""
    BpskAwgn(sigma)  # refuses a sigma that is not finite and positive
    w = code.row_weights.astype(np.float64)
    return float(np.mean(qfunc(np.sqrt(w) / sigma)))


def greedy_orthogonal_list(code: SystematicCode) -> list[int]:
    """Row indices with pairwise disjoint [I | G] supports, lightest first.

    Repeatedly takes the lightest remaining row (ties to the lowest index)
    whose support is disjoint from everything already selected.  Identity
    columns never collide, so disjointness reduces to the G-row supports.
    """
    order = sorted(range(code.k), key=lambda i: (int(code.row_weights[i]), i))
    supports = code.g.row_supports
    used: set[int] = set()
    selected: list[int] = []
    for i in order:
        support = supports[i]
        if any(int(j) in used for j in support):
            continue
        selected.append(i)
        used.update(int(j) for j in support)
    return selected


def fer_lower_bound(code: SystematicCode, sigma: float) -> float:
    """1 - prod(1 - Q(sqrt(omega_i)/sigma)) over a disjoint-support row list.

    Independence of the per-row error events is guaranteed by support
    disjointness, which makes the bound certified rather than approximate.
    """
    BpskAwgn(sigma)
    rows = greedy_orthogonal_list(code)
    w = code.row_weights[rows].astype(np.float64)
    q = qfunc(np.sqrt(w) / sigma)
    return float(1.0 - np.prod(1.0 - q))
