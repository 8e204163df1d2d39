"""Reference computations that check bgmlab's outputs.

Nothing here calls bgmlab.  Each check recomputes a result from its
definition, or tests a property the method must have, and raises
CheckError with a one-line reason when the output under test disagrees.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erfc, logsumexp

# clamps of the sum-product rule as bgmlab's BpConfig defines it: messages
# and posteriors are clipped to +/-30 and tanh products to 1 - 1e-14
LLR_CLAMP = 30.0
TANH_LIMIT = 1.0 - 1e-14

# agreement between two implementations of the same sum-product rule after
# up to 50 iterations; the two orders of rounding differ by about 1e-11 on
# the workloads' codes, and a different update rule differs by far more
POSTERIOR_ATOL = 1e-6
POSTERIOR_RTOL = 1e-6

BCJR_ATOL = 1e-9            # criterion 9's tolerance for trellis vs exhaustive MAP
FLOOR_FALSE_ALARM = 1e-3    # one-sided test of measured BER against the ML floor


class CheckError(AssertionError):
    """An output failed a reference check."""


def check_counts(frames: int, expected_frames: int, bit_errors: int, frame_errors: int, k: int) -> None:
    """A frame error has at least one and at most k wrong message bits."""
    if frames != expected_frames:
        raise CheckError(f"campaign ran {frames} frames, asked for {expected_frames}")
    if not 0 <= frame_errors <= frames:
        raise CheckError(f"frame errors {frame_errors} outside [0, {frames}]")
    if not frame_errors <= bit_errors <= k * frame_errors:
        raise CheckError(
            f"bit errors {bit_errors} outside [{frame_errors}, {k * frame_errors}]"
            f" for {frame_errors} frame errors"
        )


def dense_generator(row_supports, m: int) -> np.ndarray:
    """k x m 0/1 matrix from per-row column lists."""
    g = np.zeros((len(row_supports), m), dtype=np.uint8)
    for i, cols in enumerate(row_supports):
        g[i, np.asarray(cols, dtype=np.int64)] = 1
    return g


def check_codeword(g_dense: np.ndarray, codeword) -> None:
    """A systematic codeword is (u, u G mod 2)."""
    cw = np.asarray(codeword)
    k, m = g_dense.shape
    if cw.shape != (k + m,):
        raise CheckError(f"codeword length {cw.shape} is not {k + m}")
    parity = (cw[:k].astype(np.int64) @ g_dense) & 1
    if not np.array_equal(parity, cw[k:]):
        raise CheckError(f"{int(np.count_nonzero(parity != cw[k:]))} parity bits disagree with u G")


def dense_sum_product(g_dense: np.ndarray, llrs, iterations: int) -> np.ndarray:
    """Flooding sum-product on the normal graph of [I | G], dense arrays.

    Variable i and check j are joined where G[i, j] = 1; check j also holds
    the parity observation.  Leave-one-out products come from prefix and
    suffix products down each column, so no division and no log domain.
    tanh and arctanh are evaluated at the edges only; off-edge entries are
    the neutral factor 1 and the zero message.  Returns the message-bit
    posteriors after `iterations` rounds.
    """
    k, m = g_dense.shape
    rows, cols = np.nonzero(g_dense)
    llrs = np.asarray(llrs, dtype=np.float64)
    l_sys, l_par = llrs[:k], llrs[k:]
    t_par = np.tanh(0.5 * np.clip(l_par, -LLR_CLAMP, LLR_CLAMP))
    v2c = l_sys[rows]
    posterior = l_sys.copy()
    t = np.ones((k + 1, m))  # row k is the padding factor for the shifted products
    c2v_dense = np.zeros((k, m))
    for _ in range(iterations):
        t[rows, cols] = np.tanh(0.5 * np.clip(v2c, -LLR_CLAMP, LLR_CLAMP))
        before = np.cumprod(np.roll(t, 1, axis=0), axis=0)[:k]  # product of rows above i
        after = np.cumprod(t[k::-1], axis=0)[k - 1::-1]  # product of rows below i
        prod = np.clip(before[rows, cols] * after[rows, cols] * t_par[cols], -TANH_LIMIT, TANH_LIMIT)
        c2v = np.clip(2.0 * np.arctanh(prod), -LLR_CLAMP, LLR_CLAMP)
        c2v_dense[rows, cols] = c2v
        posterior = l_sys + c2v_dense.sum(axis=1)
        v2c = posterior[rows] - c2v
    return posterior


def check_bp_against_reference(g_dense, llrs, hard_decision, posterior, iterations: int) -> None:
    """bp_decode's output after n iterations equals dense sum-product's."""
    ref = dense_sum_product(g_dense, llrs, iterations)
    ref_hard = (ref <= 0.0).astype(np.uint8)
    if not np.array_equal(np.asarray(hard_decision, dtype=np.uint8), ref_hard):
        raise CheckError(
            f"{int(np.count_nonzero(hard_decision != ref_hard))} hard decisions differ"
            f" from dense sum-product after {iterations} iterations"
        )
    if not np.allclose(posterior, ref, rtol=POSTERIOR_RTOL, atol=POSTERIOR_ATOL):
        worst = float(np.max(np.abs(np.asarray(posterior) - ref)))
        raise CheckError(f"posteriors differ from dense sum-product by up to {worst:.3g}")


def qfunc(x):
    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / math.sqrt(2.0))


def ml_floor_ber(g_row_weights, sigma: float) -> float:
    """(1/k) sum_i Q(sqrt(1 + w_i) / sigma): no decoder's BER is below this."""
    w = np.asarray(g_row_weights, dtype=np.float64)
    return float(np.mean(qfunc(np.sqrt(1.0 + w) / sigma)))


def check_ber_not_below_floor(bit_errors: int, bits: int, floor_ber: float) -> float:
    """One-sided Poisson test; returns P(X <= bit_errors) under the floor.

    Bit errors are counted as Poisson with the floor's mean.  The true mean
    is at least that, so a false alarm happens with probability at most
    FLOOR_FALSE_ALARM.
    """
    from scipy.stats import poisson  # imported here: slow to load, and only the checks use it

    p_low = float(poisson.cdf(bit_errors, floor_ber * bits))
    if p_low < FLOOR_FALSE_ALARM:
        raise CheckError(
            f"{bit_errors} bit errors in {bits} bits is below the ML floor"
            f" {floor_ber:.3g} (P = {p_low:.2g} < {FLOOR_FALSE_ALARM})"
        )
    return p_low


def extended_hamming_checks(r: int) -> np.ndarray:
    """(r + 1) x 2^r checks: column t < 2^r - 1 holds t + 1 in binary, plus an all-ones row."""
    n = 1 << r
    h = np.zeros((r + 1, n), dtype=np.uint8)
    for col in range(n - 1):
        for bit in range(r):
            h[bit, col] = ((col + 1) >> bit) & 1
    h[r, :] = 1
    return h


def code_words(h: np.ndarray) -> np.ndarray:
    """Every vector x with h x = 0 mod 2, by enumeration."""
    n = h.shape[1]
    idx = np.arange(1 << n, dtype=np.int64)
    vectors = ((idx[:, None] >> np.arange(n)) & 1).astype(np.uint8)
    keep = ~((vectors.astype(np.int64) @ h.T.astype(np.int64)) & 1).any(axis=1)
    return vectors[keep]


def check_blocks_satisfy(h: np.ndarray, blocks) -> None:
    """Each row of `blocks` (n bits) satisfies every parity check of h."""
    syndromes = (np.asarray(blocks, dtype=np.int64) @ h.T.astype(np.int64)) & 1
    bad = np.flatnonzero(syndromes.any(axis=1))
    if bad.size:
        raise CheckError(f"{bad.size} outer blocks fail the extended-Hamming checks (first: {bad[0]})")


def bitwise_map(words: np.ndarray, priors) -> np.ndarray:
    """Exact bitwise MAP LLRs over a codebook, one row of priors per block."""
    priors = np.atleast_2d(np.asarray(priors, dtype=np.float64))
    logw = 0.5 * priors @ (1.0 - 2.0 * words.T)  # blocks x codewords
    out = np.empty(priors.shape)
    for t in range(words.shape[1]):
        zero = words[:, t] == 0
        out[:, t] = logsumexp(logw[:, zero], axis=1) - logsumexp(logw[:, ~zero], axis=1)
    return out


def check_bcjr_round(words: np.ndarray, prior_stream, posterior_stream) -> float:
    """Per-block trellis posteriors equal exhaustive MAP; returns the worst gap."""
    n = words.shape[1]
    priors = np.asarray(prior_stream, dtype=np.float64).reshape(-1, n)
    exact = bitwise_map(words, priors)
    worst = float(np.max(np.abs(np.asarray(posterior_stream).reshape(-1, n) - exact)))
    if not worst <= BCJR_ATOL:
        raise CheckError(f"BCJR posterior differs from exhaustive MAP by {worst:.3g}")
    return worst


def pearson_assortativity(n_var: int, n_chk: int, edges) -> float:
    """Degree correlation over edges, degrees pooled over both sides.

    Every edge counts once as (d_v, d_c) and once as (d_c, d_v), which is
    the symmetrized joint law; r is the Pearson correlation of the pair.
    """
    e = np.asarray(edges, dtype=np.int64)
    dv = np.bincount(e[:, 0], minlength=n_var)[e[:, 0]].astype(np.float64)
    dc = np.bincount(e[:, 1], minlength=n_chk)[e[:, 1]].astype(np.float64)
    x = np.concatenate([dv, dc])
    y = np.concatenate([dc, dv])
    x -= x.mean()
    y -= y.mean()
    return float((x * y).sum() / math.sqrt((x * x).sum() * (y * y).sum()))


def check_graph(d1, d2, n_var: int, n_chk: int, edges, r_star: float, epsilon: float) -> float:
    """Degrees kept exactly, no parallel edge, r within epsilon; returns r."""
    e = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if not np.array_equal(np.bincount(e[:, 0], minlength=n_var), np.asarray(d1)):
        raise CheckError("variable degree sequence not kept")
    if not np.array_equal(np.bincount(e[:, 1], minlength=n_chk), np.asarray(d2)):
        raise CheckError("check degree sequence not kept")
    keys = e[:, 0] * n_chk + e[:, 1]
    if np.unique(keys).size != keys.size:
        raise CheckError(f"{keys.size - np.unique(keys).size} parallel edges")
    r = pearson_assortativity(n_var, n_chk, e)
    if not abs(r - r_star) <= epsilon:
        raise CheckError(f"assortativity {r:+.4f} is not within {epsilon} of {r_star:+.2f}")
    return r


def _edge_law(n: int, p: float, mass_tol: float):
    """Edge-perspective law of Binomial(n, p) degrees >= 1 with pmf >= mass_tol."""
    from scipy.stats import binom

    d = np.arange(1, n + 1)
    pmf = binom.pmf(d, n, p)
    keep = pmf >= mass_tol
    d, w = d[keep], d[keep] * pmf[keep]
    return d, w / w.sum()


def bec_edge_erasure_trajectory(
    eps: float, n: int, p: float, iterations: int, population: int,
    mass_tol: float = 1e-9, min_bucket: int = 100,
) -> np.ndarray:
    """Fresh variable-to-check erasure rate per iteration on BEC(eps).

    Product law, Binomial(n, p) degrees on both sides, a parity observation
    on every check.  x_t = eps * y_{t-1}^(d-1) per variable degree d, with
    y the check-to-variable erasure rate, y_0 = 1 and
    y_t = 1 - (1 - eps) E_rho[(1 - x_t)^(d-1)].  The reported rate pools
    per-degree populations of size max(round(lambda_d N), min_bucket), as
    popdyn_run sizes them.
    """
    dv, lam = _edge_law(n, p, mass_tol)
    dc, rho = _edge_law(n, p, mass_tol)
    sizes = np.maximum(np.round(lam * population), min_bucket)
    y = 1.0
    out = []
    for _ in range(iterations):
        x_d = eps * y ** (dv - 1)
        x_edge = float(lam @ x_d)
        out.append(float(sizes @ x_d / sizes.sum()))
        y = 1.0 - (1.0 - eps) * float(rho @ (1.0 - x_edge) ** (dc - 1))
    return np.array(out)


def check_popdyn_trajectory(measured, expected, population: int) -> float:
    """Criterion 8's band: |measured - x| <= max(0.02 x, 6 sqrt(x / N)).

    Returns the worst ratio of deviation to tolerance.
    """
    worst = 0.0
    for t, (got, x) in enumerate(zip(measured, expected), start=1):
        tol = max(0.02 * x, 6.0 * math.sqrt(max(x, 1e-12) / population))
        worst = max(worst, abs(got - x) / tol)
        if abs(got - x) > tol:
            raise CheckError(
                f"iteration {t}: edge erasure rate {got:.5f} vs recursion {x:.5f} (tol {tol:.2g})"
            )
    return worst
