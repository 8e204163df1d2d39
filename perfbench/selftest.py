"""Self-test of the benchmark's checks at tiny sizes.

    python3 perfbench/selftest.py

Every check must pass on a correct output and fail on a deliberately wrong
one: a miscounted frame, a flipped bit, a perturbed posterior, a moved
edge, a shifted trajectory.  A check that can never fail shows up here.
Takes a few seconds; it is not part of the repository's test suite.
"""

from __future__ import annotations

import sys

import numpy as np

import refchecks as rc
from run import import_bgmlab

RESULTS: list[tuple[str, bool]] = []


def require(condition: bool, reason: str) -> None:
    if not condition:
        raise rc.CheckError(reason)


def expect(label: str, should_pass: bool, fn) -> None:
    try:
        fn()
        passed = True
    except rc.CheckError:
        passed = False
    ok = passed == should_pass
    RESULTS.append((label, ok))
    verdict = "passes" if passed else "fails"
    print(f"{'ok  ' if ok else 'BAD '} {label}: {verdict}")


def counts() -> None:
    expect("counts, consistent", True, lambda: rc.check_counts(32, 32, 5, 2, 16))
    expect("counts, a frame missing", False, lambda: rc.check_counts(31, 32, 5, 2, 16))
    expect("counts, more frame errors than bit errors", False, lambda: rc.check_counts(32, 32, 1, 2, 16))
    expect("counts, more bit errors than k per frame error", False, lambda: rc.check_counts(32, 32, 40, 2, 16))


def bp_and_codewords() -> None:
    from bgmlab.decode import BpConfig, BpGraph, bp_decode
    from bgmlab.ensemble import encode, sample_bgm

    code = sample_bgm(16, 16, 0.2, seed=3)
    g = rc.dense_generator(code.g.row_supports, code.m)
    rng = np.random.default_rng(0)
    u = rng.integers(0, 2, size=16, dtype=np.uint8)
    cw = encode(code, u)
    llrs = 2.0 * (1.0 - 2.0 * cw + 0.8 * rng.standard_normal(cw.size)) / 0.64
    out = bp_decode(BpGraph(code), llrs, BpConfig(max_iterations=20, early_stop=False))
    n = out.iterations_used
    # messages still move after a few iterations, so one iteration matters
    early = bp_decode(BpGraph(code), llrs, BpConfig(max_iterations=3, early_stop=False))
    flipped = out.hard_decision.copy()
    flipped[0] ^= 1
    bad_cw = cw.copy()
    bad_cw[-1] ^= 1

    expect("codeword, encode output", True, lambda: rc.check_codeword(g, cw))
    expect("codeword, one parity bit flipped", False, lambda: rc.check_codeword(g, bad_cw))
    expect("dense BP, bp_decode output", True,
           lambda: rc.check_bp_against_reference(g, llrs, out.hard_decision, out.posterior, n))
    expect("dense BP, one hard decision flipped", False,
           lambda: rc.check_bp_against_reference(g, llrs, flipped, out.posterior, n))
    expect("dense BP, posterior off by 1e-3", False,
           lambda: rc.check_bp_against_reference(g, llrs, out.hard_decision, out.posterior + 1e-3, n))
    expect("dense BP, one iteration short", False,
           lambda: rc.check_bp_against_reference(g, llrs, early.hard_decision, early.posterior, 2))


def ml_floor() -> None:
    floor = rc.ml_floor_ber(np.full(1024, 8), 0.68)
    bits = 1_000_000 * 1024
    mean = floor * bits
    expect("ML floor, errors at the floor", True, lambda: rc.check_ber_not_below_floor(int(mean), bits, floor))
    expect("ML floor, errors above the floor", True, lambda: rc.check_ber_not_below_floor(int(3 * mean), bits, floor))
    expect("ML floor, no errors where 5000 are due", False, lambda: rc.check_ber_not_below_floor(0, bits, floor))


def outer_code() -> None:
    from bgmlab.concat import bcjr_decode, extended_hamming

    outer = extended_hamming(3)
    h = rc.extended_hamming_checks(3)
    words = rc.code_words(h)
    rng = np.random.default_rng(1)
    block = outer.encode(rng.integers(0, 2, size=outer.k, dtype=np.uint8))
    bad_block = block.copy()
    bad_block[2] ^= 1
    priors = 2.0 * rng.standard_normal((2, outer.n))
    post = np.concatenate([bcjr_decode(outer, p) for p in priors])
    flipped = post.copy()
    flipped[3] = -flipped[3]

    expect("[8,4] codebook has 16 words", True,
           lambda: require(words.shape == (16, 8), f"found {words.shape[0]}"))
    expect("Hamming checks, encoded block", True, lambda: rc.check_blocks_satisfy(h, block[None, :]))
    expect("Hamming checks, one bit flipped", False, lambda: rc.check_blocks_satisfy(h, bad_block[None, :]))
    expect("BCJR vs exhaustive MAP, bcjr_decode", True, lambda: rc.check_bcjr_round(words, priors, post))
    expect("BCJR vs exhaustive MAP, one posterior flipped", False, lambda: rc.check_bcjr_round(words, priors, flipped))
    expect("BCJR vs exhaustive MAP, posterior off by 1e-6", False,
           lambda: rc.check_bcjr_round(words, priors, post + 1e-6))


def graphs() -> None:
    from bgmlab.ensemble import sample_bgm
    from bgmlab.graph import assortativity, configuration_model

    supports = sample_bgm(100, 100, 0.05, seed=1).g.row_supports
    d1 = np.array([s.size for s in supports])
    d2 = np.bincount(np.concatenate(supports), minlength=100)
    built = configuration_model(d1, d2, -0.05, epsilon=0.05, seed=0)
    g = built.graph
    edges = g.edges.copy()
    r_bg = assortativity(g)
    r_ref = rc.pearson_assortativity(g.n_var, g.n_chk, edges)
    moved = edges.copy()
    moved[0, 1] = (moved[0, 1] + 1) % g.n_chk
    doubled = edges.copy()
    doubled[1] = doubled[0]
    d1_bis = np.bincount(doubled[:, 0], minlength=100)
    d2_bis = np.bincount(doubled[:, 1], minlength=100)

    expect("assortativity, reference equals graph.assortativity", True,
           lambda: require(abs(r_bg - r_ref) < 1e-12, f"{r_bg} vs {r_ref}"))
    expect("graph, configuration_model output", True,
           lambda: rc.check_graph(d1, d2, g.n_var, g.n_chk, edges, -0.05, 0.05))
    expect("graph, one edge moved", False, lambda: rc.check_graph(d1, d2, g.n_var, g.n_chk, moved, -0.05, 0.05))
    expect("graph, a parallel edge", False,
           lambda: rc.check_graph(d1_bis, d2_bis, g.n_var, g.n_chk, doubled, r_ref, 1.0))
    expect("graph, r off target", False, lambda: rc.check_graph(d1, d2, g.n_var, g.n_chk, edges, 0.2, 0.05))


def popdyn() -> None:
    from bgmlab.channel import Bec
    from bgmlab.popdyn import law_from_ensemble, popdyn_run

    population = 20_000
    law = law_from_ensemble(200, 200, 0.05)
    got = [r.edge_error_rate for r in popdyn_run(Bec(0.4), law, population=population, iterations=6, seed=1)]
    want = rc.bec_edge_erasure_trajectory(0.4, 200, 0.05, 6, population)
    expect("popdyn, popdyn_run trajectory", True, lambda: rc.check_popdyn_trajectory(got, want, population))
    expect("popdyn, trajectory shifted by 0.02", False,
           lambda: rc.check_popdyn_trajectory(np.array(got) + 0.02, want, population))
    expect("popdyn, one iteration late", False, lambda: rc.check_popdyn_trajectory(got[1:], want, population))


def main() -> int:
    problem = import_bgmlab()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    for part in (counts, bp_and_codewords, ml_floor, outer_code, graphs, popdyn):
        part()
    bad = [label for label, ok in RESULTS if not ok]
    print(f"{len(RESULTS) - len(bad)}/{len(RESULTS)} self-test cases behave as expected")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
