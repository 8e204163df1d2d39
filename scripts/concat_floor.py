#!/usr/bin/env python3
"""Paired floor comparison: plain sparse-generator code vs concatenation.

Both systems run at total rate 11/30 and carry 88 message bits in 240
channel bits, so two campaigns with one seed see the same noise
realizations and the comparison is matched frame by frame. The outer
algebraic layer should clear the residual bit errors that set the plain
code's floor. At its default arguments this is acceptance criterion 10.
"""

import argparse

from bgmlab.bounds import ber_lower_bound
from bgmlab.sim import build_code, run_fixed_work


def campaign_specs(plain_seed=0, inner_rho=0.15, rounds=4):
    """(88, 152) plain code, and 8 outer [16, 11] blocks over a (128, 112) inner code."""
    plain = {"construction": "bgm", "k": 88, "m": 152, "rho": 0.05, "seed": plain_seed}
    concat = {
        "construction": "concat", "outer_r": 4, "blocks": 8,
        "inner": {"construction": "bgm", "k": 128, "m": 112, "rho": inner_rho, "seed": 2},
        "interleaver_seed": 1, "rounds": rounds, "first_round_bp_iters": 30,
    }
    return plain, concat


def paired_floor(sigma=0.48, trials=12000, seed=31, workers=4, **spec_args):
    """The plain and the concat point, each over the same `trials` frames."""
    return run_fixed_work(campaign_specs(**spec_args), sigma, trials, seed, workers)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=float, default=0.48)
    ap.add_argument("--trials", type=int, default=12000)
    ap.add_argument("--plain-seed", type=int, default=0)
    ap.add_argument("--inner-rho", type=float, default=0.15)
    ap.add_argument("--rounds", type=int, default=4)
    ap.add_argument("--seed", type=int, default=31)
    args = ap.parse_args()

    spec_args = dict(plain_seed=args.plain_seed, inner_rho=args.inner_rho, rounds=args.rounds)
    plain_pt, concat_pt = paired_floor(args.sigma, args.trials, args.seed, **spec_args)
    bound = ber_lower_bound(build_code(campaign_specs(**spec_args)[0]), args.sigma)
    print(f"plain floor bound: {bound:.3e}")
    print(f"plain:  {plain_pt.bit_errors} bit errors, ber={plain_pt.ber:.3e}")
    print(f"concat: {concat_pt.bit_errors} bit errors, ber={concat_pt.ber:.3e}")
    if concat_pt.bit_errors:
        print(f"improvement: {plain_pt.bit_errors / concat_pt.bit_errors:.1f}x")
    else:
        print("improvement: no concat errors observed")


if __name__ == "__main__":
    main()
