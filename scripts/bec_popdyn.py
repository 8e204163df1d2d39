#!/usr/bin/env python3
"""Sampled message-passing trajectories against the erasure-channel recursion.

For a (dv, dc)-regular population on the erasure channel the edge erasure
rate follows x_{t+1} = eps * (1 - (1 - x_t)^(dc-1))^(dv-1) exactly, which
makes it a sharp oracle for the sampled dynamics.  Acceptance criterion 8
checks the sampled dynamics against this script's recursion.
"""

import argparse

import numpy as np

from bgmlab.channel import Bec
from bgmlab.popdyn import popdyn_run, regular_law


def recursion(eps, dv, dc, iterations):
    """Edge erasure rates x_1 .. x_iterations of the recursion, from x_0 = 1."""
    rates, x = [], 1.0
    for _ in range(iterations):
        x = eps * (1.0 - (1.0 - x) ** (dc - 1)) ** (dv - 1)
        rates.append(x)
    return rates


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dv", type=int, default=3)
    ap.add_argument("--dc", type=int, default=6)
    ap.add_argument("--eps", type=float, nargs="+", default=[0.40, 0.42, 0.45])
    ap.add_argument("--population", type=int, default=100_000)
    ap.add_argument("--iterations", type=int, default=40)
    ap.add_argument("--seed", type=int, default=3)
    args = ap.parse_args()

    law = regular_law(args.dv, args.dc)
    for eps in args.eps:
        records = popdyn_run(
            Bec(eps), law, population=args.population,
            iterations=args.iterations, seed=args.seed,
        )
        print(f"eps={eps}")
        print("  iter  sampled     analytic    |z|")
        for rec, x in zip(records, recursion(eps, args.dv, args.dc, args.iterations)):
            se = np.sqrt(max(x * (1 - x), 1e-30) / args.population)
            z = abs(rec.edge_error_rate - x) / se if se > 0 else 0.0
            print(
                f"  {rec.iteration:4d}  {rec.edge_error_rate:.4e}  {x:.4e}  {z:5.1f}"
            )
            if x < 1e-7 and rec.edge_error_rate == 0.0:
                print("  (both trajectories at zero, stopping printout)")
                break


if __name__ == "__main__":
    main()
