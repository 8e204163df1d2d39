#!/usr/bin/env python3
"""Sampled message-passing trajectories against the erasure-channel recursion.

On the erasure channel density evolution is exact and scalar per degree
class, which makes it a sharp oracle for the sampled dynamics.  For a
(dv, dc)-regular law the edge erasure rate follows
x_{t+1} = eps * (1 - (1 - x_t)^(dc-1))^(dv-1); `recursion` runs the same
update on any joint degree law.  Acceptance criterion 8 checks the
sampled dynamics against this script's recursion.
"""

import argparse

import numpy as np

from bgmlab.channel import Bec
from bgmlab.popdyn import popdyn_run, regular_law


def recursion(eps, law, iterations):
    """Edge erasure rates x_1 .. x_iterations of `law`'s recursion, from x_0 = 1.

    A variable-to-check message is erased when its channel bit and all its
    other incoming check messages are; a check-to-variable message is known
    when all its other variable inputs, and its parity observation when the
    law attaches one, are known.  Each incoming message comes from a degree
    class drawn from the joint law conditioned on the receiving node's
    degree.  The edge rate pools the variable classes by their edge mass.
    """
    joint = law.joint / law.joint.sum()
    q_v = joint.sum(axis=1)
    c_given_v = joint / q_v[:, None]
    v_given_c = (joint / joint.sum(axis=0)).T
    parity = 1 if law.parity_attached else 0
    y = np.ones(law.chk_degrees.size)  # check-to-variable erasure rate per check class
    rates = []
    for _ in range(iterations):
        x = eps * (c_given_v @ y) ** (law.var_degrees - 1)
        y = 1.0 - (1.0 - eps) ** parity * (1.0 - v_given_c @ x) ** (law.chk_degrees - 1 - parity)
        rates.append(float(q_v @ x))
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
        for rec, x in zip(records, recursion(eps, law, args.iterations)):
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
