#!/usr/bin/env python3
"""Compare measured BP error floors against the certified lower bound.

Sweeps sigma for a fixed-row-weight code and prints bound, measured BER,
and their ratio. In the floor region the ratio should sit near 1.
Acceptance criterion 5 is this campaign at sigma 0.68.
"""

import argparse

from bgmlab.bounds import ber_lower_bound
from bgmlab.sim import SimConfig, StopRule, build_code, run_campaign


def floor_config(
    sigmas=(0.62, 0.65, 0.68, 0.71), k=1024, m=1024, row_weight=8, code_seed=1,
    min_frame_errors=30, max_frames=20000, workers=4, seed=5,
):
    return SimConfig(
        code={"construction": "fixed-row-weight", "k": k, "m": m, "w": row_weight, "seed": code_seed},
        channel={"type": "awgn"},
        sweep=tuple(sigmas),
        stop=StopRule(min_frame_errors=min_frame_errors, max_frames=max_frames),
        workers=workers,
        chunk=64,
        seed=seed,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=1024)
    ap.add_argument("--m", type=int, default=1024)
    ap.add_argument("--row-weight", type=int, default=8)
    ap.add_argument("--code-seed", type=int, default=1)
    ap.add_argument("--sigmas", type=float, nargs="+", default=[0.62, 0.65, 0.68, 0.71])
    ap.add_argument("--min-frame-errors", type=int, default=30)
    ap.add_argument("--max-frames", type=int, default=20000)
    ap.add_argument("--workers", type=int, default=4)
    ap.add_argument("--seed", type=int, default=5)
    args = ap.parse_args()

    cfg = floor_config(
        args.sigmas, args.k, args.m, args.row_weight, args.code_seed,
        args.min_frame_errors, args.max_frames, args.workers, args.seed,
    )
    code = build_code(cfg.code)
    print("sigma     bound       measured    ratio   frames")
    for point in run_campaign(cfg):
        bound = ber_lower_bound(code, point.param)
        ratio = point.ber / bound if bound > 0 else float("inf")
        print(f"{point.param:<8.3f}  {bound:.3e}  {point.ber:.3e}  {ratio:6.2f}  {point.frames}")


if __name__ == "__main__":
    main()
