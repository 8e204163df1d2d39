#!/usr/bin/env python3
"""Waterfall comparison of disassortative, neutral, and assortative graphs.

Builds three graphs over the same variable-degree profile, runs BP sweeps
over an Eb/N0 grid, and reports where each BER curve crosses 1e-3. The
disassortative graph should cross earliest.
"""

import argparse
import tempfile
import time
from pathlib import Path

import numpy as np

from bgmlab.decode import BpConfig
from bgmlab.ensemble import SystematicCode, sample_bgm, save_code
from bgmlab.graph import configuration_model, generator_to_graph, graph_to_generator
from bgmlab.sim import SimConfig, StopRule, run_campaign


def crossing(grid, bers, level=1e-3):
    """Log-linear interpolation of the first downward crossing of level."""
    logs = np.log10(np.maximum(bers, 1e-12))
    target = np.log10(level)
    for i in range(len(grid) - 1):
        if logs[i] >= target >= logs[i + 1]:
            frac = (logs[i] - target) / (logs[i] - logs[i + 1])
            return grid[i] + frac * (grid[i + 1] - grid[i])
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=1024)
    ap.add_argument("--rho", type=float, default=0.01)
    ap.add_argument("--profile-seed", type=int, default=5)
    ap.add_argument(
        "--grid", type=float, nargs="+", default=[1.0, 1.4, 1.8, 2.2, 2.6]
    )
    ap.add_argument("--min-frame-errors", type=int, default=60)
    ap.add_argument("--max-frames", type=int, default=2500)
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()

    profile = generator_to_graph(sample_bgm(args.k, args.k, args.rho, seed=args.profile_seed).g)
    d1, d2 = profile.var_degrees(), profile.chk_degrees()

    variants = {}
    for name, dv, dc, target, eps in (
        ("disassortative", d1, d2, -0.5, 0.02),
        ("neutral", d1, d2, 0.0, 0.05),
        ("assortative", d1, d1, 0.2, 0.02),
    ):
        t0 = time.time()
        built = configuration_model(dv, dc, target, epsilon=eps, seed=0)
        variants[name] = built.graph
        print(f"{name}: r={built.r_measured:+.4f} built in {time.time() - t0:.2f}s")

    with tempfile.TemporaryDirectory() as tmp:
        crossings = {}
        for name, graph in variants.items():
            path = Path(tmp) / f"{name}.npz"
            save_code(
                SystematicCode(graph.n_var, graph.n_chk, graph_to_generator(graph)),
                path,
            )
            cfg = SimConfig(
                code={"construction": "graph-file", "path": str(path)},
                channel={"type": "awgn"},
                sweep=tuple(args.grid),
                sweep_unit="ebn0_db",
                stop=StopRule(
                    min_frame_errors=args.min_frame_errors,
                    max_frames=args.max_frames,
                ),
                decoder=BpConfig(max_iterations=50),
                workers=args.workers,
                chunk=32,
                seed=7,
            )
            points = run_campaign(cfg)
            bers = np.array([p.bit_errors / (p.frames * args.k) for p in points])
            for ebn0, ber in zip(args.grid, bers):
                print(f"{name} {ebn0:.1f} dB: ber={ber:.3e}")
            crossings[name] = crossing(np.array(args.grid), bers)

    for name, x in crossings.items():
        shown = "beyond grid" if x is None else f"{x:.2f} dB"
        print(f"{name}: 1e-3 crossing at {shown}")
    if crossings["disassortative"] and crossings["neutral"]:
        gain = crossings["neutral"] - crossings["disassortative"]
        print(f"disassortative gain over neutral: {gain:.2f} dB")


if __name__ == "__main__":
    main()
