#!/usr/bin/env python3
"""Waterfall comparison of disassortative, neutral, and assortative graphs.

Builds three graphs over the same variable-degree profile, runs BP sweeps
over an Eb/N0 grid, and reports where each BER curve crosses 1e-3. The
disassortative graph should cross earliest. At its default arguments this
is acceptance criterion 7.
"""

import argparse
import tempfile
from pathlib import Path

import numpy as np

from bgmlab.ensemble import SystematicCode, sample_bgm, save_code
from bgmlab.graph import configuration_model
from bgmlab.sim import SimConfig, StopRule, run_campaign

GRID = (1.0, 1.4, 1.8, 2.2, 2.6)

# name, r*, epsilon; the assortative graph pairs the variable degrees with themselves
VARIANTS = (("disassortative", -0.5, 0.02), ("neutral", 0.0, 0.05), ("assortative", 0.2, 0.02))


def crossing(grid, bers, level=1e-3):
    """Log-linear interpolation of the first downward crossing of level."""
    logs = np.log10(np.maximum(bers, 1e-12))
    target = np.log10(level)
    for i in range(len(grid) - 1):
        if logs[i] >= target >= logs[i + 1]:
            frac = (logs[i] - target) / (logs[i] - logs[i + 1])
            return grid[i] + frac * (grid[i + 1] - grid[i])
    return None


def build_graphs(k=1024, rho=0.01, profile_seed=5):
    """The three GraphBuildResults over one sampled BGM profile, by name."""
    profile = sample_bgm(k, k, rho, seed=profile_seed).g
    d1, d2 = profile.row_weights(), profile.col_weights()
    return {
        name: configuration_model(d1, d1 if target > 0 else d2, target, epsilon=eps, seed=0)
        for name, target, eps in VARIANTS
    }


def waterfalls(graphs, grid=GRID, min_frame_errors=60, max_frames=2500, workers=4):
    """BER at each grid point of each graph's code, by name."""
    bers = {}
    with tempfile.TemporaryDirectory() as tmp:
        for name, graph in graphs.items():
            path = Path(tmp) / f"{name}.npz"
            save_code(SystematicCode(graph), path)
            cfg = SimConfig(
                code={"construction": "graph-file", "path": str(path)},
                channel={"type": "awgn"},
                sweep=tuple(grid),
                sweep_unit="ebn0_db",
                stop=StopRule(min_frame_errors=min_frame_errors, max_frames=max_frames),
                workers=workers,
                chunk=32,
                seed=7,
            )
            bers[name] = np.array([p.ber for p in run_campaign(cfg)])
    return bers


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=1024)
    ap.add_argument("--rho", type=float, default=0.01)
    ap.add_argument("--profile-seed", type=int, default=5)
    ap.add_argument("--grid", type=float, nargs="+", default=list(GRID))
    ap.add_argument("--min-frame-errors", type=int, default=60)
    ap.add_argument("--max-frames", type=int, default=2500)
    ap.add_argument("--workers", type=int, default=4)
    args = ap.parse_args()

    built = build_graphs(args.k, args.rho, args.profile_seed)
    for name, result in built.items():
        print(f"{name}: r={result.r_measured:+.4f}")
    graphs = {name: result.graph for name, result in built.items()}
    bers = waterfalls(graphs, args.grid, args.min_frame_errors, args.max_frames, args.workers)
    crossings = {}
    for name, curve in bers.items():
        for ebn0, ber in zip(args.grid, curve):
            print(f"{name} {ebn0:.1f} dB: ber={ber:.3e}")
        crossings[name] = crossing(args.grid, curve)

    for name, x in crossings.items():
        shown = "beyond grid" if x is None else f"{x:.2f} dB"
        print(f"{name}: 1e-3 crossing at {shown}")
    if crossings["disassortative"] and crossings["neutral"]:
        gain = crossings["neutral"] - crossings["disassortative"]
        print(f"disassortative gain over neutral: {gain:.2f} dB")


if __name__ == "__main__":
    main()
