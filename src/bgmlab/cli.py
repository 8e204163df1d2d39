"""Command line front end.

Every subcommand that draws randomness takes --seed; when omitted a fresh
seed is pulled from the OS and logged to stderr so the run can be
reproduced.  Validation failures exit nonzero with a one-line message.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from .bounds import ber_lower_bound, fer_lower_bound, fer_lower_bound_approx
from .channel import (
    capacity,
    channel_from_config,
    ldpc_threshold_bound,
    partial_error_exponent,
    partial_mutual_information,
)
from .ensemble import (
    SystematicCode,
    encode,
    iowef,
    load_code,
    sample_bgm,
    sample_bpc,
    sample_fixed_row_weight,
    save_code,
)
from .gf2 import bits_from_string, bits_to_string
from .graph import GraphGenerationError, configuration_model
from .popdyn import law_from_ensemble, law_from_graph, popdyn_run, regular_law
from .rng import fresh_seed
from .sim import config_from_dict, run_campaign, write_csv


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = fresh_seed()
    print(f"seed: {seed}", file=sys.stderr)
    return seed


def _cmd_sample_code(args) -> int:
    seed = _resolve_seed(args)
    if args.construction == "bgm":
        code = sample_bgm(args.k, args.m, args.rho, seed)
    elif args.construction == "fixed-row-weight":
        if args.w is None:
            raise ValueError("fixed-row-weight needs --w")
        code = sample_fixed_row_weight(args.k, args.m, args.w, seed)
    elif args.construction == "bpc":
        code = sample_bpc(args.k, args.m, args.rho, seed)
    else:
        raise ValueError(f"unknown construction {args.construction!r}")
    save_code(code, args.out)
    print(f"wrote {args.out} and {args.out}.json")
    return 0


def _cmd_encode(args) -> int:
    code = load_code(args.code)
    if not isinstance(code, SystematicCode):
        raise ValueError("encode needs a systematic code")
    u = bits_from_string(args.message)
    if u.size != code.k:
        raise ValueError(f"message has {u.size} bits, code expects {code.k}")
    print(bits_to_string(encode(code, u)))
    return 0


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    cfg = config_from_dict(raw)
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    results = run_campaign(cfg)
    write_csv(results, cfg, args.out, timing=args.timing)
    for r in results:
        print(
            f"param={r.param:g} frames={r.frames} ber={r.ber:.3e} fer={r.fer:.3e}",
            file=sys.stderr,
        )
    print(f"wrote {args.out}")
    return 0


def _cmd_bounds(args) -> int:
    code = load_code(args.code)
    if not isinstance(code, SystematicCode):
        raise ValueError("bounds need a systematic code")
    print(f"ber_lower_bound: {ber_lower_bound(code, args.sigma):.6e}")
    print(f"fer_lower_bound: {fer_lower_bound(code, args.sigma):.6e}")
    print(f"fer_lower_bound_approx: {fer_lower_bound_approx(code, args.sigma):.6e}")
    return 0


def _cmd_iowef(args) -> int:
    table = iowef(args.k, args.m, args.rho, args.max_input_weight)
    coeff = table.coefficients
    for i in range(coeff.shape[0]):
        for j in range(coeff.shape[1]):
            if coeff[i, j] > 0:
                print(f"{i},{j},{coeff[i, j]:.10g}")
    return 0


def _cmd_exponent(args) -> int:
    ch = channel_from_config({"type": args.channel, "param": args.param})
    if args.rate is None:
        print(f"capacity_bits: {capacity(ch):.8f}")
        print(f"partial_mi_bits: {partial_mutual_information(ch, args.p):.8f}")
    else:
        e = partial_error_exponent(ch, args.p, args.rate)
        print(f"exponent_bits: {e:.8f}")
    return 0


def _cmd_threshold(args) -> int:
    print(f"{ldpc_threshold_bound(args.dc, args.dr):.8f}")
    return 0


def _cmd_graphgen(args) -> int:
    seed = _resolve_seed(args)
    d1 = np.loadtxt(args.var_degrees, dtype=np.int64, ndmin=1)
    d2 = np.loadtxt(args.chk_degrees, dtype=np.int64, ndmin=1)
    try:
        built = configuration_model(
            d1, d2, args.r_star, epsilon=args.epsilon, seed=seed
        )
    except GraphGenerationError as exc:
        print(f"graph generation failed: {exc}", file=sys.stderr)
        return 1
    g = built.graph
    meta = {
        "r_measured": built.r_measured,
        "swaps": built.swaps,
        "seed": seed,
        "d1_hash": _digest(d1),
        "d2_hash": _digest(d2),
    }
    save_code(SystematicCode(g.n_var, g.n_chk, g, meta=meta), args.out)
    print(f"r_measured={built.r_measured:.4f} swaps={built.swaps}")
    print(f"wrote {args.out} and {args.out}.json")
    return 0


def _digest(arr) -> str:
    import hashlib

    return hashlib.sha256(np.ascontiguousarray(arr, dtype=np.int64).tobytes()).hexdigest()[:16]


def _cmd_popdyn(args) -> int:
    seed = _resolve_seed(args)
    if args.regular:
        law = regular_law(args.dv, args.dc)
    elif args.graph is not None:
        law = law_from_graph(load_code(args.graph).g)
    else:
        law = law_from_ensemble(args.k, args.m, args.rho)
    ch = channel_from_config({"type": args.channel, "param": args.param})
    records = popdyn_run(
        ch, law, population=args.population, iterations=args.iterations, seed=seed
    )
    print("iteration,error_rate,edge_error_rate,llr_mean,llr_var")
    for rec in records:
        print(
            f"{rec.iteration},{rec.error_rate:.8g},{rec.edge_error_rate:.8g},"
            f"{rec.llr_mean:.8g},{rec.llr_var:.8g}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgmlab", description="random linear code experiments"
    )
    parser.add_argument("--version", action="version", version=f"bgmlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample-code", help="draw a code and save its matrix")
    p.add_argument("--construction", choices=("bgm", "fixed-row-weight", "bpc"), default="bgm")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rho", type=float, default=0.5)
    p.add_argument("--w", type=int, default=None, help="row weight for fixed-row-weight")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_code)

    p = sub.add_parser("encode", help="encode a bit string with a saved code")
    p.add_argument("--code", required=True)
    p.add_argument("--message", required=True, help="bit string like 1011")
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("simulate", help="run a Monte Carlo campaign from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--timing", action="store_true", help="write real wall time to the CSV")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("bounds", help="union-style error floor bounds for a saved code")
    p.add_argument("--code", required=True)
    p.add_argument("--sigma", type=float, required=True)
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("iowef", help="ensemble-average weight enumerator as CSV rows i,j,A_ij")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--max-input-weight", type=int, default=None)
    p.set_defaults(func=_cmd_iowef)

    p = sub.add_parser("exponent", help="partial information quantities for a channel")
    p.add_argument("--channel", choices=("bsc", "bec", "awgn"), required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--p", type=float, required=True, help="input one-probability")
    p.add_argument("--rate", type=float, default=None, help="if given, print the exponent at this rate")
    p.set_defaults(func=_cmd_exponent)

    p = sub.add_parser("threshold", help="entropy-balance crossover bound for a regular pair")
    p.add_argument("--dc", type=int, required=True)
    p.add_argument("--dr", type=int, required=True)
    p.set_defaults(func=_cmd_threshold)

    p = sub.add_parser("graphgen", help="degree-correlated bipartite graph sampler")
    p.add_argument("--var-degrees", required=True, help="text file, one degree per line")
    p.add_argument("--chk-degrees", required=True)
    p.add_argument("--r-star", type=float, required=True)
    p.add_argument("--epsilon", type=float, default=0.02)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_graphgen)

    p = sub.add_parser("popdyn", help="density evolution by population sampling")
    p.add_argument("--regular", action="store_true", help="use a single-degree law")
    p.add_argument("--dv", type=int, default=3)
    p.add_argument("--dc", type=int, default=6)
    p.add_argument("--k", type=int, default=1024)
    p.add_argument("--m", type=int, default=1024)
    p.add_argument("--rho", type=float, default=0.002)
    p.add_argument("--graph", metavar="CODE", default=None, help="model this saved code's normal graph")
    p.add_argument("--channel", choices=("bsc", "bec", "awgn"), required=True)
    p.add_argument("--param", type=float, required=True)
    p.add_argument("--population", type=int, default=100_000)
    p.add_argument("--iterations", type=int, default=50)
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=_cmd_popdyn)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
