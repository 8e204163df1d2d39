"""Monte Carlo decoding campaigns with reproducible accounting.

A campaign sweeps one channel parameter over a fixed system, named by the
config's code block: uncoded (the spec's k message bits are sent as they
are and decided bit by bit), a plain systematic code decoded by BP under
the config's decoder settings, or concat: extended Hamming outer blocks
over an inner systematic code, decoded by the iterative receiver of
`concat`, whose message is the blocks * outer k outer message bits.

Every trial runs the same steps: a Philox stream keyed by (master seed,
sweep index, trial index) draws the k message bits, then the channel noise
for the encoded frame; the frame is decoded and its errors counted against
the message.  Results therefore do not depend on execution order: a worker
pool and a serial loop produce identical counts.  Campaigns are also paired
by construction: two campaigns that share a seed, a sweep, the message
length k and the codeword length n draw the same messages and the same
noise on every trial, so their counts compare frame by frame.  Trials
advance in fixed-size chunks and the stopping rule is evaluated only at
chunk boundaries, which keeps the stopping decision deterministic as well.

BER counts message bits only; a frame error is any message-bit error.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import time
from dataclasses import dataclass, asdict, fields, replace
from typing import Callable

import numpy as np

from . import __version__
from .channel import BpskAwgn, channel_from_config, llr, sigma_from_ebn0_db, transmit
from .concat import ConcatConfig, ConcatSystem, check_outer_stream, concat_decode, concat_encode, extended_hamming
from .decode import BpConfig, BpGraph, DecodeOutcome, bp_decode, hard_decision
from .ensemble import SystematicCode, encode, load_code, sample_bgm, sample_fixed_row_weight
from .rng import make_rng

__all__ = [
    "StopRule",
    "SimConfig",
    "SweepPointResult",
    "build_code",
    "run_campaign",
    "run_fixed_work",
    "write_csv",
    "config_from_dict",
    "config_digest",
]

CSV_COLUMNS = (
    "param",
    "frames",
    "bit_errors",
    "frame_errors",
    "ber",
    "fer",
    "avg_iters",
    "elapsed_s",
    "seed",
)


@dataclass(frozen=True)
class StopRule:
    min_frame_errors: int = 100
    max_frames: int = 10_000_000

    def __post_init__(self):
        if self.min_frame_errors < 1 or self.max_frames < 1:
            raise ValueError("stop rule fields must be positive")


# The keys a config block may hold.  A type marks a required key; any other
# value is an optional key's default, whose type the key must have.
_CODE_KEYS = {  # one row per construction
    "uncoded": {"k": int},
    "bgm": {"k": int, "m": int, "rho": float, "seed": 0},
    "fixed-row-weight": {"k": int, "m": int, "w": int, "seed": 0},
    "graph-file": {"path": str},
    "concat": {
        "outer_r": int, "blocks": int, "inner": dict, "interleaver_seed": 0,
        "rounds": ConcatConfig.rounds, "first_round_bp_iters": ConcatConfig.first_round_bp_iters,
    },
}
_TYPE_NAMES = {
    int: "an integer", float: "a number", bool: "a boolean", str: "a string",
    dict: "a JSON object", list: "a list of parameter values",
}


def _checked(block, keys: dict, name: str) -> dict:
    """The values of `block`, an object holding only the keys of `keys` and
    every required one, with the defaults of the optional keys it omits.

    An integer key takes a JSON integer only, never a float or a boolean,
    so no value is truncated on its way to the run; a float key takes any
    number.  `block` itself is left as it is, so the config digest is too.
    """
    if type(block) is not dict:
        raise ValueError(f"{name} must be a JSON object")
    unknown = sorted(block.keys() - keys.keys())
    if unknown:
        raise ValueError(f"unknown {name} key: {unknown[0]}")
    values = {}
    for key, rule in keys.items():
        required = isinstance(rule, type)
        if required and key not in block:
            raise ValueError(f"{name} missing key: {key}")
        kind = rule if required else type(rule)
        value = values[key] = block.get(key, rule)
        if type(value) is not kind and not (kind is float and type(value) is int):
            raise ValueError(f"{name} key {key} must be {_TYPE_NAMES[kind]}")
    return values


def _checked_code(spec: dict) -> dict:
    """A code block's values, checked against its construction's row (and
    a concat block's inner block, which must name a plain code, against its own)."""
    kind = spec.get("construction") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _CODE_KEYS:
        raise ValueError(f"unknown code construction {kind!r}")
    values = _checked(spec, {"construction": str, **_CODE_KEYS[kind]}, f"{kind} code")
    if kind == "concat":
        inner = values["inner"].get("construction")
        if inner not in ("bgm", "fixed-row-weight", "graph-file"):
            raise ValueError(f"concat inner code must be bgm, fixed-row-weight or graph-file, got {inner!r}")
        _checked_code(values["inner"])
    return values


def _field_keys(cls) -> dict:
    return {f.name: f.default for f in fields(cls)}


@dataclass(frozen=True)
class SimConfig:
    code: dict
    channel: dict
    sweep: tuple
    sweep_unit: str = "param"  # "param" or "ebn0_db" (AWGN only)
    stop: StopRule = StopRule()
    decoder: BpConfig = BpConfig()
    seed: int = 0
    workers: int = 0
    chunk: int = 256

    def __post_init__(self):
        code = _checked_code(self.code)
        kind = code["construction"]
        _checked(self.channel, {"type": str}, "channel")  # the sweep supplies the parameter
        if not self.sweep:
            raise ValueError("sweep must list at least one parameter value")
        if self.sweep_unit not in ("param", "ebn0_db"):
            raise ValueError(f"unknown sweep unit {self.sweep_unit!r}")
        if self.sweep_unit == "ebn0_db" and self.channel["type"] != "awgn":
            raise ValueError("ebn0_db sweeps only make sense for awgn")
        if self.sweep_unit == "ebn0_db" and kind == "uncoded":
            raise ValueError("ebn0_db sweeps need a code to define the rate")
        if kind in ("uncoded", "concat") and self.decoder != BpConfig():
            raise ValueError(f"decoder holds a plain code's receiver settings; a {kind} system takes none")
        if kind == "uncoded" and code["k"] < 1:
            raise ValueError("uncoded k must be >= 1")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")


# SimConfig's fields, in order, with its defaults; the required fields take
# their JSON types, and stop and decoder are JSON objects in a config
_CONFIG_KEYS = {**_field_keys(SimConfig), "code": dict, "channel": dict, "sweep": list, "stop": {}, "decoder": {}}


@dataclass
class SweepPointResult:
    """Counts for one sweep value, over k message bits per frame; a chunk of
    trials counts into one too, and merges into its point's."""

    param: float
    seed: int
    k: int
    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    iters: int = 0
    elapsed_s: float = 0.0

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.frames * self.k) if self.frames else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0

    @property
    def avg_iters(self) -> float:
        return self.iters / self.frames if self.frames else 0.0

    def merge(self, chunk: "SweepPointResult") -> None:
        self.frames += chunk.frames
        self.bit_errors += chunk.bit_errors
        self.frame_errors += chunk.frame_errors
        self.iters += chunk.iters

    def done(self, stop: StopRule) -> bool:
        return self.frame_errors >= stop.min_frame_errors or self.frames >= stop.max_frames


def config_from_dict(raw: dict) -> SimConfig:
    """Validate a JSON-shaped dict into a SimConfig with clear errors."""
    values = _checked(raw, _CONFIG_KEYS, "config")
    if not all(type(x) in (int, float) for x in values["sweep"]):
        raise ValueError(f"config key sweep must be {_TYPE_NAMES[list]}")
    return SimConfig(**{
        **values,
        "sweep": tuple(float(x) for x in values["sweep"]),
        "stop": StopRule(**_checked(values["stop"], _field_keys(StopRule), "stop")),
        "decoder": BpConfig(**_checked(values["decoder"], _field_keys(BpConfig), "decoder")),
    })


def config_digest(cfg: SimConfig) -> str:
    payload = {
        "code": cfg.code,
        "channel": cfg.channel,
        "sweep": list(cfg.sweep),
        "sweep_unit": cfg.sweep_unit,
        "stop": asdict(cfg.stop),
        # retired keys, kept at the only values they ever took, so that the
        # digests of earlier campaigns still match
        "decoder": {"damping": 0.0, "llr_clamp": 30.0, **asdict(cfg.decoder)},
        "seed": cfg.seed,
        "chunk": cfg.chunk,
    }
    blob = json.dumps(payload, sort_keys=True).encode("utf8")
    return hashlib.sha256(blob).hexdigest()[:16]


def build_code(spec: dict) -> SystematicCode | ConcatSystem | None:
    """Materialize the code named by a config's code block.

    Returns None for the uncoded construction (bits straight through the
    channel with hard decisions), and a ConcatSystem for the concat
    construction, whose "inner" block names a plain systematic code.
    """
    c = _checked_code(spec)
    kind = c["construction"]
    if kind == "bgm":
        return sample_bgm(c["k"], c["m"], c["rho"], c["seed"])
    if kind == "fixed-row-weight":
        return sample_fixed_row_weight(c["k"], c["m"], c["w"], c["seed"])
    if kind == "graph-file":
        return load_code(c["path"])
    if kind == "concat":
        inner = build_code(c["inner"])
        if c["outer_r"] >= 2:  # before extended_hamming builds 2^outer_r columns (below 2 it refuses r)
            check_outer_stream(c["blocks"], 2 ** c["outer_r"], inner.k)
        return ConcatSystem(extended_hamming(c["outer_r"]), c["blocks"], inner, interleaver_seed=c["interleaver_seed"])
    return None


@dataclass(frozen=True)
class _System:
    """One trial's ends: message length, Eb/N0 rate (None if uncoded), codec."""

    k: int
    rate: float | None
    encode: Callable[[np.ndarray], np.ndarray]
    decode: Callable[[np.ndarray], DecodeOutcome]  # LLRs -> outcome, deciding the k message bits


def _build_system(cfg: SimConfig) -> _System:
    # encode, bp_decode, ... are looked up at call time, so wrappers set on
    # this module (tracing, tests) see every call
    spec = _checked_code(cfg.code)
    code = build_code(cfg.code)
    if code is None:
        return _System(spec["k"], None, lambda u: u, lambda llrs: DecodeOutcome(hard_decision(llrs), True, 0))
    if isinstance(code, ConcatSystem):
        rx = ConcatConfig(rounds=spec["rounds"], first_round_bp_iters=spec["first_round_bp_iters"])
        shape = (code.blocks, code.outer.k)

        def decode_concat(llrs):
            out = concat_decode(code, llrs, rx)
            return replace(out, hard_decision=code.message_bits(out.hard_decision))

        return _System(
            shape[0] * shape[1], float(code.total_rate),
            lambda u: concat_encode(code, u.reshape(shape)), decode_concat,
        )
    graph = BpGraph(code)
    return _System(code.k, float(code.rate), lambda u: encode(code, u), lambda llrs: bp_decode(graph, llrs, cfg.decoder))


# the running campaign's cfg and system, set before its pool forks: workers inherit them
_CAMPAIGN: dict = {}


def _run_chunk(chunk: tuple) -> SweepPointResult:
    cfg, system = _CAMPAIGN["cfg"], _CAMPAIGN["system"]
    sweep_idx, ch, t_start, t_stop = chunk
    counts = SweepPointResult(float(cfg.sweep[sweep_idx]), cfg.seed, system.k)
    for trial in range(t_start, t_stop):
        rng = make_rng(cfg.seed, sweep_idx, trial)
        u = rng.integers(0, 2, size=system.k, dtype=np.uint8)
        received = transmit(ch, system.encode(u), rng)
        out = system.decode(llr(ch, received))
        errs = int(np.count_nonzero(out.hard_decision != u))
        counts.frames += 1
        counts.bit_errors += errs
        counts.frame_errors += int(errs > 0)
        counts.iters += out.iterations_used
    return counts


def run_campaign(cfg: SimConfig) -> list[SweepPointResult]:
    """Run every sweep point under the stopping rule; see module docstring."""
    system = _build_system(cfg)
    # every point's channel, before the first frame: a bad sweep value is refused before any point runs
    channels = [
        BpskAwgn(sigma_from_ebn0_db(value, system.rate)) if cfg.sweep_unit == "ebn0_db"
        else channel_from_config({**cfg.channel, "param": value})
        for value in cfg.sweep
    ]
    _CAMPAIGN.update(cfg=cfg, system=system)
    stop = cfg.stop
    results = []
    pool = multiprocessing.get_context("fork").Pool(cfg.workers) if cfg.workers > 1 else None
    try:
        for sweep_idx, (value, ch) in enumerate(zip(cfg.sweep, channels)):
            t0 = time.perf_counter()
            point = SweepPointResult(float(value), cfg.seed, system.k)
            while not point.done(stop):
                batch_end = min(point.frames + max(cfg.workers, 1) * cfg.chunk, stop.max_frames)
                chunks = [
                    (sweep_idx, ch, t, min(t + cfg.chunk, batch_end))
                    for t in range(point.frames, batch_end, cfg.chunk)
                ]
                # merge in submission order, honoring the stop rule at chunk
                # boundaries so parallel equals serial; the serial map is lazy
                for chunk in (map if pool is None else pool.map)(_run_chunk, chunks):
                    if point.done(stop):
                        break
                    point.merge(chunk)
            point.elapsed_s = time.perf_counter() - t0
            results.append(point)
    finally:
        if pool is not None:
            pool.close()
            pool.join()
        _CAMPAIGN.clear()
    return results


def run_fixed_work(specs, sigma: float, frames: int, seed: int, workers: int = 0) -> list[SweepPointResult]:
    """One AWGN point per code spec, all over the same `frames` trials, so systems of equal k and n are paired."""
    stop = StopRule(min_frame_errors=frames + 1, max_frames=frames)
    cfgs = (SimConfig(spec, {"type": "awgn"}, (sigma,), stop=stop, seed=seed, workers=workers) for spec in specs)
    return [run_campaign(cfg)[0] for cfg in cfgs]


def write_csv(results, cfg: SimConfig, path) -> None:
    """Campaign CSV: one comment header line, column names, one row per point.

    elapsed_s is always written as 0.000, so that same-seed reruns are
    byte-identical; wall time goes to the run log.
    """
    digest = config_digest(cfg)
    with open(path, "w") as fh:
        fh.write(f"# bgmlab-simulate v{__version__} config_sha256={digest} seed={cfg.seed}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in results:
            fh.write(
                f"{r.param:.10g},{r.frames},{r.bit_errors},{r.frame_errors},"
                f"{r.ber:.10g},{r.fer:.10g},{r.avg_iters:.6f},0.000,{r.seed}\n"
            )
