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
from dataclasses import dataclass, asdict, fields
from typing import Callable

import numpy as np

from . import __version__
from .channel import BpskAwgn, channel_from_config, llr, sigma_from_ebn0_db, transmit
from .concat import ConcatConfig, ConcatSystem, concat_decode, concat_encode, extended_hamming
from .decode import BpConfig, BpGraph, bp_decode, hard_decision
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


def _check_code_types(spec: dict) -> None:
    """Integer code keys must be JSON integers (not floats, not booleans) and
    rho a number, so that no value is truncated on its way to the run."""
    kind = spec.get("construction")
    for key in ("k", "m", "w", "seed", "outer_r", "blocks", "interleaver_seed", "rounds", "first_round_bp_iters"):
        if key in spec and type(spec[key]) is not int:
            raise ValueError(f"{kind} code key {key} must be an integer")
    if "rho" in spec and type(spec["rho"]) not in (int, float):
        raise ValueError(f"{kind} code key rho must be a number")
    if isinstance(spec.get("inner"), dict):
        _check_code_types(spec["inner"])


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
        if not self.sweep:
            raise ValueError("sweep must list at least one parameter value")
        if self.sweep_unit not in ("param", "ebn0_db"):
            raise ValueError(f"unknown sweep unit {self.sweep_unit!r}")
        if self.sweep_unit == "ebn0_db" and self.channel.get("type") != "awgn":
            raise ValueError("ebn0_db sweeps only make sense for awgn")
        _check_code_types(self.code)
        kind = self.code.get("construction")
        if self.sweep_unit == "ebn0_db" and kind == "uncoded":
            raise ValueError("ebn0_db sweeps need a code to define the rate")
        if kind in ("uncoded", "concat") and self.decoder != BpConfig():
            raise ValueError(f"decoder holds a plain code's receiver settings; a {kind} system takes none")
        if kind == "uncoded" and "k" not in self.code:
            raise ValueError("uncoded code spec missing key: k")
        if kind == "uncoded" and self.code["k"] < 1:
            raise ValueError("uncoded k must be >= 1")
        if self.chunk < 1:
            raise ValueError("chunk must be positive")
        if self.workers < 0:
            raise ValueError("workers must be non-negative")


@dataclass
class SweepPointResult:
    """Counts for one sweep value, over k message bits per frame."""

    param: float
    frames: int
    bit_errors: int
    frame_errors: int
    avg_iters: float
    elapsed_s: float
    seed: int
    k: int

    @property
    def ber(self) -> float:
        return self.bit_errors / (self.frames * self.k) if self.frames else 0.0

    @property
    def fer(self) -> float:
        return self.frame_errors / self.frames if self.frames else 0.0


@dataclass
class _PointAccumulator:
    frames: int = 0
    bit_errors: int = 0
    frame_errors: int = 0
    iters: int = 0

    def merge(self, other: "_PointAccumulator") -> None:
        self.frames += other.frames
        self.bit_errors += other.bit_errors
        self.frame_errors += other.frame_errors
        self.iters += other.iters

    def done(self, stop: StopRule) -> bool:
        return self.frame_errors >= stop.min_frame_errors or self.frames >= stop.max_frames


def _block(raw: dict, key: str, cls=None) -> dict:
    """raw[key], which must be an object; given a dataclass, its keys must
    name that class's fields and its values have their defaults' types."""
    block = raw.get(key, {})
    if not isinstance(block, dict):
        raise ValueError(f"{key} must be a JSON object")
    if cls is None:
        return dict(block)
    defaults = {f.name: f.default for f in fields(cls)}
    for name, value in sorted(block.items()):
        if name not in defaults:
            raise ValueError(f"unknown {key} key: {name}")
        if type(value) is not type(defaults[name]):
            raise ValueError(f"{key} key {name} must be of type {type(defaults[name]).__name__}")
    return dict(block)


def config_from_dict(raw: dict) -> SimConfig:
    """Validate a JSON-shaped dict into a SimConfig with clear errors."""
    if not isinstance(raw, dict):
        raise ValueError("config must be a JSON object")
    missing = [key for key in ("code", "channel", "sweep") if key not in raw]
    if missing:
        raise ValueError(f"config missing required key: {missing[0]}")
    sweep = raw["sweep"]
    if not isinstance(sweep, (list, tuple)) or not all(type(x) in (int, float) for x in sweep):
        raise ValueError("sweep must be a list of parameter values")
    ints = {key: raw.get(key, default) for key, default in (("seed", 0), ("workers", 0), ("chunk", 256))}
    for key, value in ints.items():
        if type(value) is not int:
            raise ValueError(f"{key} must be an integer")
    return SimConfig(
        code=_block(raw, "code"),
        channel=_block(raw, "channel"),
        sweep=tuple(float(x) for x in sweep),
        sweep_unit=raw.get("sweep_unit", "param"),
        stop=StopRule(**_block(raw, "stop", StopRule)),
        decoder=BpConfig(**_block(raw, "decoder", BpConfig)),
        **ints,
    )


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
    construction, whose "inner" block is itself a systematic code spec.
    """
    kind = spec.get("construction")
    try:
        if kind == "uncoded":
            return None
        if kind == "bgm":
            return sample_bgm(int(spec["k"]), int(spec["m"]), float(spec["rho"]), int(spec.get("seed", 0)))
        if kind == "fixed-row-weight":
            return sample_fixed_row_weight(int(spec["k"]), int(spec["m"]), int(spec["w"]), int(spec.get("seed", 0)))
        if kind == "graph-file":
            code = load_code(spec["path"])
            if not isinstance(code, SystematicCode):
                raise ValueError("graph-file construction needs a systematic code matrix")
            return code
        if kind == "concat":
            inner = build_code(spec["inner"])
            if not isinstance(inner, SystematicCode):
                raise ValueError("concat construction needs a systematic inner code")
            outer = extended_hamming(int(spec["outer_r"]))
            return ConcatSystem(outer, int(spec["blocks"]), inner, interleaver_seed=int(spec.get("interleaver_seed", 0)))
    except KeyError as exc:
        raise ValueError(f"{kind} code spec missing key: {exc.args[0]}") from None
    raise ValueError(f"unknown code construction {kind!r}")


@dataclass(frozen=True)
class _System:
    """One trial's ends: message length, Eb/N0 rate (None if uncoded), codec."""

    k: int
    rate: float | None
    encode: Callable[[np.ndarray], np.ndarray]
    decode: Callable[[np.ndarray], tuple[np.ndarray, int]]  # LLRs -> (message, iterations)


def _build_system(cfg: SimConfig) -> _System:
    # encode, bp_decode, ... are looked up at call time, so wrappers set on
    # this module (tracing, tests) see every call
    code = build_code(cfg.code)
    if code is None:
        return _System(int(cfg.code["k"]), None, lambda u: u, lambda llrs: (hard_decision(llrs), 0))
    if isinstance(code, ConcatSystem):
        # the receiver settings a code block may set; ConcatConfig supplies the rest
        rx = ConcatConfig(**{key: int(cfg.code[key]) for key in ("rounds", "first_round_bp_iters") if key in cfg.code})
        shape = (code.blocks, code.outer.k)

        def decode_concat(llrs):
            out = concat_decode(code, llrs, rx)
            return code.message_bits(out.hard_decision), out.iterations_used

        return _System(
            shape[0] * shape[1], float(code.total_rate),
            lambda u: concat_encode(code, u.reshape(shape)), decode_concat,
        )
    graph = BpGraph(code)

    def decode_plain(llrs):
        out = bp_decode(graph, llrs, cfg.decoder)
        return out.hard_decision, out.iterations_used

    return _System(code.k, float(code.rate), lambda u: encode(code, u), decode_plain)


def _point_channel(cfg: SimConfig, value: float, rate: float | None):
    if cfg.sweep_unit == "ebn0_db":
        return BpskAwgn(sigma_from_ebn0_db(value, rate))
    return channel_from_config({**cfg.channel, "param": value})


def _run_chunk(
    cfg: SimConfig,
    system: _System,
    sweep_idx: int,
    value: float,
    t_start: int,
    t_stop: int,
) -> _PointAccumulator:
    ch = _point_channel(cfg, value, system.rate)
    acc = _PointAccumulator()
    for trial in range(t_start, t_stop):
        rng = make_rng(cfg.seed, sweep_idx, trial)
        u = rng.integers(0, 2, size=system.k, dtype=np.uint8)
        received = transmit(ch, system.encode(u), rng)
        u_hat, iters = system.decode(llr(ch, received))
        errs = int(np.count_nonzero(u_hat != u))
        acc.frames += 1
        acc.bit_errors += errs
        acc.frame_errors += int(errs > 0)
        acc.iters += iters
    return acc


_WORKER_STATE: dict = {}


def _worker_init(cfg: SimConfig):
    _WORKER_STATE.update(cfg=cfg, system=_build_system(cfg))


def _worker_chunk(chunk):
    return _run_chunk(_WORKER_STATE["cfg"], _WORKER_STATE["system"], *chunk)


def run_campaign(cfg: SimConfig) -> list[SweepPointResult]:
    """Run every sweep point under the stopping rule; see module docstring."""
    system = _build_system(cfg)
    stop = cfg.stop
    results = []
    pool = None
    if cfg.workers > 1:
        pool = multiprocessing.get_context("fork").Pool(cfg.workers, initializer=_worker_init, initargs=(cfg,))
    try:
        for sweep_idx, value in enumerate(cfg.sweep):
            t0 = time.perf_counter()
            acc = _PointAccumulator()
            while not acc.done(stop):
                batch_end = min(acc.frames + max(cfg.workers, 1) * cfg.chunk, stop.max_frames)
                chunks = [
                    (sweep_idx, value, t, min(t + cfg.chunk, batch_end))
                    for t in range(acc.frames, batch_end, cfg.chunk)
                ]
                if pool is not None:
                    chunk_accs = pool.map(_worker_chunk, chunks)
                else:
                    chunk_accs = (_run_chunk(cfg, system, *c) for c in chunks)
                # merge in submission order, honoring the stop rule at
                # chunk boundaries so parallel equals serial
                for chunk_acc in chunk_accs:
                    if acc.done(stop):
                        break
                    acc.merge(chunk_acc)
            results.append(
                SweepPointResult(
                    param=float(value),
                    frames=acc.frames,
                    bit_errors=acc.bit_errors,
                    frame_errors=acc.frame_errors,
                    avg_iters=acc.iters / acc.frames if acc.frames else 0.0,
                    elapsed_s=time.perf_counter() - t0,
                    seed=cfg.seed,
                    k=system.k,
                )
            )
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    return results


def run_fixed_work(specs, sigma: float, frames: int, seed: int, workers: int = 0) -> list[SweepPointResult]:
    """One AWGN point per code spec, all over the same `frames` trials, so systems of equal k and n are paired."""
    stop = StopRule(min_frame_errors=frames + 1, max_frames=frames)
    cfgs = (SimConfig(spec, {"type": "awgn"}, (sigma,), stop=stop, seed=seed, workers=workers) for spec in specs)
    return [run_campaign(cfg)[0] for cfg in cfgs]


def write_csv(results, cfg: SimConfig, path, timing: bool = False) -> None:
    """Campaign CSV: one comment header line, column names, one row per point.

    elapsed_s is written as 0.000 unless timing is requested, so that
    same-seed reruns are byte-identical; wall time goes to the run log.
    """
    digest = config_digest(cfg)
    with open(path, "w") as fh:
        fh.write(f"# bgmlab-simulate v{__version__} config_sha256={digest} seed={cfg.seed}\n")
        fh.write(",".join(CSV_COLUMNS) + "\n")
        for r in results:
            elapsed = f"{r.elapsed_s:.3f}" if timing else "0.000"
            fh.write(
                f"{r.param:.10g},{r.frames},{r.bit_errors},{r.frame_errors},"
                f"{r.ber:.10g},{r.fer:.10g},{r.avg_iters:.6f},{elapsed},{r.seed}\n"
            )
