"""Span tracing around bgmlab's layer boundaries, and the per-layer metrics.

The tracer replaces module attributes that callers look up at call time
(`bgmlab.sim.bp_decode`, `bgmlab.concat.bcjr_decode`, ...) with wrappers
that record one span per call: name, start, end, parent span, operation
id and an optional note taken from the arguments or the result.  Spans
stay in memory until the run ends.  A wrapped name that no longer exists
is recorded as missing; the metrics that need it are reported as missing.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import defaultdict

import numpy as np

from workloads import DesignWorkload


def _bp_note(args, kwargs, out):
    graph = args[0]
    edges = getattr(graph, "n_edges", None)
    if edges is None:  # a bare code: edges are the ones of G
        edges = int(np.sum(graph.row_weights)) - graph.k
    return [int(out.iterations_used), bool(out.converged), int(edges)]


def _r_star_note(args, kwargs, out):
    return float(args[2] if len(args) > 2 else kwargs["r_star"])


# (module, attribute, span name, note, starts a new operation)
TARGETS = (
    ("sim", "run_campaign", "sim.run_campaign", None, False),
    ("sim", "build_code", "ensemble.build_code", None, False),
    ("sim", "BpGraph", "decode.BpGraph", None, False),
    ("sim", "make_rng", "rng.make_rng", None, True),  # one trial stream per frame
    ("sim", "encode", "ensemble.encode", None, False),
    ("sim", "transmit", "channel.transmit", None, False),
    ("sim", "llr", "channel.llr", None, False),
    ("sim", "bp_decode", "decode.bp_decode", _bp_note, False),
    ("ensemble", "encode", "ensemble.encode", None, True),  # the plain arm's first call
    ("decode", "bp_decode", "decode.bp_decode", _bp_note, False),
    ("decode", "BpGraph", "decode.BpGraph", None, False),
    ("decode", "mat_vec_mul", "gf2.mat_vec_mul", None, False),
    ("concat", "concat_encode", "concat.concat_encode", None, False),
    ("concat", "concat_decode", "concat.concat_decode", None, False),
    ("concat", "bp_decode", "concat.bp_decode", _bp_note, False),
    ("concat", "BpGraph", "decode.BpGraph", None, False),
    ("concat", "SyndromeTrellis", "concat.SyndromeTrellis", None, False),
    ("concat", "bcjr_decode", "concat.bcjr_decode", None, False),
    ("graph", "configuration_model", "graph.configuration_model", _r_star_note, True),
    ("graph", "assortativity", "graph.assortativity", None, False),
    ("popdyn", "law_from_ensemble", "popdyn.law_from_ensemble", None, True),
    ("popdyn", "popdyn_run", "popdyn.popdyn_run", lambda a, k, out: len(out), False),
    ("popdyn", "transmit", "popdyn.transmit", None, False),
    ("popdyn", "llr", "popdyn.llr", None, False),
)


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        # each span: [name, start, end, parent index or -1, op id, note]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self.saved: list[tuple] = []
        self.missing: set[str] = set()

    def _wrap(self, name, fn, note, new_op):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if new_op:
                self.op += 1
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, self.op, None])
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if note is not None:
                spans[idx][5] = note(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        for mod_name, attr, name, note, new_op in TARGETS:
            module = importlib.import_module(f"bgmlab.{mod_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.add(name)
                continue
            self.saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(name, fn, note, new_op))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self.saved):
            setattr(module, attr, fn)
        self.saved.clear()

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


class SpanStats:
    """Durations, self times and notes of recorded spans, by name."""

    def __init__(self, spans):
        child_time = defaultdict(float)
        for name, start, end, parent, op, note in spans:
            if parent >= 0:
                child_time[parent] += end - start
        self.dur = defaultdict(list)
        self.self_time = defaultdict(list)
        self.notes = defaultdict(list)
        for i, (name, start, end, parent, op, note) in enumerate(spans):
            self.dur[name].append(end - start)
            self.self_time[name].append(end - start - child_time[i])
            self.notes[name].append(note)

    def count(self, name) -> int:
        return len(self.dur[name])

    def median(self, name, scale) -> float:
        d = self.dur[name]
        return float(np.median(d)) * scale if d else 0.0

    def self_total(self, name) -> float:
        return float(sum(self.self_time[name]))


def tail(values) -> tuple[float, float]:
    """(percentile, value) of the highest percentile with ten samples beyond it.

    Under forty samples that percentile would be no tail, so the median is
    returned as the 50th.
    """
    n = len(values)
    if n < 40:
        return 50.0, float(np.median(values)) if n else 0.0
    pct = float(np.floor(100.0 * (1.0 - 10.0 / n)))
    return pct, float(np.percentile(values, pct))


# per-layer metric: (name, unit, span names it needs)
LAYER_METRICS = (
    ("sim.self_ms_per_frame", "ms", ("sim.run_campaign",)),
    ("rng.make_rng_us", "us", ("rng.make_rng",)),
    ("ensemble.encode_us", "us", ("ensemble.encode",)),
    ("channel.transmit_us", "us", ("channel.transmit",)),
    ("channel.llr_us", "us", ("channel.llr",)),
    ("decode.bp_ms_p50", "ms", ("decode.bp_decode",)),
    ("decode.bp_ms_tail", "ms", ("decode.bp_decode",)),
    ("decode.bp_tail_pct", "%", ("decode.bp_decode",)),
    ("decode.bp_calls", "count", ("decode.bp_decode",)),
    ("decode.iters_per_call", "iterations", ("decode.bp_decode",)),
    ("decode.converged_per_call", "ratio", ("decode.bp_decode",)),
    ("decode.edge_iters_per_s", "edges/s", ("decode.bp_decode",)),
    ("gf2.mat_vec_mul_us", "us", ("gf2.mat_vec_mul",)),
    ("decode.bpgraph_builds_per_frame", "count", ("decode.BpGraph",)),
    ("concat.decode_ms_p50", "ms", ("concat.concat_decode",)),
    ("concat.self_ms_per_frame", "ms", ("concat.concat_decode",)),
    ("concat.bcjr_us", "us", ("concat.bcjr_decode",)),
    ("concat.bcjr_calls_per_frame", "count", ("concat.bcjr_decode",)),
    ("concat.bp_ms_p50", "ms", ("concat.bp_decode",)),
    ("concat.trellis_builds_per_frame", "count", ("concat.SyndromeTrellis",)),
    ("concat.encode_us", "us", ("concat.concat_encode",)),
    *((f"graph.build_s.{tag}", "s", ("graph.configuration_model",)) for _, tag in DesignWorkload.targets),
    ("graph.candidates_per_build", "count", ("graph.assortativity", "graph.configuration_model")),
    ("popdyn.iter_ms", "ms", ("popdyn.popdyn_run",)),
    ("popdyn.channel_ms_per_iter", "ms", ("popdyn.transmit", "popdyn.llr", "popdyn.popdyn_run")),
)


def layer_values(st: SpanStats, frames: int) -> dict[str, float | None]:
    """Per-layer values from the spans; `frames` is the traced operation count.

    A value is None when the spans it needs exist but none of them matches,
    such as a graph build target that no build was made for.
    """
    per_frame = 1.0 / frames if frames else 0.0
    bp = [n for n in st.notes["decode.bp_decode"] if n is not None]
    bp_ms = [d * 1e3 for d in st.dur["decode.bp_decode"]]
    tail_pct, tail_ms = tail(bp_ms)
    bp_self = st.self_total("decode.bp_decode")
    popdyn_iters = sum(st.notes["popdyn.popdyn_run"])
    builds = st.count("graph.configuration_model")
    v = {
        "sim.self_ms_per_frame": st.self_total("sim.run_campaign") * 1e3 * per_frame,
        "rng.make_rng_us": st.median("rng.make_rng", 1e6),
        "ensemble.encode_us": st.median("ensemble.encode", 1e6),
        "channel.transmit_us": st.median("channel.transmit", 1e6),
        "channel.llr_us": st.median("channel.llr", 1e6),
        "decode.bp_ms_p50": st.median("decode.bp_decode", 1e3),
        "decode.bp_ms_tail": tail_ms,
        "decode.bp_tail_pct": tail_pct,
        "decode.bp_calls": float(len(bp_ms)),
        "decode.iters_per_call": float(np.mean([n[0] for n in bp])) if bp else 0.0,
        "decode.converged_per_call": float(np.mean([n[1] for n in bp])) if bp else 0.0,
        "decode.edge_iters_per_s": sum(n[0] * n[2] for n in bp) / bp_self if bp_self > 0 else 0.0,
        "gf2.mat_vec_mul_us": st.median("gf2.mat_vec_mul", 1e6),
        "decode.bpgraph_builds_per_frame": st.count("decode.BpGraph") * per_frame,
        "concat.decode_ms_p50": st.median("concat.concat_decode", 1e3),
        "concat.self_ms_per_frame": st.self_total("concat.concat_decode") * 1e3 * per_frame,
        "concat.bcjr_us": st.median("concat.bcjr_decode", 1e6),
        "concat.bcjr_calls_per_frame": st.count("concat.bcjr_decode") * per_frame,
        "concat.bp_ms_p50": st.median("concat.bp_decode", 1e3),
        "concat.trellis_builds_per_frame": st.count("concat.SyndromeTrellis") * per_frame,
        "concat.encode_us": st.median("concat.concat_encode", 1e6),
        "graph.candidates_per_build": st.count("graph.assortativity") / builds if builds else 0.0,
        "popdyn.iter_ms": sum(st.dur["popdyn.popdyn_run"]) * 1e3 / popdyn_iters if popdyn_iters else 0.0,
        "popdyn.channel_ms_per_iter": (
            (sum(st.dur["popdyn.transmit"]) + sum(st.dur["popdyn.llr"])) * 1e3 / popdyn_iters
            if popdyn_iters else 0.0
        ),
    }
    for r_star, tag in DesignWorkload.targets:
        times = [d for d, n in zip(st.dur["graph.configuration_model"], st.notes["graph.configuration_model"])
                 if n is not None and abs(n - r_star) < 1e-9]
        v[f"graph.build_s.{tag}"] = float(np.median(times)) if times else None
    return v


def layer_report(spans, frames: int, missing: set[str]) -> list[tuple[str, float, str, str]]:
    """(name, value, unit, status) per layer metric.

    status is "ok", "n/a" when the workload makes no such call or no call
    matches the metric (value 0), or "missing" when a wrapped name is gone
    from bgmlab (value 0).
    """
    st = SpanStats(spans)
    values = layer_values(st, frames)
    out = []
    for name, unit, needs in LAYER_METRICS:
        absent = [n for n in needs if st.count(n) == 0]
        if any(n in missing for n in absent):
            status = "missing"
        elif absent or values[name] is None:
            status = "n/a"
        else:
            status = "ok"
        out.append((name, values[name] if status == "ok" else 0.0, unit, status))
    return out
