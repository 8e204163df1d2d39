"""The three workloads: fixed inputs, one round of fixed work, output checks.

Every call into bgmlab goes through a module attribute looked up at call
time (`sim.run_campaign`, `concat.concat_decode`, ...), so the traced run
can wrap those attributes without this file knowing about tracing.

A workload is built once per process with `setup(seed)`.  `run_round(i)`
then does one round of fixed work, the same amount every time, with
inputs drawn from (seed, 0, i); the checks draw from (seed, 1).  `check_round` tests each operation of a
finished round and returns how many failed; `check_samples` runs the
slower reference checks on a few frames of its own.
"""

from __future__ import annotations

import importlib
import time

import numpy as np

import refchecks as rc


def round_seed(seed: int, index: int) -> int:
    """A 63-bit seed for round `index`, derived from the run's seed."""
    return int(np.random.SeedSequence([seed, 0, index]).generate_state(1, np.uint64)[0] >> 1)


def _mod(name: str):
    return importlib.import_module(f"bgmlab.{name}")


class CampaignWorkload:
    """`run_campaign` over a fixed frame count at one noise level.

    The stop rule asks for more frame errors than there are frames, so
    every round decodes exactly `frames_per_round` frames.
    """

    op_name = "frames"
    frames_per_round = 32
    check_frames = 1  # dense reference decodes, about 3 s each at k = m = 1024

    def __init__(self, name: str, code_spec: dict, sigma: float):
        self.name = name
        self.code_spec = code_spec
        self.sigma = sigma
        self.ops_per_round = self.frames_per_round

    def setup(self, seed: int) -> None:
        sim = _mod("sim")
        self.seed = seed
        self.code = sim.build_code(self.code_spec)
        self.k = self.code.k

    def run_round(self, index: int):
        sim, decode = _mod("sim"), _mod("decode")
        cfg = sim.SimConfig(
            code=self.code_spec,
            channel={"type": "awgn"},
            sweep=(self.sigma,),
            sweep_unit="param",
            stop=sim.StopRule(min_frame_errors=self.frames_per_round + 1, max_frames=self.frames_per_round),
            decoder=decode.BpConfig(max_iterations=50),
            seed=round_seed(self.seed, index),
            workers=0,
            chunk=self.frames_per_round,
        )
        (point,) = sim.run_campaign(cfg)
        return point

    def check_round(self, point) -> tuple[int, list[str]]:
        try:
            rc.check_counts(point.frames, self.frames_per_round, point.bit_errors, point.frame_errors, self.k)
            if not 1.0 <= point.avg_iters <= 50.0:
                raise rc.CheckError(f"average iterations {point.avg_iters} outside [1, 50]")
        except rc.CheckError as exc:
            return self.ops_per_round, [str(exc)]
        return 0, []

    def check_samples(self, points) -> list[str]:
        ensemble, channel, decode = _mod("ensemble"), _mod("channel"), _mod("decode")
        errors = []
        g_dense = rc.dense_generator(self.code.g.row_supports, self.code.m)
        rng = np.random.default_rng([self.seed, 1])
        for _ in range(self.check_frames):
            u = rng.integers(0, 2, size=self.k, dtype=np.uint8)
            try:
                cw = ensemble.encode(self.code, u)
                rc.check_codeword(g_dense, cw)
                if not np.array_equal(cw[: self.k], u):
                    raise rc.CheckError("encode is not systematic")
                y = 1.0 - 2.0 * cw + self.sigma * rng.standard_normal(cw.size)
                llrs = channel.llr(channel.BpskAwgn(self.sigma), y)
                if not np.allclose(llrs, 2.0 * y / self.sigma**2, rtol=1e-12, atol=0.0):
                    raise rc.CheckError("AWGN LLR is not 2 y / sigma^2")
                out = decode.bp_decode(decode.BpGraph(self.code), llrs, decode.BpConfig(max_iterations=50))
                if not 1 <= out.iterations_used <= 50:
                    raise rc.CheckError(f"bp_decode reports {out.iterations_used} iterations")
                rc.check_bp_against_reference(
                    g_dense, llrs, out.hard_decision, out.posterior, out.iterations_used
                )
            except rc.CheckError as exc:
                errors.append(f"sampled frame: {exc}")
        frames = sum(p.frames for p in points)
        bit_errors = sum(p.bit_errors for p in points)
        floor = rc.ml_floor_ber(self.code.g.row_weights(), self.sigma)
        try:
            rc.check_ber_not_below_floor(bit_errors, frames * self.k, floor)
        except rc.CheckError as exc:
            errors.append(f"ML floor: {exc}")
        return errors

    def summary(self, points, seconds) -> list[tuple[str, float, str]]:
        frames = sum(p.frames for p in points)
        bits = frames * self.k
        out = [
            ("frames_per_s", frames / sum(seconds), "frames/s"),
            ("ber", sum(p.bit_errors for p in points) / bits, "ratio"),
            ("fer", sum(p.frame_errors for p in points) / frames, "ratio"),
            ("avg_iters", float(np.mean([p.avg_iters for p in points])), "iterations"),
        ]
        floor = rc.ml_floor_ber(self.code.g.row_weights(), self.sigma)
        out.append(("ml_floor_ber", floor, "ratio"))
        # the floor test can fail only when about 7 or more errors are due
        out.append(("ml_floor_errors_due", floor * bits, "bit errors"))
        return out


class ConcatPairedWorkload:
    """Criterion 10's loop: a plain BGM arm and a concatenated arm on shared noise."""

    name = "concat-paired"
    op_name = "paired frames"
    frames_per_round = 32
    ops_per_round = frames_per_round
    check_frames = 2
    sigma = 0.48

    def setup(self, seed: int) -> None:
        concat, ensemble, decode = _mod("concat"), _mod("ensemble"), _mod("decode")
        self.seed = seed
        outer = concat.extended_hamming(4)
        self.system = concat.ConcatSystem(
            outer, 8, ensemble.sample_bgm(128, 112, 0.15, seed=2), interleaver_seed=1
        )
        self.plain = ensemble.sample_bgm(88, 152, 0.05, seed=0)
        self.cfg = concat.ConcatConfig(rounds=4, first_round_bp_iters=30, later_bp_iters=10)
        self.bp_cfg = decode.BpConfig(max_iterations=50)
        # positions of the 11 message bits inside each 16-bit outer codeword
        gd = outer.generator.to_dense()
        pivot = {}
        for j in range(outer.n):
            if gd[:, j].sum() == 1:
                pivot.setdefault(int(np.flatnonzero(gd[:, j])[0]), j)
        self.info = np.array([pivot[i] for i in range(outer.k)])
        self.h_outer = rc.extended_hamming_checks(4)

    def run_round(self, index: int) -> dict:
        concat, ensemble, decode = _mod("concat"), _mod("ensemble"), _mod("decode")
        rng = np.random.default_rng([self.seed, 0, index])
        n_frames = self.frames_per_round
        rec = {
            "msg_plain": np.empty((n_frames, 88), dtype=np.uint8),
            "msg_concat": np.empty((n_frames, 8, 11), dtype=np.uint8),
            "cw_plain": np.empty((n_frames, 240), dtype=np.uint8),
            "cw_concat": np.empty((n_frames, 240), dtype=np.uint8),
            "plain_errors": np.empty(n_frames, dtype=np.int64),
            "concat_errors": np.empty(n_frames, dtype=np.int64),
        }
        scale = 2.0 / self.sigma**2
        for f in range(n_frames):
            msg_plain = rng.integers(0, 2, size=88, dtype=np.uint8)
            msg_concat = rng.integers(0, 2, size=(8, 11), dtype=np.uint8)
            noise = rng.standard_normal(240)
            cw_plain = ensemble.encode(self.plain, msg_plain)
            cw_concat = concat.concat_encode(self.system, msg_concat)
            y_plain = 1.0 - 2.0 * cw_plain + self.sigma * noise
            y_concat = 1.0 - 2.0 * cw_concat + self.sigma * noise
            out = decode.bp_decode(self.plain, scale * y_plain, self.bp_cfg)
            dec = concat.concat_decode(self.system, scale * y_concat, self.cfg)
            stream = dec.hard_decision[self.system.perm].reshape(8, 16)
            rec["msg_plain"][f] = msg_plain
            rec["msg_concat"][f] = msg_concat
            rec["cw_plain"][f] = cw_plain
            rec["cw_concat"][f] = cw_concat
            rec["plain_errors"][f] = np.count_nonzero(out.hard_decision != msg_plain)
            rec["concat_errors"][f] = np.count_nonzero(stream[:, self.info] != msg_concat)
        return rec

    def check_round(self, rec) -> tuple[int, list[str]]:
        g_plain = rc.dense_generator(self.plain.g.row_supports, self.plain.m)
        g_inner = rc.dense_generator(self.system.inner.g.row_supports, self.system.inner.m)
        failed, errors = 0, []
        for f in range(self.frames_per_round):
            try:
                rc.check_codeword(g_plain, rec["cw_plain"][f])
                if not np.array_equal(rec["cw_plain"][f][:88], rec["msg_plain"][f]):
                    raise rc.CheckError("plain codeword is not systematic")
                rc.check_codeword(g_inner, rec["cw_concat"][f])
                blocks = rec["cw_concat"][f][: self.system.inner.k][self.system.perm].reshape(8, 16)
                rc.check_blocks_satisfy(self.h_outer, blocks)
                if not np.array_equal(blocks[:, self.info], rec["msg_concat"][f]):
                    raise rc.CheckError("outer blocks do not carry their messages")
                if not (0 <= rec["plain_errors"][f] <= 88 and 0 <= rec["concat_errors"][f] <= 88):
                    raise rc.CheckError("error count outside [0, 88]")
            except rc.CheckError as exc:
                failed += 1
                errors.append(f"paired frame {f}: {exc}")
        return failed, errors

    def check_samples(self, recs) -> list[str]:
        concat, ensemble, decode = _mod("concat"), _mod("ensemble"), _mod("decode")
        errors = []
        g_plain = rc.dense_generator(self.plain.g.row_supports, self.plain.m)
        words = rc.code_words(self.h_outer)
        if words.shape[0] != 2048:
            errors.append(f"extended Hamming [16,11] should have 2048 codewords, found {words.shape[0]}")
            return errors
        rng = np.random.default_rng([self.seed, 1])
        scale = 2.0 / self.sigma**2
        for _ in range(self.check_frames):
            msg_plain = rng.integers(0, 2, size=88, dtype=np.uint8)
            msg_concat = rng.integers(0, 2, size=(8, 11), dtype=np.uint8)
            noise = rng.standard_normal(240)
            try:
                llr_plain = scale * (1.0 - 2.0 * ensemble.encode(self.plain, msg_plain) + self.sigma * noise)
                out = decode.bp_decode(self.plain, llr_plain, self.bp_cfg)
                rc.check_bp_against_reference(
                    g_plain, llr_plain, out.hard_decision, out.posterior, out.iterations_used
                )
                llr_concat = scale * (1.0 - 2.0 * concat.concat_encode(self.system, msg_concat) + self.sigma * noise)
                _, trace = concat.concat_decode(self.system, llr_concat, self.cfg, return_trace=True)
                if len(trace) != self.cfg.rounds:
                    raise rc.CheckError(f"trace has {len(trace)} rounds, expected {self.cfg.rounds}")
                for entry in trace:
                    rc.check_bcjr_round(words, entry["bcjr_prior"], entry["bcjr_posterior"])
            except rc.CheckError as exc:
                errors.append(f"sampled paired frame: {exc}")
        return errors

    def summary(self, recs, seconds) -> list[tuple[str, float, str]]:
        frames = self.frames_per_round * len(recs)
        return [
            ("paired_frames_per_s", frames / sum(seconds), "frames/s"),
            ("plain_ber", sum(int(r["plain_errors"].sum()) for r in recs) / (88 * frames), "ratio"),
            ("concat_ber", sum(int(r["concat_errors"].sum()) for r in recs) / (88 * frames), "ratio"),
        ]


class DesignWorkload:
    """Criterion 6's graph builds, then BEC population dynamics.

    The graph builds use a fixed build seed (criterion 6's seed 0), so every
    run does the same graph work; the run's seed drives population dynamics.
    r* = -0.3 is left out: its 21-32 s build alone made each run a single
    sample three times as long as the other workloads' runs, and too noisy
    for the bound on ops_per_s.
    """

    name = "design-bgm"
    op_name = "graph builds + popdyn runs"
    targets = ((-0.1, "neg01"), (0.2, "pos02"))
    ops_per_round = len(targets) + 1
    build_seed = 0
    epsilon = 0.02
    bec_eps = 0.40
    population = 100_000
    iterations = 10

    def setup(self, seed: int) -> None:
        for layer in ("graph", "popdyn", "channel"):
            _mod(layer)
        self.seed = seed
        supports = _mod("ensemble").sample_bgm(1024, 1024, 0.01, seed=5).g.row_supports
        self.d1 = np.array([s.size for s in supports], dtype=np.int64)
        self.d2 = np.bincount(np.concatenate(supports), minlength=1024)
        self.expected = None

    def run_round(self, index: int) -> dict:
        graph, popdyn, channel = _mod("graph"), _mod("popdyn"), _mod("channel")
        builds = []
        for r_star, tag in self.targets:
            d2 = self.d1 if r_star > 0 else self.d2
            t0 = time.perf_counter()
            built = graph.configuration_model(
                self.d1, d2, r_star, epsilon=self.epsilon, seed=self.build_seed
            )
            elapsed = time.perf_counter() - t0
            g = built.graph
            builds.append((r_star, tag, g.n_var, g.n_chk, g.edges, d2, elapsed))
        t0 = time.perf_counter()
        law = popdyn.law_from_ensemble(1024, 1024, 0.01)
        records = popdyn.popdyn_run(
            channel.Bec(self.bec_eps), law, population=self.population,
            iterations=self.iterations, seed=round_seed(self.seed, index),
        )
        popdyn_s = time.perf_counter() - t0
        return {"builds": builds, "edge_error": [r.edge_error_rate for r in records], "popdyn_s": popdyn_s}

    def check_round(self, rec) -> tuple[int, list[str]]:
        failed, errors = 0, []
        for r_star, tag, n_var, n_chk, edges, d2, _ in rec["builds"]:
            try:
                rc.check_graph(self.d1, d2, n_var, n_chk, edges, r_star, self.epsilon)
            except rc.CheckError as exc:
                failed += 1
                errors.append(f"graph r*={r_star:+.1f}: {exc}")
        try:
            if len(rec["edge_error"]) != self.iterations:
                raise rc.CheckError(f"{len(rec['edge_error'])} popdyn records, expected {self.iterations}")
            if self.expected is None:
                self.expected = rc.bec_edge_erasure_trajectory(
                    self.bec_eps, 1024, 0.01, self.iterations, self.population
                )
            rc.check_popdyn_trajectory(rec["edge_error"], self.expected, self.population)
        except rc.CheckError as exc:
            failed += 1
            errors.append(f"popdyn: {exc}")
        return failed, errors

    def check_samples(self, recs) -> list[str]:
        return []

    def summary(self, recs, seconds) -> list[tuple[str, float, str]]:
        out = [("graph_build_s", float(np.median([sum(b[-1] for b in r["builds"]) for r in recs])), "s")]
        for i, (r_star, tag) in enumerate(self.targets):
            out.append((f"graph_build_s.{tag}", float(np.median([r["builds"][i][-1] for r in recs])), "s"))
            last = recs[-1]["builds"][i]
            out.append((f"graph_r.{tag}", rc.pearson_assortativity(last[2], last[3], last[4]), "r"))
        out.append(
            ("popdyn_iters_per_s", float(np.median([self.iterations / r["popdyn_s"] for r in recs])), "iterations/s")
        )
        out.append(("popdyn_final_edge_erasure", recs[-1]["edge_error"][-1], "ratio"))
        return out


def make(name: str):
    if name == "floor-w8":
        return CampaignWorkload(
            "floor-w8",
            {"construction": "fixed-row-weight", "k": 1024, "m": 1024, "w": 8, "seed": 1},
            0.68,
        )
    if name == "concat-paired":
        return ConcatPairedWorkload()
    if name == "design-bgm":
        return DesignWorkload()
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("floor-w8", "concat-paired", "design-bgm")
