"""Fixed-work benchmark for bgmlab.

    python3 perfbench/run.py --workload floor-w8 --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py                      # every workload, each in its own process

One run builds the workload's inputs, times seven fresh set-ups in child
processes, then runs whole rounds of fixed work until --seconds have passed,
checks every output against computations made apart from bgmlab, and prints
its metrics.  The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 each round runs once untraced and
once traced, and the metrics are the per-layer ones read from the spans.

bgmlab is imported from src/ of the checkout this file sits in.  Exit codes:
0 success, 1 a correctness check failed, 2 the program could not be run.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
SETUP_REPS = 7  # setup_s is their median; one spawn varies by about 10%
READY = "setup-ready"
ALL = "all"


def import_bgmlab() -> str | None:
    """Import bgmlab from this checkout's src/; returns why it cannot be, or None."""
    src = ROOT / "src"
    if not (src / "bgmlab" / "__init__.py").is_file():
        return f"no bgmlab sources under {src}"
    sys.path.insert(0, str(src))
    import bgmlab

    if Path(bgmlab.__file__).resolve().parent != src / "bgmlab":
        return f"imported bgmlab from {bgmlab.__file__}, not from {src}"
    return None


def parse_args(argv):
    import workloads

    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default=ALL, choices=(ALL, *workloads.NAMES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def child_setup_seconds(args) -> float:
    """Wall time from spawning a fresh interpreter to the end of its set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        ready = None
        for line in proc.stdout:
            if line.strip() == READY:
                ready = time.perf_counter() - t0
                break
        proc.stdout.read()
        code = proc.wait()
    if ready is None or code != 0:
        raise RuntimeError(f"set-up child exited with code {code}")
    return ready


def run_rounds(wl, seconds, run_one):
    """Whole rounds until `seconds` have passed; returns (records, seconds, failed ops)."""
    records, times, failed = [], [], 0
    start = time.perf_counter()
    index = 0
    while True:
        rec, elapsed = run_one(index)
        if rec is None:
            failed += wl.ops_per_round
        else:
            records.append(rec)
            times.append(elapsed)
        index += 1
        if time.perf_counter() - start >= seconds:
            return records, times, failed, index


def timed(wl, index):
    t0 = time.perf_counter()
    try:
        rec = wl.run_round(index)
    except Exception:  # a raising round counts as failed operations, and the run goes on
        traceback.print_exc()
        return None, 0.0
    return rec, time.perf_counter() - t0


def check(wl, records):
    failed, errors = 0, []
    for rec in records:
        f, e = wl.check_round(rec)
        failed += f
        errors += e
    errors += wl.check_samples(records)
    return failed, errors


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((ROOT / "src").rglob("*.py")))


def run_workload(args) -> int:
    import workloads

    wl = workloads.make(args.workload)
    wl.setup(args.seed)
    if args.setup_only:
        print(READY, flush=True)
        return 0
    setups = [child_setup_seconds(args) for _ in range(SETUP_REPS)]
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    if args.trace:
        import spans

        tracer = spans.Tracer()
        plain_s, traced_s = [], []

        def paired(index):
            # alternate which copy goes first so warm-up falls on both alike
            order = (False, True) if index % 2 == 0 else (True, False)
            rec = None
            for traced in order:
                if traced:
                    tracer.install()
                try:
                    r, elapsed = timed(wl, index)
                finally:
                    tracer.uninstall()
                if r is None:
                    return None, 0.0
                (traced_s if traced else plain_s).append(elapsed)
                rec = r if traced else rec
            return rec, 0.0

        # a round and its traced copy repeat the same operations, counted once
        records, _, failed, n_rounds = run_rounds(wl, args.seconds, paired)
        attempted = n_rounds * wl.ops_per_round
        traced_ops = len(traced_s) * wl.ops_per_round
        report = spans.layer_report(tracer.spans, traced_ops, tracer.missing)
        report.append(("trace.overhead_ratio", sum(traced_s) / sum(plain_s) if plain_s else 0.0, "ratio", "ok"))
        report.append(("src.lines", float(src_lines()), "lines", "ok"))
        tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl")
        metrics = {name: {"value": value, "unit": unit} for name, value, unit, _ in report}
        lines = [f"{name:34s} {value:14.6g} {unit:10s} {'' if st == 'ok' else st}"
                 for name, value, unit, st in report]
        lines.append(f"{'spans':34s} {len(tracer.spans):14d}")
    else:
        records, times, failed, n_rounds = run_rounds(wl, args.seconds, lambda i: timed(wl, i))
        attempted = n_rounds * wl.ops_per_round
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        # total work over total time: the machine's speed drifts in phases that
        # span several rounds, which a mean over the run averages better than a median
        ops_per_s = len(times) * wl.ops_per_round / sum(times) if times else 0.0
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "ops/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
        lines = [f"{name:24s} {m['value']:14.6g} {m['unit']}" for name, m in metrics.items()]
        lines.append(f"{'setup_s (each)':24s} " + "  ".join(f"{s:.3f}" for s in setups))
        if records:
            lines += [f"{name:24s} {value:14.6g} {unit}" for name, value, unit in wl.summary(records, times)]

    check_failed, errors = check(wl, records)
    failed += check_failed
    correct = not errors
    print(f"# {args.workload}: seed {args.seed}, {n_rounds} rounds of {wl.ops_per_round} {wl.op_name},"
          f" trace {args.trace}")
    for line in lines:
        print(line)
    print(f"{'attempted':24s} {attempted:14d} ops")
    print(f"{'failed':24s} {failed:14d} ops")
    for e in errors:
        print(f"CHECK FAILED: {e}")
    print(f"checks: {'all passed' if correct else f'{len(errors)} failed'}")
    result = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    (OUT / f"result-{tag}.json").write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own fresh process; one summary object at the end."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for name in workloads.NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        out = proc.stdout.rstrip("\n").split("\n")
        print("\n".join(out[:-1]), flush=True)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(out[-1])
        except json.JSONDecodeError:
            print(f"# {name}: no result (exit code {proc.returncode})")
            combined["correct"] = False
            continue
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, m in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = m
    print(json.dumps(combined), flush=True)
    return worst


def main(argv=None) -> int:
    problem = import_bgmlab()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    args = parse_args(argv)
    if args.workload == ALL:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
