"""permlang benchmark: seeded enum, check and codec workloads.

Run from the repository root:

    python3 perfbench/run.py --workload enum --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 1

Each workload runs closed-loop, one request at a time in this process,
against the package under ``src/``.  A pass is one sweep over the seed's
inputs; passes repeat as often as ``--seconds`` holds.  Every
answer is checked against the oracles outside the timed region.  Times
are reference seconds (see speed.py).  ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates untraced and traced passes
and reports the per-layer metrics.  The last line of standard output is
one JSON object; see perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

from speed import SpeedLog  # noqa: E402
from tracer import TapeCounter, Tracer, patched  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("permutations", "codec", "tape", "stackmachine", "counting", "cli")
SETUP_REPEATS = 5
# Rounds of passes a run makes at least, however long they take.
MIN_ROUNDS = 2
# A run stops early, after MIN_ROUNDS, once it has taken this many times
# ``--seconds``, so that a much slower machine cannot stretch it far.
OVERRUN = 1.5
# Probing around each set-up, so that its reference time has neighbours.
SETUP_PROBE_S = 0.05


class Package:
    """The package modules, freshly imported from ``src/``."""

    def __init__(self) -> None:
        for name in [m for m in sys.modules if m == "permlang" or m.startswith("permlang.")]:
            del sys.modules[name]
        top = importlib.import_module("permlang")
        if Path(top.__file__).resolve().parent != SRC / "permlang":
            raise ImportError(f"permlang imported from {top.__file__}, not from {SRC}")
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"permlang.{name}"))


def set_up(workload_cls, seed: int):
    """Import the package and draw the inputs, several times; the median
    reference time is ``setup_s`` and the last set is the one measured."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    speed = SpeedLog()
    times = []
    for _ in range(SETUP_REPEATS):
        speed.probe(SETUP_PROBE_S)
        start = perf_counter()
        pkg = Package()
        workload = workload_cls(pkg, random.Random(seed))
        end = perf_counter()
        speed.probe(SETUP_PROBE_S)
        times.append(speed.reference(start, end))
    return pkg, workload, statistics.median(times)


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile): p90, or the highest nearest-rank percentile
    with at least ten samples beyond it, but never below the median."""
    ordered = sorted(samples)
    n = len(ordered)
    index = min(math.ceil(0.9 * n) - 1, n - 11)
    if index < (n - 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[index], 100.0 * (index + 1) / n


def trace_hooks(pkg, tracer: Tracer):
    """Spans at the package attributes the callers look up."""
    letters = lambda args, result: len(result)  # noqa: E731
    letters_in = lambda args, result: len(args[0])  # noqa: E731
    hooks = [
        (pkg.tape, "accepts_basis", "tape.accepts_basis", None),
        (pkg.counting, "count_avoiders", "counting.count_avoiders", None),
        (pkg.counting, "avoids_basis", "permutations.avoids_basis", None),
        (pkg.codec, "encode", "codec.encode", letters),
        (pkg.codec, "decode", "codec.decode", None),
        (pkg.codec, "validate", "codec.validate", None),
        (pkg.stackmachine, "accepts_codewords", "stackmachine.accepts_codewords", letters_in),
        (pkg.cli, "main", "cli.main", None),
    ]
    replacements = [
        (owner, attr, tracer.span(name, getattr(owner, attr), count))
        for owner, attr, name, count in hooks
    ]
    for attr, name in (
        ("codewords_with_insertions", "codec.codewords_with_insertions"),
        ("all_permutations", "permutations.all_permutations"),
    ):
        replacements.append(
            (pkg.counting, attr, tracer.span_each_item(name, getattr(pkg.counting, attr)))
        )
    return replacements


class Pass:
    """Outcome of one sweep over the inputs.

    The probes run right after each request, before its answer is
    checked, so that each request has probes on both sides.  In untraced
    passes the tape counter also ticks the probes inside a request, whose
    time is taken out of the request's; traced passes do not, because the
    probes would land inside the spans.
    """

    def __init__(self, workload, pkg, counter: TapeCounter, tracer: Tracer | None) -> None:
        self.traced = tracer is not None
        self.work = 0
        self.attempted = 0
        self.failed = 0
        speed = SpeedLog()
        spans = []
        counter.reset()
        counter.tick = None if self.traced else speed.tick
        gc.collect()
        speed.probe()
        with patched(trace_hooks(pkg, tracer) if tracer else []):
            for item in workload.items:
                units = workload.units(item)
                violations = counter.violations
                inside = speed.inside
                start = perf_counter()
                try:
                    output = workload.call(item)
                except Exception:  # a failed request is counted, the run goes on
                    end = perf_counter()
                    speed.after(end - start)
                    traceback.print_exc(file=sys.stderr)
                    failed = units
                else:
                    end = perf_counter()
                    speed.after(end - start)
                    failed = workload.check(item, output)
                    if counter.violations > violations:
                        failed = units
                spans.append((start, end, speed.inside - inside))
                self.attempted += units
                self.failed += failed
                self.work += workload.work(item)
        counter.tick = None
        self.wall = [end - start - inside for start, end, inside in spans]
        self.latencies = [speed.reference(*span) for span in spans]
        self.tape = (counter.calls, counter.accepted, counter.steps, counter.max_cells)


def run_passes(workload, pkg, seconds: float, traced: bool):
    """As many rounds of passes as ``seconds`` holds at the workload's
    nominal pass time, and at least ``MIN_ROUNDS``; a traced round is an
    untraced and a traced pass.

    The count depends on ``seconds`` only, not on how fast this run goes:
    a request's median over fewer, noisier repeats reads higher, so a
    count that fell on a busy machine would bias the times.  Every pass
    must repeat the first one's tape counters; a pass that does not counts
    as one more failure.
    """
    counter = TapeCounter()
    tracer = Tracer() if traced else None
    schedule = [None, tracer] if traced else [None]
    rounds = max(MIN_ROUNDS, round(seconds / (workload.pass_seconds * len(schedule))))
    passes: list[Pass] = []
    begin = perf_counter()
    with patched([(pkg.tape, "accepts_basis", counter.wrap(pkg.tape.accepts_basis))]):
        for done in range(rounds):
            if done >= MIN_ROUNDS and perf_counter() - begin > OVERRUN * seconds:
                break
            for t in schedule:
                passes.append(Pass(workload, pkg, counter, t))
    mismatched = sum(p.tape != passes[0].tape for p in passes)
    return passes, tracer, mismatched


def request_times(passes, times=lambda p: p.latencies) -> list[float]:
    """Each request's median time over the passes."""
    return [statistics.median(repeats) for repeats in zip(*map(times, passes))]


def throughput(passes, times=lambda p: p.latencies) -> float:
    return passes[0].work / sum(request_times(passes, times))


def end_to_end(workload, passes, setup_s: float) -> dict:
    latencies = workload.request_latencies(request_times(passes))
    p90, _ = tail(latencies)
    return {
        "throughput_per_s": (throughput(passes), "1/s"),
        "req_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "req_p90_ms": (1000 * p90, "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        "setup_s": (setup_s, "s"),
    }


def per_layer(passes, tracer: Tracer, attempted: int, failed: int) -> dict:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    per_pass = 1 / len(traced)
    calls, accepted, steps, max_cells = traced[0].tape
    tape_s = tracer.seconds["tape.accepts_basis"] * per_pass
    request_s = statistics.fmean(sum(p.wall) for p in traced)
    s = lambda name: (tracer.seconds[name] * per_pass, "s")  # noqa: E731
    count = lambda n: (n * per_pass, "count")  # noqa: E731
    stack_s = tracer.seconds["stackmachine.accepts_codewords"]
    stack_letters = tracer.counts["stackmachine.accepts_codewords"]
    return {
        "tape.accepts_basis.calls": (calls, "count"),
        "tape.accepts_basis.s": (tape_s, "s"),
        "tape.accepts_basis.steps": (steps, "count"),
        "tape.accepts_basis.max_cells": (max_cells, "cells"),
        "tape.accepts_basis.accept_ratio": (accepted / calls if calls else 0.0, "ratio"),
        "tape.accepts_basis.share": (tape_s / request_s, "ratio"),
        "tape.steps_per_s": (steps / tape_s if tape_s else 0.0, "1/s"),
        "tape_steps": (steps, "count"),
        "codec.encode.s": s("codec.encode"),
        "codec.encode.letters": count(tracer.counts["codec.encode"]),
        "codec.decode.s": s("codec.decode"),
        "codec.validate.s": s("codec.validate"),
        "stackmachine.accepts_codewords.s": s("stackmachine.accepts_codewords"),
        "stackmachine.accepts_codewords.letters_per_s": (
            stack_letters / stack_s if stack_s else 0.0, "1/s"),
        "codec.codewords_with_insertions.s": s("codec.codewords_with_insertions"),
        "codec.codewords_with_insertions.words": count(
            tracer.counts["codec.codewords_with_insertions"]),
        "permutations.avoids_basis.s": s("permutations.avoids_basis"),
        "permutations.avoids_basis.calls": count(tracer.calls["permutations.avoids_basis"]),
        "permutations.all_permutations.s": s("permutations.all_permutations"),
        "counting.count_avoiders.self_s": (
            tracer.self_seconds("counting.count_avoiders") * per_pass, "s"),
        "cli.main.self_s": (tracer.self_seconds("cli.main") * per_pass, "s"),
        "trace_overhead": (throughput(traced) / throughput(untraced), "ratio"),
        "fail_ratio": (failed / attempted, "ratio"),
    }


def environment(seed: int) -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "permlang").glob("*.py")):
        digest.update(path.read_bytes())
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=30, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def run_one(name: str, seed: int, seconds: float, traced: bool) -> dict:
    pkg, workload, setup_s = set_up(WORKLOADS[name], seed)
    print(f"{name}: {workload.describe()}")
    passes, tracer, mismatched = run_passes(workload, pkg, seconds, traced)
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes) + mismatched
    untraced = [p for p in passes if not p.traced]
    requests = workload.request_latencies(request_times(untraced))
    _, pct = tail(requests)
    calls, accepted, steps, max_cells = passes[0].tape
    print(f"{name}: {len(passes)} passes of {len(workload.items)} calls, "
          f"{len(requests)} distinct requests, tail percentile "
          f"p{pct:g}, tape {steps} steps and {max_cells} cells per pass, "
          f"{accepted}/{calls} tape accepts, {failed}/{attempted} failed, "
          f"{mismatched} passes with changed tape counters")
    print(f"{name}: work per reference second by pass: "
          + " ".join(f"{p.work / sum(p.latencies):.4g}{'t' if p.traced else ''}" for p in passes))
    print(f"{name}: work per wall second by pass: "
          + " ".join(f"{p.work / sum(p.wall):.4g}{'t' if p.traced else ''}" for p in passes)
          + f"; over the untraced passes {throughput(untraced, lambda p: p.wall):.4g}")
    print("env " + json.dumps(environment(seed), sort_keys=True))
    if traced:
        metrics = per_layer(passes, tracer, attempted, failed)
    else:
        metrics = end_to_end(workload, passes, setup_s)
    for key, (value, unit) in metrics.items():
        print(f"{name} {key} {value:.6g} {unit}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def run_all(args) -> dict:
    """Each workload in its own process, so setup and peak memory stay its own."""
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        sys.stderr.write(child.stderr)
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if child.returncode != 0 or not lines:
            raise RuntimeError(f"workload {name} exited with {child.returncode}")
        one = json.loads(lines[-1])
        result["correct"] = result["correct"] and one["correct"]
        result["attempted"] += one["attempted"]
        result["failed"] += one["failed"]
        for key, metric in one["metrics"].items():
            result["metrics"][f"{name}.{key}"] = metric
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        if args.workload == "all":
            result = run_all(args)
        else:
            result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except (ImportError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
