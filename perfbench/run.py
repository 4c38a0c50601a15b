"""Benchmark of the kappacov pipeline, one closed-loop client per workload.

Run from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: cli_estimate, perm_test, asym_test, power_table (see
perfbench/README.md).  Each op starts only after the previous one has
finished and its output has been checked.  With ``--trace 0`` the run
reports the end-to-end metrics; with ``--trace 1`` it reports the
per-layer metrics from spans around each kappacov module, plus the
tracing overhead.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The program is imported from ``src/`` of the
checkout the script sits in; without it the run exits with status 1.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOAD_NAMES = ("cli_estimate", "perm_test", "asym_test", "power_table")
SETUP_REPEATS = 3
IMPORT_REPEATS = 3
MAX_FAILURES_SHOWN = 5
RSS_SCOPES = {
    "cli_child": "peak resident set of the CLI child processes",
    "op_allocated": "peak memory allocated by one more op, from tracemalloc",
    "both": "peak resident set of this process or its pool workers",
}


def load_program():
    """Import kappacov from this checkout's ``src`` and the workloads;
    return the workloads module and the seconds the imports took."""
    package = SRC / "kappacov" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"perfbench: the program is missing ({package} not found)")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import kappacov
    import workloads

    elapsed = time.perf_counter() - start
    if Path(kappacov.__file__).resolve().parent != package.resolve().parent:
        raise SystemExit(f"perfbench: imported kappacov from {kappacov.__file__}, not from {SRC}")
    return workloads, elapsed


@dataclass
class Loop:
    """Outcome of one closed loop: per-op seconds and the gate's verdicts."""

    durations: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    cpu_s: float = 0.0

    @property
    def attempted(self) -> int:
        return len(self.durations)

    @property
    def p50(self) -> float:
        return statistics.median(self.durations)


def _cpu_seconds() -> float:
    usage = [resource.getrusage(who) for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)]
    return sum(u.ru_utime + u.ru_stime for u in usage)


def run_op(workload, state, index, loop, tracer=None, threads=None, op=None) -> None:
    """Run, time and check one op (``workload.op`` unless ``op`` is given);
    an op that raises counts as failed."""
    op = op or workload.op
    start = time.perf_counter()
    try:
        if tracer is None:
            output = op(state, index, None, threads)
        else:
            with tracer.installed(), tracer.op(index):
                output = op(state, index, tracer, threads)
        elapsed = time.perf_counter() - start
        reason = workload.check(state, index, output)
    except Exception as exc:  # the benchmark keeps running and reports the failure
        elapsed = time.perf_counter() - start
        reason = f"{type(exc).__name__}: {exc}"
    loop.durations.append(elapsed)
    if reason is not None:
        loop.failures.append(f"op {index}: {reason}")


def closed_loop(workload, state, seconds, first_index) -> Loop:
    """Start ops back to back until ``seconds`` have passed (at least one)."""
    loop = Loop()
    cpu = _cpu_seconds()
    deadline = time.perf_counter() + seconds
    index = first_index
    while not loop.durations or time.perf_counter() < deadline:
        run_op(workload, state, index, loop)
        index += 1
    loop.cpu_s = _cpu_seconds() - cpu
    return loop


def tail(durations) -> tuple[float, float, int]:
    """(percentile, value, ops beyond it) for the highest percentile with
    at least 10 ops beyond it, never below the median."""
    import numpy as np

    count = len(durations)
    level = max(50.0, math.floor(100.0 * (count - 10) / count)) if count > 10 else 50.0
    value = float(np.percentile(durations, level))
    return level, value, sum(d > value for d in durations)


def peak_rss_mb(scope: str, state: dict) -> float:
    """Peak resident memory in the workload's ``rss_scope``: recorded by
    the op for ``cli_child`` and ``op_allocated``, else the larger of this
    process and its waited-for children."""
    if scope in ("cli_child", "op_allocated"):
        return state["peak_rss_mb"]
    kib = max(resource.getrusage(who).ru_maxrss for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return kib * 1024 / 1e6


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = done.stdout.split()
    if done.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown (not a git checkout)"
    return lines[1]


def _blas():
    import numpy as np

    config = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = "unknown"
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libdir / "*openblas*"))):
        library = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(library, symbol):
                threads = getattr(library, symbol)()
                break
    return {
        "name": config.get("name"),
        "version": config.get("version"),
        "config": config.get("openblas configuration"),
        "threads": threads,
    }


def run_record(workloads, workload, seed, seconds, trace) -> dict:
    import numpy as np
    import scipy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "commit": _git_commit(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": _blas(),
        "worker_processes": {name: w.workers for name, w in workloads.WORKLOADS.items()},
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _print_failures(loops) -> None:
    failures = [f for loop in loops for f in loop.failures]
    for failure in failures[:MAX_FAILURES_SHOWN]:
        print(f"perfbench: wrong op: {failure}", file=sys.stderr)


def final_failures(workload, state) -> Loop:
    """The workload's check over all ops of the run.  A failure counts as
    one more wrong op, but not as one more op attempted."""
    final = Loop()
    problem = workload.final_check(state)
    if problem is not None:
        final.failures.append(f"run: {problem}")
    return final


def _counts(loops) -> dict:
    return {
        "attempted": sum(loop.attempted for loop in loops),
        "failed": sum(len(loop.failures) for loop in loops),
    }


def untraced_run(workloads, workload, seed, seconds, import_s) -> dict:
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed, OUT)
        setups.append(time.perf_counter() - start)
    warm = Loop()
    run_op(workload, state, workloads.WARM_UP, warm)
    loop = closed_loop(workload, state, seconds, 1)
    loops = [warm, loop]
    if workload.rss_scope == "op_allocated":
        allocated = Loop()
        run_op(workload, state, 1 + loop.attempted, allocated, op=workload.op_with_tracemalloc)
        loops.append(allocated)
    loops.append(final_failures(workload, state))
    level, tail_value, beyond = tail(loop.durations)
    setup_s = import_s + statistics.median(setups)
    metrics = {
        "op_s_p50": _metric(loop.p50, "s"),
        "op_s_tail": _metric(tail_value, "s"),
        "cpu_s_per_op": _metric(loop.cpu_s / loop.attempted, "s"),
        "peak_rss_mb": _metric(peak_rss_mb(workload.rss_scope, state), "MB"),
        "setup_s": _metric(setup_s, "s"),
    }
    counts = _counts(loops)
    notes = {
        "op_s_p50": f"median of {loop.attempted} ops",
        "op_s_tail": f"p{level:g}, {beyond} of {loop.attempted} ops beyond"
        + ("; under 20 ops, so the tail is the median" if loop.attempted < 20 else ""),
        "cpu_s_per_op": f"user+system of this process and its children over {loop.attempted} ops",
        "peak_rss_mb": f"{workload.rss_scope}: " + RSS_SCOPES[workload.rss_scope],
        "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups "
        + ", ".join(f"{s:.3f}" for s in setups),
    }
    for name, metric in metrics.items():
        print(f"{name:<14} {metric['value']:.6g} {metric['unit']:<3} ({notes[name]})")
    print(
        f"{'error_rate':<14} {counts['failed'] / counts['attempted']:.6g} 1   ({counts['failed']} wrong of"
        f" {counts['attempted']} ops, untimed ops and the run check included)"
    )
    _print_failures(loops)
    return {**counts, "metrics": metrics}


def fresh_import_seconds(env) -> float:
    """Median seconds to import ``kappacov.cli`` in a new interpreter."""
    code = "import time; t = time.perf_counter(); import kappacov.cli; print(time.perf_counter() - t)"
    times = []
    for _ in range(IMPORT_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout))
    return statistics.median(times)


def traced_run(workloads, workload, seed, seconds) -> dict:
    from tracer import TRACED, Tracer, dump, summarize

    state = workload.setup(seed, OUT)
    import_s = fresh_import_seconds(workloads.program_env())
    warm = Loop()
    run_op(workload, state, workloads.WARM_UP, warm)
    pooled = workload.workers > 1
    # Spans stay in this process only with one worker, so the traced op
    # and the base for the tracing overhead both run on one worker.  The
    # kinds of op take turns, so drift of the host's speed hits each alike.
    loops = {"untraced": Loop(), "traced": Loop()}
    if pooled:
        loops[f"untraced_{workload.workers}_workers"] = Loop()
    timing, memory = Tracer(), Tracer(memory=True)
    deadline = time.perf_counter() + seconds
    index = 1
    while not loops["traced"].attempted or time.perf_counter() < deadline:
        run_op(workload, state, index, loops["untraced"], threads=1)
        run_op(workload, state, index + 1, loops["traced"], timing, threads=1)
        if pooled:
            run_op(workload, state, index + 2, loops[f"untraced_{workload.workers}_workers"])
        index += 3
    loops["traced_memory"] = Loop()
    run_op(workload, state, index, loops["traced_memory"], memory, threads=1)
    summary = summarize(timing.spans)
    peaks = summarize(memory.spans)["layers"]
    trace_path = OUT / f"trace-{workload.name}-{seed}.json"
    dump(trace_path, timing=timing.spans, memory=memory.spans)
    base = loops["untraced"].p50
    overhead = loops["traced"].p50 - base
    efficiency = base / (workload.workers * loops[f"untraced_{workload.workers}_workers"].p50) if pooled else 0.0

    metrics = {}
    print(f"{'layer':<34} {'calls/op':>10} {'busy_s/op':>11} {'self_s/op':>11} {'busy%':>7} {'self%':>7} {'peak_mb':>9}")
    op_s = statistics.mean(summary["op_s"])
    for name in TRACED:
        layer = summary["layers"].get(name, {"calls": 0.0, "busy_s": 0.0, "self_s": 0.0})
        peak_mb = peaks.get(name, {"peak_mb": 0.0})["peak_mb"]
        print(
            f"{name:<34} {layer['calls']:>10.6g} {layer['busy_s']:>11.6f} {layer['self_s']:>11.6f}"
            f" {100 * layer['busy_s'] / op_s:>7.2f} {100 * layer['self_s'] / op_s:>7.2f} {peak_mb:>9.3f}"
        )
        metrics[f"{name}.calls"] = _metric(layer["calls"], "count")
        metrics[f"{name}.busy_s"] = _metric(layer["busy_s"], "s")
        metrics[f"{name}.self_s"] = _metric(layer["self_s"], "s")
        metrics[f"{name}.peak_mb"] = _metric(peak_mb, "MB")
    metrics["cli.import_s"] = _metric(import_s, "s")
    metrics["inference.pool_efficiency"] = _metric(efficiency, "ratio")
    metrics["trace.overhead_s"] = _metric(overhead, "s")
    for name, loop in loops.items():
        print(f"op_s_p50 {name:<25} {loop.p50:.6g} s over {loop.attempted} ops")
    print(f"cli.import_s              {import_s:.6g} s (median of {IMPORT_REPEATS} fresh interpreters)")
    if pooled:
        print(
            f"inference.pool_efficiency {efficiency:.6g} (1-worker p50 / ({workload.workers} x"
            f" {workload.workers}-worker p50))"
        )
    else:
        print("inference.pool_efficiency 0 (no worker pool in this workload)")
    print(f"trace.overhead_s          {overhead:.6g} s (traced - untraced op_s_p50, {100 * overhead / base:.1f}%)")
    print(f"spans: {len(timing.spans)} timed, {len(memory.spans)} with memory, in {os.path.relpath(trace_path, ROOT)}")
    all_loops = [warm, *loops.values(), final_failures(workload, state)]
    _print_failures(all_loops)
    return {**_counts(all_loops), "metrics": metrics}


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="kappacov closed-loop benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be nonnegative and --seconds positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads, import_s = load_program()
    workload = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    record = run_record(workloads, workload, args.seed, args.seconds, args.trace)
    print("run-record " + json.dumps(record, sort_keys=True))
    (OUT / f"record-{args.workload}-{args.seed}-{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        result = traced_run(workloads, workload, args.seed, args.seconds)
    else:
        result = untraced_run(workloads, workload, args.seed, args.seconds, import_s)
    print(json.dumps({"correct": result["failed"] == 0, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
