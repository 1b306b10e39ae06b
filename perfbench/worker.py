"""Solve one workload repeatedly in this process and print the measurements.

run.py starts one worker process per run, so the peak resident memory the
worker reports belongs to that workload alone. Each solve is one
``magflow.cli.main([...])`` call after import, with its stdout JSON checked
against the acceptance bounds in ``workloads.check_output``.

Every solve of a run uses the same input, the config run.py wrote for seed
N, so a run measures one fixed input however fast the code under test is;
the seeds of several runs cover the amplitude range. Untraced mode keeps solving until
``--seconds`` have passed, finishing the solve in flight. Traced mode solves
once to warm up, then traced, untraced and traced, then alternates untraced
and traced solves while time remains. The exact counts of all traced solves
must agree.

Usage: python3 perfbench/worker.py --workload W --config CFG --out DIR --seed N
       --seconds S --trace 0|1
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402
from magflow.cli import main  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import REQUIRED_LAYERS, check_output  # noqa: E402


def solve(args) -> tuple[float, list[str]]:
    """Run the CLI once on the run's input; returns wall seconds and the failed checks."""
    argv = [args.workload, "--config", args.config, "--out", args.out, "--seed", str(args.seed)]
    buf = io.StringIO()
    gc.collect()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = main(argv)
    except Exception as exc:  # a crashed solve counts as failed; the run goes on
        traceback.print_exc()
        return time.perf_counter() - t0, [f"raised {type(exc).__name__}: {exc}"]
    dt = time.perf_counter() - t0
    try:
        out = json.loads(buf.getvalue())
    except ValueError:
        return dt, [f"exit code {rc} without JSON output"]
    return dt, check_output(args.workload, rc, out)


def untraced(args) -> dict:
    times, failures = [], []
    start = time.perf_counter()
    while not times or time.perf_counter() - start < args.seconds:
        dt, bad = solve(args)
        times.append(dt)
        failures.append(bad)
    return {"solve_s": times, "failures": failures}


def traced(args) -> dict:
    plain, timed, tracers, failures = [], [], [], []

    def run(trace: bool) -> None:
        if trace:
            tracer = Tracer()
            with tracer:
                dt, bad = solve(args)
            timed.append(dt)
            tracers.append(tracer)
        else:
            dt, bad = solve(args)
            plain.append(dt)
        failures.append(bad)

    start = time.perf_counter()
    # warm-up: checked like every solve, but its first-call costs stay out of
    # the overhead comparison
    failures.append(solve(args)[1])
    for trace in (True, False, True):
        run(trace)
    while time.perf_counter() - start + plain[-1] + timed[-1] <= args.seconds:
        run(False)
        run(True)

    problems = [e for t in tracers for e in t.errors]
    first = tracers[0].exact_counts()
    for k, t in enumerate(tracers[1:], start=2):
        diff = sorted(n for n, v in t.exact_counts().items() if first.get(n) != v)
        if diff:
            problems.append(f"traced solve {k} counts differ from solve 1: {diff}")
    for layer in REQUIRED_LAYERS[args.workload]:
        if first[f"{layer}.calls"] == 0:
            problems.append(f"{layer} was never called; its binding was not traced")

    per_solve = [t.metrics() for t in tracers]
    layers = {n: statistics.median(m[n] for m in per_solve) for n in per_solve[0]}
    layers.update(first)
    layers["trace.overhead_s"] = statistics.median(timed) - statistics.median(plain)
    return {
        "solve_s": plain,
        "traced_solve_s": timed,
        "failures": failures,
        "problems": problems,
        "layers": layers,
    }


def main_worker() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    Path(args.out).mkdir(parents=True, exist_ok=True)
    result = traced(args) if args.trace else untraced(args)
    result["attempted"] = len(result["failures"])
    # one line per failed solve, naming the checks it missed
    result["failures"] = [
        f"solve {k + 1}: {', '.join(bad)}" for k, bad in enumerate(result["failures"]) if bad
    ]
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main_worker())
