"""Benchmark of magflow's solvers through the public entry point.

Usage, from the repository root:

    python3 perfbench/run.py --workload waist|minimax|critical-values
        [--seed N] [--seconds S] [--trace 0|1]

Each run writes the workload's config, times ``setup_s`` (a fresh
interpreter importing ``magflow.cli``, parsing the config and building
``RunConfig.system()``; one warm-up, then the median of SETUP_PROBES) and
then starts one worker process that solves the workload (see worker.py).
Workload choice and the seed rule are explained in workloads.py.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
BENCHMARK.json: ``solve_s`` (median wall time of one ``main([...])`` call),
``setup_s`` and ``peak_rss_mb`` (the worker's peak resident memory). No tail
percentile is given: a p90 with ten solves beyond it needs 100 solves, and a
run makes about 2 (minimax) to 20 (waist). The failure ratio is printed and
is ``failed`` / ``attempted`` in the last line: a solve fails on a non-zero
exit code or on any missed acceptance bound, and a run with any failure is
not ``correct``. With ``--trace 1`` the last line carries the per-layer
metrics of a traced run, including the tracing overhead (traced minus
untraced ``solve_s``).

BLAS is capped at one thread (at most ``nproc``): the solvers call it on
small arrays only, and one thread keeps timings steady on a shared machine.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS, amplitude_for, config_text

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1
SETUP_PROBES = 5
WORKER_TIMEOUT_S = 160.0
PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); "
    "from magflow.cli import parse_config; parse_config(sys.argv[2]).system()"
)


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def _env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def setup_seconds(config: Path, env: dict[str, str]) -> list[float]:
    """Wall times of fresh set-up processes; the first only warms caches."""
    times = []
    for _ in range(1 + SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", PROBE, str(ROOT / "src"), str(config)],
            env=env,
            check=True,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
    return times[1:]


def main() -> int:
    ap = argparse.ArgumentParser(description="magflow solver benchmark")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=_seed, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "magflow" / "cli.py").is_file():
        print(f"error: no magflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    amplitude = amplitude_for(args.workload, args.seed)
    env = _env()
    # inside the checkout, as the benchmark writes nowhere else; .gitignore lists it
    work = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        config = work / "run.cfg"
        config.write_text(config_text(args.workload, amplitude))
        setup = [] if args.trace else setup_seconds(config, env)
        proc = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).with_name("worker.py")),
                "--workload", args.workload,
                "--config", str(config),
                "--out", str(work / "out"),
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ],
            env=env,
            stdout=subprocess.PIPE,
            text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        print(f"error: worker exited with code {proc.returncode}", file=sys.stderr)
        return 1
    res = json.loads(proc.stdout.strip().splitlines()[-1])

    metrics = dict(res.get("layers", {}))
    metrics["peak_rss_mb"] = res["peak_rss_mb"]
    metrics["solve_s"] = statistics.median(res["solve_s"])
    if setup:
        metrics["setup_s"] = statistics.median(setup)
    problems = res["failures"] + res.get("problems", [])
    failed = len(res["failures"])
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_amplitude": amplitude,
        "trace": args.trace,
        "seconds": args.seconds,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        **res["versions"],
        "untraced_solves": len(res["solve_s"]),
    }
    if args.trace:
        info["traced_solve_s"] = statistics.median(res["traced_solve_s"])
    print(json.dumps(info))
    for line in problems:
        print(f"FAILED {line}")
    for m in wanted:
        print(f"{m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    attempted = res["attempted"]
    print(f"fail_ratio = {failed / attempted:.6g} ratio ({failed} of {attempted} solves)")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
