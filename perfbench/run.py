"""Run one benchmark workload of torusbq and print its metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the library is imported from src/ next to this directory.
Every measurement runs in a fresh process (child.py) with OMP, OpenBLAS and
MKL pinned to one thread.

--trace 0 reports the end-to-end metrics: setup_s (median over
SETUP_SAMPLES processes, from process start to the first main call), run_s
(median wall time of the main call), step_ms_p50 and step_ms_p90 (over every
step sample of the run) and peak_rss_mb (ru_maxrss of the measuring process).

--trace 1 makes one main call untraced and one traced, in two processes
that run side by side, and reports the per-layer metrics of
tracer.PER_LAYER; trace.overhead_s is the traced run_s minus the untraced
one.

Each metric is printed on its own line with its unit; the last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  A failing check prints what failed and where on standard error
and sets correct to false.  A broken harness (a renamed function, a layer
that records no calls) exits with status 1 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

from tracer import PER_LAYER, percentile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Processes whose set-up time is measured; setup_s is their median.
SETUP_SAMPLES = 3

#: Every process this run starts must have ended within this many seconds.
BUDGET_S = 170.0


class BenchmarkError(RuntimeError):
    pass


def start(args, mode: str, calls: int = 0) -> subprocess.Popen:
    """Start child.py in `mode`; --t0 is taken just before the process starts."""
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--mode", mode, "--calls", str(calls),
        "--t0", str(time.monotonic_ns()),
    ]
    return subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True
    )


def collect(procs, deadline: float) -> list:
    """JSON results of the started processes; every one has ended on return."""
    results = []
    try:
        for proc in procs:
            try:
                out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchmarkError(f"a process ran past the {BUDGET_S:g} s budget") from None
            if proc.returncode != 0:
                sys.stderr.write(err)
                raise BenchmarkError(f"a process exited with status {proc.returncode}")
            results.append(json.loads(out.strip().splitlines()[-1]))
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return results


def spawn(args, mode: str, deadline: float) -> dict:
    return collect([start(args, mode)], deadline)[0]


def end_to_end(args, deadline):
    setups = [spawn(args, "setup", deadline)["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = spawn(args, "run", deadline)
    setups.append(main["setup_s"])
    steps = main["step_ms"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (statistics.median(main["run_s"]), "s"),
        "step_ms_p50": (statistics.median(steps), "ms"),
        "step_ms_p90": (percentile(steps, 90), "ms"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} processes",
        "run_s": f"median of {len(main['run_s'])} main calls",
        "step_ms_p50": f"{len(steps)} step samples",
        "step_ms_p90": f"{len(steps)} step samples",
    }
    return [main], metrics, notes


def per_layer(args, deadline):
    # side by side, so both calls see the same load on the machine
    untraced, traced = collect([start(args, "run", 1), start(args, "trace", 1)], deadline)
    values = dict(traced["layers"])
    values["trace.overhead_s"] = traced["run_s"][0] - untraced["run_s"][0]
    metrics = {name: (values[name], unit) for name, unit in PER_LAYER}
    return [untraced, traced], metrics, {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not (ROOT / "src" / "torusbq").is_dir():
        print(f"error: no torusbq sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    deadline = time.monotonic() + BUDGET_S
    measure = per_layer if args.trace else end_to_end
    try:
        results, metrics, notes = measure(args, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in results for p in r["problems"]]
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    print(json.dumps({
        "workload": args.workload,
        "why": WORKLOADS[args.workload].why,
        "seed": args.seed,
        "trace": args.trace,
        "env": dict(results[-1]["versions"], nproc=len(os.sched_getaffinity(0)), **THREAD_PINS),
    }))
    for name, (value, unit) in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:45s} {value:>14.6g} {unit}{note}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
