"""One workload in one process: set up, make the main calls, print JSON.

The runner (run.py) starts this script once per measurement, so set-up time
and peak memory belong to the workload alone:

    python3 perfbench/child.py --workload NAME --seed N --mode MODE
        [--seconds S] [--calls K] --t0 NS

MODE is "setup" (set up, then stop), "run" (main calls without tracing) or
"trace" (main calls with every layer wrapped).  --t0 is the CLOCK_MONOTONIC
time in nanoseconds at which the runner started this process; set-up time is
measured from it.  With --calls 0 the main call repeats until --seconds have
passed and at least MIN_STEP_SAMPLES step samples exist.  The last line of
standard output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

#: A percentile with ten samples beyond it needs 100 samples for p90.
MIN_STEP_SAMPLES = 100

#: No new main call starts if it would likely end after this many seconds.
MAX_LOOP_S = 120.0


class HarnessError(RuntimeError):
    """The benchmark itself no longer measures what it claims to."""


def import_library():
    """Import torusbq from this checkout's src/, never from elsewhere."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import torusbq

    where = Path(torusbq.__file__).resolve().parent
    if where != src / "torusbq":
        raise HarnessError(f"imported torusbq from {where}, not from {src}")


def measure(workload, seconds: float, calls: int) -> dict:
    run_s, step_ms, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        result = workload.call()
        run_s.append(result.seconds)
        step_ms.extend(result.step_ms)
        attempted += result.attempted
        failed += result.failed
        problems.extend(result.problems)
        elapsed = time.perf_counter() - start
        if calls:
            if len(run_s) >= calls:
                break
        elif elapsed >= seconds and len(step_ms) >= MIN_STEP_SAMPLES:
            break
        if elapsed + statistics.median(run_s) > MAX_LOOP_S:
            break
    problems.extend(workload.finish())
    return {
        "run_s": run_s,
        "step_ms": step_ms,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
    }


def self_check(workload, tracer):
    """Every function the workload names ran, and exact counts agree."""
    calls = tracer.calls()
    silent = [name for name in workload.traced if not calls.get(name)]
    if silent:
        raise HarnessError(f"{workload.name}: no calls recorded for {', '.join(silent)}")
    if not tracer.fft[0]:
        raise HarnessError(f"{workload.name}: no Fourier transforms counted in solver.step")
    for name, want in workload.exact_calls().items():
        if calls.get(name, 0) != want:
            raise HarnessError(
                f"{workload.name}: {name} recorded {calls.get(name, 0)} calls, "
                f"the workload made {want}"
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--calls", type=int, default=0)
    parser.add_argument("--t0", type=int, required=True)
    args = parser.parse_args(argv)

    import_library()
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    tracer = None
    if args.mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    out_dir = OUT / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        workload.setup(args.seed, out_dir)
        result = {"setup_s": (time.monotonic_ns() - args.t0) / 1e9}
        if args.mode != "setup":
            result.update(measure(workload, args.seconds, args.calls))
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    if tracer is not None:
        self_check(workload, tracer)
        result["layers"] = tracer.metrics()
        tracer.save(OUT / f"spans-{args.workload}-seed{args.seed}.npz")

    import numpy
    import scipy

    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["versions"] = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
