"""One fresh benchmark process: import olmfsi from the checkout, set up one
workload, and in ``measure`` mode solve it repeatedly until a given time.
Prints one JSON object as its last line of standard output.

run.py starts this script; it is not meant to be run by hand.
"""

import contextlib
import json
import os
import platform
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import olmfsi  # noqa: E402  (must come from this checkout's src/)

if not Path(olmfsi.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"olmfsi imported from {olmfsi.__file__}, not from {ROOT / 'src'}")

import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS")}


def solve_once(workload, inputs, out_dir, traced):
    """One timed solve and its check; a raised error counts as a failure."""
    os.makedirs(out_dir)
    rep = {"traced": traced, "problems": []}
    try:
        with tracing.traced() if traced else contextlib.nullcontext() as tracer:
            t0 = time.perf_counter()
            result = workload.run(inputs, out_dir)
            rep["wall_s"] = time.perf_counter() - t0
        if traced:
            rep["layers"] = tracer.layer_metrics(rep["wall_s"])
        rep["problems"] = workload.check(result, out_dir)
    except Exception as exc:  # the run goes on; the failure is counted
        traceback.print_exc()
        rep["problems"] = [f"{type(exc).__name__}: {exc}"]
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    return rep


def measure(workload, inputs, until, trace, out_root):
    """Closed loop: each solve starts on fresh inputs after the last ends.

    Stops before a solve that would end after ``until`` (time.monotonic()),
    but only after one solve (with tracing: one untraced and one traced).
    """
    reps = []
    longest = 0.0
    t_rep = time.monotonic()
    while True:
        traced = trace and len(reps) % 2 == 1
        reps.append(solve_once(workload, inputs, os.path.join(out_root, f"rep{len(reps)}"),
                               traced))
        now = time.monotonic()
        longest = max(longest, now - t_rep)
        if len(reps) >= (2 if trace else 1) and now + longest > until:
            return reps
        t_rep = now
        inputs = workload.prepare()


def main(argv):
    name, mode, until, trace, out_root = argv
    workload = WORKLOADS[name]()
    inputs = workload.prepare()
    ready = time.monotonic()
    out = {"ready": ready}
    if mode == "measure":
        out["reps"] = measure(workload, inputs, float(until), trace == "1", out_root)
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        out["machine"] = machine()
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
