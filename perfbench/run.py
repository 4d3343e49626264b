"""olmfsi benchmark: time to solution of three studies, and a traced run.

    python3 perfbench/run.py --workload flap-res2 --seed 0 --seconds 42 --trace 0

Run from the root of a checkout.  The workloads and metrics are declared in
BENCHMARK.json; README.md beside this file explains them.  Each run starts
fresh processes that import olmfsi from ``src/`` with BLAS pinned to one
thread: four that only set up (import and build the inputs) and one that
also solves the workload again and again, one solve after the other, until
about ``--seconds`` seconds after the run started, checking every answer.  With ``--trace 1`` the solves
alternate between untraced and traced, and the per-layer metrics replace the
end-to-end ones.  The last line of standard output is one JSON object; the
line before it holds the details (samples, quartiles, machine, failures).
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"
SETUP_ONLY = 4            # fresh processes that only set up, besides the solver
TIME_LIMIT_S = 170.0      # the whole run, all processes included
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def spawn(workload, mode, until, trace, out_dir, deadline):
    """Run one worker process; returns its JSON with ``setup_s`` added.

    ``until`` is a time.monotonic() value, which on Linux is one clock for
    all processes; so is the ``ready`` time the worker reports.
    """
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", **BLAS_ENV)
    cmd = [sys.executable, str(HERE / "worker.py"), workload, mode,
           repr(until), str(trace), str(out_dir)]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - t0, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} process of {workload} ran out of time") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} process of {workload} exited with {proc.returncode}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["setup_s"] = out["ready"] - t0
    return out


def summary(values):
    values = sorted(values)
    q1, _, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                 else values * 3)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values), "samples": values}


def measure(args, start, deadline):
    probes = [spawn(args.workload, "setup", 0.0, 0, OUT / f"setup{k}", deadline)
              for k in range(SETUP_ONLY)]
    run = spawn(args.workload, "measure", start + args.seconds, args.trace,
                OUT / "measure", deadline)
    reps = run["reps"]
    # a solve that finished with a wrong answer is timed and counted as failed
    plain = [r["wall_s"] for r in reps if "wall_s" in r and not r["traced"]]
    if not plain:
        raise BenchError("no untraced solve finished: "
                         + "; ".join(p for r in reps for p in r["problems"]))
    wall = summary(plain)
    setup = summary([p["setup_s"] for p in probes] + [run["setup_s"]])
    values = {"wall_s": wall["median"], "setup_s": setup["median"],
              "peak_rss_mb": run["peak_rss_mb"]}
    failed = sum(1 for r in reps if r["problems"])
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": run["machine"], "wall_s": wall,
              "setup_s": setup, "peak_rss_mb": run["peak_rss_mb"],
              "failed_share": failed / len(reps),
              "failures": [p for r in reps for p in r["problems"]]}
    if args.trace:
        traced = [r for r in reps if "layers" in r]
        if not traced:
            raise BenchError("no traced solve finished")
        values = {name: statistics.median(r["layers"][name] for r in traced)
                  for name in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        values["trace.overhead_s"] = traced_wall - wall["median"]
        values["trace.overhead_share"] = values["trace.overhead_s"] / wall["median"]
        detail["traced_wall_s"] = summary([r["wall_s"] for r in traced])
    return values, detail, len(reps), failed


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "olmfsi" / "__init__.py").is_file():
        print(f"no olmfsi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    start = time.monotonic()
    try:
        values, detail, attempted, failed = measure(args, start, start + TIME_LIMIT_S)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(OUT, ignore_errors=True)

    detail["why"] = next(w["why"] for w in spec["workloads"]
                         if w["name"] == args.workload)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
