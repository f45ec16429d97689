"""Benchmark for hyperkit: one workload, one seed, one line of JSON.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload su2_ladder --seed 1 --seconds 15 --trace 0

Workloads: su2_ladder, group_algebra, cli_batch (see perfbench/README.md).
With ``--trace 0`` the last line of stdout reports the end-to-end
metrics (jobs_per_s, job_p50_ms, peak_rss_mb, setup_s); with
``--trace 1`` a separate traced process reports the per-layer metrics.

Every run happens in fresh single-threaded processes: BLAS is pinned
to one thread through the environment of the processes this script
starts.  Set-up time is measured in ``SETUP_PROBES`` extra processes
that only set up, plus the measuring process, and reported as their
median.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("su2_ladder", "group_algebra", "cli_batch")
SETUP_PROBES = 6
#: every process this script starts must have ended this long after it began
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def start_worker(args, env, deadline, *extra) -> dict:
    """Run one worker process to its end; return the JSON object it printed last."""
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), *extra,
    ]
    t0 = time.monotonic()
    proc = subprocess.run(
        cmd + ["--t0", repr(t0)], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - t0),
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"benchmark worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="hyperkit benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "hyperkit", "__init__.py")):
        print("error: hyperkit sources not found under src/hyperkit", file=sys.stderr)
        return 2

    env = {k: v for k, v in os.environ.items() if k != "HYPERKIT_TOL"}
    env.update(PINNED)
    env["PYTHONHASHSEED"] = "0"
    deadline = time.monotonic() + DEADLINE_S

    if args.trace:
        run = start_worker(args, env, deadline)
        metrics = {
            name: {"value": value, "unit": unit} for name, (value, unit) in run["per_layer"].items()
        }
        print(f"top-level spans cover {run['coverage']:.4f} of traced job wall time "
              f"over {run['rounds']} round(s); "
              f"trace.overhead_s = {run['per_layer']['trace.overhead_s'][0]:.4f}")
    else:
        setups = [start_worker(args, env, deadline, "--setup-only") for _ in range(SETUP_PROBES)]
        run = start_worker(args, env, deadline)
        setup = [probe["setup_s"] for probe in setups] + [run["setup_s"]]
        run["correct"] = run["correct"] and all(probe["correct"] for probe in setups)
        metrics = {
            "jobs_per_s": {"value": run["attempted"] / run["timed_s"], "unit": "jobs/s"},
            "job_p50_ms": {"value": statistics.median(run["job_seconds"]) * 1000.0, "unit": "ms"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
        print(f"{run['attempted']} jobs in {run['rounds']} round(s), "
              f"{run['timed_s']:.3f} s in program calls")
    print(json.dumps({
        "correct": bool(run["correct"]),
        "attempted": int(run["attempted"]),
        "failed": int(run["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
