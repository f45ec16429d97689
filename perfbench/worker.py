"""One benchmark process: set up, run whole rounds of one workload, report.

Started by ``run.py`` with BLAS already pinned to one thread in its
environment.  Set-up is everything from process start to the first
timed job: importing hyperkit (numpy included), building the builtin
registry, and a warm-up that runs one small pass of every workload, so
that first-call costs land in set-up and every layer appears in every
traced run.  The timed part then runs whole rounds of the workload's
jobs, so every run attempts the same
jobs in the same proportions; a round starts only if it is expected
to end within ``--seconds``.  Only the program's calls are timed;
output checks run between them.

Prints one JSON object as its last line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("su2_ladder", "group_algebra", "cli_batch")


class Runner:
    """Runs jobs, times their program calls and tallies their outcomes."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.next_id = 0
        self.walls: dict[int, float] = {}   # job id -> time in program calls
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.reported: set[str] = set()

    def run(self, jobs, count: bool = True) -> float:
        """Run the jobs in order; return the summed time of their program calls."""
        total = 0.0
        for job in jobs:
            job_id = self.next_id
            self.next_id += 1
            if self.tracer is not None:
                self.tracer.job, self.tracer.kind = job_id, job.kind
            start = time.perf_counter()
            try:
                result = job.run()
                error = None
            except Exception as exc:  # a program fault fails the job, not the run
                error = exc
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.job = self.tracer.kind = None
            wrong = False
            if error is None:
                try:
                    job.check(result)
                except Exception as exc:  # a Mismatch, or output that cannot be read
                    error, wrong = exc, True
            total += elapsed
            if not count:
                if error is not None and job.known_fault is None:
                    self._report(job, error, "warm-up")
                    self.correct = False
                continue
            self.attempted += 1
            self.walls[job_id] = elapsed
            if error is not None:
                self.failed += 1
                if job.known_fault is None:
                    self.correct = self.correct and not wrong
                    self._report(job, error, "wrong output" if wrong else "failed")
                else:
                    self._report(job, error, f"known fault: {job.known_fault}")
        return total

    def _report(self, job, error, what: str) -> None:
        if job.name not in self.reported:
            self.reported.add(job.name)
            print(f"{job.name}: {what}: {type(error).__name__}: {error}"[:400], file=sys.stderr)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--t0", type=float, help="monotonic clock reading when the process was started")
    args = parser.parse_args(argv)
    t0 = args.t0 if args.t0 is not None else time.monotonic()
    seed = args.seed % (1 << 63)  # numpy seeds are non-negative

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import hyperkit

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    hyperkit.builtin_groups()
    hyperkit.builtin_fusion_rings()
    hyperkit.builtin_hypergroups()
    hyperkit.builtin_groupoids()

    import cli_batch
    import group_algebra
    import su2_ladder

    modules = {"su2_ladder": su2_ladder, "group_algebra": group_algebra, "cli_batch": cli_batch}
    workload = modules[args.workload]
    runner = Runner(tracer)
    try:
        for module in (su2_ladder, group_algebra, cli_batch):
            runner.run(module.warmup_jobs(seed), count=False)
        setup_s = time.monotonic() - t0
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "correct": runner.correct}))
            return 0

        rounds = 0
        timed = untraced = 0.0
        replay = Runner()
        if tracer is not None:
            tracer.uninstall()
        start = time.monotonic()
        # a round starts only if it is expected to end within --seconds
        while rounds == 0 or (time.monotonic() - start) * (rounds + 1) / rounds <= args.seconds:
            if tracer is not None:
                # the same round without spans before the traced one, so both
                # traced and untraced passes find the round's inputs warm, and
                # again after it, for the untraced time
                replay.run(workload.round_jobs(seed, rounds))
                tracer.install()
            timed += runner.run(workload.round_jobs(seed, rounds))
            if tracer is not None:
                tracer.uninstall()
                untraced += replay.run(workload.round_jobs(seed, rounds))
            rounds += 1
        result = {
            "setup_s": setup_s,
            "correct": runner.correct and replay.correct,
            "attempted": runner.attempted,
            "failed": runner.failed,
            "rounds": rounds,
            "timed_s": timed,
            "job_seconds": list(runner.walls.values()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if tracer is not None:
            result["per_layer"] = tracer.metrics(overhead_s=timed - untraced)
            result["coverage"] = tracer.coverage(runner.walls)
            os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
            tracer.dump(os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl"))
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(cli_batch.WORKDIR, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
