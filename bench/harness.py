"""Closed-loop measurement of one workload, exact checks, one JSON result line.

The workload's jobs run in turn, one at a time, each through kspt.cli.run
in this process with stdout captured, for --seconds: every job at least
twice, and no job started that would likely end later.  Every report is
checked exactly (check.py); a job that fails its check counts in "failed".

--trace 0 reports the end-to-end metrics: wall and CPU seconds of one pass
over the job list, as the sum of each job's mean over the run, scaled to a
reference host speed measured all through the run (see SpeedSampler and
README.md), peak resident memory, and set-up time: the median
over seven fresh processes, started before the measuring time, that import
kspt and write the seeded inputs.  --trace 1 alternates untraced and traced
passes and reports the per-layer metrics of tracing.py with the tracing
overhead.  The last stdout line is the result object; the lines before it
give each metric with its unit, the environment fingerprint and the failure
ratio.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import threading
import time
import traceback
from fractions import Fraction

import numpy

import tracing
from check import check_job
from kspt import cli, scan
from workloads import WORKLOADS, build_jobs

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".kspt_bench")

MIN_PASSES = 2  # runs of each job; a traced run needs this many passes of each kind
SETUP_PROBES = 7
SPEED_PROBE_EVERY_S = 0.1
SPEED_PROBE_REF_S = 0.001  # the speed probe's CPU time at the reference speed


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="write the seeded inputs and exit (the set-up probe)")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith("_ratio") or name.endswith("_per_wall"):
        return "ratio"
    return "count"


def run_job(job) -> tuple[float, float, int, str]:
    """(wall s, process CPU s, exit code, stdout) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    c0 = time.process_time()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(list(job.argv))
    except Exception:  # a crash is a failed job, not a crashed benchmark
        code = -1
        err.write(traceback.format_exc())
    t1 = time.perf_counter()
    c1 = time.process_time()
    if code != 0:
        sys.stderr.write(f"{job.name}: exit {code}\n{err.getvalue()}")
    return t1 - t0, c1 - c0, code, out.getvalue()


class Loop:
    """Closed loop over the job list, counting attempted and failed jobs."""

    def __init__(self, jobs) -> None:
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.lane = None

    def run(self, job, tracer: tracing.Tracer | None = None) -> tuple[float, float, int]:
        """(wall s, CPU s, report bytes) of one job, checked after it ends.

        The report is checked with the tracer removed, so the checker's own
        kspt calls are neither timed nor traced.
        """
        # each job starts without the previous jobs' garbage, as a fresh CLI
        # process would; this keeps peak memory and collector pauses
        # independent of how many jobs ran
        gc.collect()
        if tracer is not None:
            tracer.install()
        try:
            wall, cpu, code, stdout = run_job(job)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.attempted += 1
        problems = check_job(job, code, stdout)
        if problems:
            self.failed += 1
            sys.stderr.write(f"FAILED {job.name}: {'; '.join(problems)}\n")
        elif job.kind == "classical" and self.lane is None:
            self.lane = json.loads(stdout)["results"]["lane"]
        return wall, cpu, len(stdout.encode())

    def run_pass(self, tracer: tracing.Tracer | None = None, label: str = "") -> tuple[float, int]:
        """(wall s, report bytes) summed over one pass of the job list."""
        wall, size = 0.0, 0
        for job in self.jobs:
            if tracer is not None:
                tracer.job = f"{label}: {job.name}"
            w, _, b = self.run(job, tracer)
            wall += w
            size += b
        return wall, size


def setup_probe(args: argparse.Namespace) -> float:
    """Wall time of a fresh process doing this run's set-up, then exiting."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "1", "--setup-only"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          timeout=120, check=False)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.decode()}")
    return elapsed


def scan_threads() -> int | None:
    """Worker count kspt.scan resolves for threads=None, read off its pool."""
    pool_cls = getattr(scan, "ThreadPoolExecutor", None)
    if pool_cls is None:
        return None
    seen = []

    class Recording(pool_cls):
        def __init__(self, max_workers=None, *a, **k):
            seen.append(max_workers)
            super().__init__(max_workers, *a, **k)

    scan.ThreadPoolExecutor = Recording
    try:
        scan.best_assignment([(i,) for i in range(16)], [[0, 1]] * 16, 16)
    finally:
        scan.ThreadPoolExecutor = pool_cls
    return seen[0] if seen else 1


def git_commit() -> str | None:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30, check=False)
    except OSError:
        return None
    return proc.stdout.strip() or None


def fingerprint(args: argparse.Namespace, lane: str | None) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "compiled_scan_available": scan.compiled_available(),
        "lane": lane,
        "scan_threads": scan_threads(),
        "git_commit": git_commit(),
    }


def fits(start: float, walls: list[float], seconds: float) -> bool:
    """Whether one more run of median length ends within the measuring time."""
    return time.perf_counter() - start + statistics.median(walls) <= seconds


def speed_probe() -> float:
    """Thread CPU seconds of a fixed loop of small-Fraction arithmetic.

    The same interpreter-bound kind of work as kspt's exact code, so it slows
    down when the host runs kspt slower.  Thread CPU time leaves out time
    spent waiting for the GIL or a core.
    """
    t0 = time.thread_time()
    total = Fraction(0)
    for i in range(150):
        total += Fraction(i % 7 - 3, i % 5 + 1) * Fraction(i % 3 + 1, 4)
    return time.thread_time() - t0


class SpeedSampler:
    """Runs speed_probe every SPEED_PROBE_EVERY_S from a thread of its own.

    The vCPUs of the host this benchmark was built on change speed by up to
    1.6x, for seconds to minutes at a time.  Probes taken all through the
    measuring time follow the speed the jobs ran at, and scaling the jobs'
    times by SPEED_PROBE_REF_S over the mean probe time takes most of that
    change out (see README.md).  The probes take about 1% of one core.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, name="speed-probe", daemon=True)

    def __enter__(self) -> "SpeedSampler":
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()

    def _run(self) -> None:
        while not self._stop.wait(SPEED_PROBE_EVERY_S):
            self.samples.append(speed_probe())

    def factor(self) -> float:
        """Reference speed over measured speed: scales seconds measured to the reference."""
        return SPEED_PROBE_REF_S / statistics.fmean(self.samples)


def measure(args: argparse.Namespace, loop: Loop) -> tuple[dict, dict]:
    """End-to-end metrics and per-job samples of an untraced run.

    The jobs run in turn, over and over, at least MIN_PASSES times each;
    then the next job in turn starts only if a run of its median length
    still fits in the measuring time, so sample counts differ by at most
    one and little of the time goes unmeasured.  Wall and CPU seconds of a
    pass are the sums over jobs of their mean per run, from every second
    that was measured; wall_norm_s and cpu_norm_s scale them to the
    reference speed of SpeedSampler.
    """
    setups = [setup_probe(args) for _ in range(SETUP_PROBES)]
    walls: list[list[float]] = [[] for _ in loop.jobs]
    cpus: list[list[float]] = [[] for _ in loop.jobs]
    start = time.perf_counter()
    with SpeedSampler() as speed:
        for i in itertools.count():
            j = i % len(loop.jobs)
            if len(walls[j]) >= MIN_PASSES and not fits(start, walls[j], args.seconds):
                break
            wall, cpu, _ = loop.run(loop.jobs[j])
            walls[j].append(wall)
            cpus[j].append(cpu)
    wall_s = sum(statistics.fmean(w) for w in walls)
    cpu_s = sum(statistics.fmean(c) for c in cpus)
    metrics = {
        "wall_norm_s": wall_s * speed.factor(),
        "cpu_norm_s": cpu_s * speed.factor(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": statistics.median(setups),
    }
    samples = {"jobs": [job.name for job in loop.jobs], "wall_s": walls, "cpu_s": cpus,
               "setup_s": setups, "speed_probe_s": speed.samples,
               "raw": {"wall_s": wall_s, "cpu_s": cpu_s, "speed_factor": speed.factor()}}
    return metrics, samples


def measure_traced(args: argparse.Namespace, loop: Loop) -> tuple[dict, dict]:
    """Per-layer metrics from alternating untraced and traced passes."""
    tracer = tracing.Tracer()
    walls, traced, report_bytes = [], [], 0
    start = time.perf_counter()
    while (min(len(walls), len(traced)) < MIN_PASSES
           or fits(start, walls + traced, args.seconds)):
        if len(traced) < len(walls):
            wall, size = loop.run_pass(tracer, f"pass {len(walls) + len(traced) + 1}")
            traced.append(wall)
            report_bytes += size
        else:
            walls.append(loop.run_pass()[0])
    untraced = statistics.median(walls)
    metrics = tracing.layer_metrics(tracer, len(traced), report_bytes)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / untraced
    metrics["trace.accounted_ratio"] = (
        tracing.layers_self_total(tracer) / len(traced) / untraced)
    return metrics, {"wall_s": walls, "traced_wall_s": traced, "spans": tracer.spans}


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    os.makedirs(OUT_DIR, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as inputs:
        jobs = build_jobs(args.workload, args.seed, inputs)
        if args.setup_only:
            return 0
        loop = Loop(jobs)
        metrics, samples = (measure_traced if args.trace else measure)(args, loop)

    fp = fingerprint(args, loop.lane)
    result = {
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(metrics.items())},
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as fh:
        json.dump({"fingerprint": fp, "result": result, "samples": samples}, fh)

    if args.trace:
        walls = samples["wall_s"]
        print(f"workload {args.workload}: {len(samples['traced_wall_s'])} traced and "
              f"{len(walls)} untraced passes of {len(jobs)} jobs, closed loop")
    else:
        print(f"workload {args.workload}: {loop.attempted} runs of {len(jobs)} jobs, "
              "closed loop")
    for k, v in sorted(metrics.items()):
        print(f"  {k} = {v:.6g} {unit_of(k)}")
    print(f"  fail_ratio = {loop.failed}/{loop.attempted} jobs")
    if args.trace:
        print(f"  untraced wall s per pass: median {statistics.median(walls):.4f}, "
              f"min {min(walls):.4f}, max {max(walls):.4f}")
    else:
        raw = samples["raw"]
        print(f"  measured wall_s = {raw['wall_s']:.6g} s, cpu_s = {raw['cpu_s']:.6g} s; "
              f"speed factor {raw['speed_factor']:.4f} from "
              f"{len(samples['speed_probe_s'])} probes")
        for job, w in zip(jobs, samples["wall_s"]):
            print(f"  {job.name}: {len(w)} runs, wall s median {statistics.median(w):.4f}, "
                  f"min {min(w):.4f}, max {max(w):.4f}")
    print("fingerprint " + json.dumps(fp))
    print(json.dumps(result))
    return 0 if loop.failed == 0 else 1
