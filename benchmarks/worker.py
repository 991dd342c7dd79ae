"""One workload run in its own process: set-up, timed passes, checks.

run.py starts this script with the BLAS thread count fixed in its
environment and reads the JSON object on its last line of output:

    python3 benchmarks/worker.py --workload W --seed S --seconds N --trace 0|1
    python3 benchmarks/worker.py --workload W --seed S --setup-only

A pass runs the workload's whole job list once. Untraced, at least
MIN_PASSES run, and more while another fits in ``--seconds``; traced, one untraced pass is followed by
one traced pass, whose spans give the per-layer metrics.

The machine this is measured on changes speed by tens of percent within
seconds and between minutes, because other tenants share its cores. While a
pass runs, a timer signal times a fixed calibration kernel every
CAL_INTERVAL_S (under 1% of the pass); run.py scales the pass's times by
the mean kernel time, which tracks the speed this process got.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np      # noqa: E402
import xxzent           # noqa: E402,F401
import xxzent.cli       # noqa: E402,F401

import checks           # noqa: E402
import workloads        # noqa: E402


MIN_PASSES = 2
CAL_INTERVAL_S = 0.05
_CAL_ARRAY = np.linspace(0.0, 1.0, 1000)


def calibration_sample() -> float:
    """Time of a fixed kernel of a Python float loop and numpy calls on
    arrays of a thousand elements, the two kinds of work the program does."""
    t0 = time.perf_counter()
    s = 0.0
    for i in range(3000):
        s += i * 0.5
    for _ in range(10):
        (np.exp(_CAL_ARRAY) * _CAL_ARRAY).sum()
    return time.perf_counter() - t0


class SpeedSampler:
    """Collects calibration samples every CAL_INTERVAL_S while active."""

    def __init__(self):
        self.samples = []

    def _on_alarm(self, signum, frame):
        self.samples.append(calibration_sample())

    def __enter__(self):
        self.samples = []
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, CAL_INTERVAL_S, CAL_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:          # a pass shorter than one interval
            self.samples.append(calibration_sample())
        return False


def timed_pass(jobs):
    """Run every job once, timing only the public calls. Returns wall and
    CPU seconds, the mean calibration time during the pass, and outcomes."""
    wall = cpu = 0.0
    outcomes = []
    with SpeedSampler() as sampler:
        for job in jobs:
            w0, c0 = time.perf_counter(), time.process_time()
            outcomes.append(checks.run_call(job))
            wall += time.perf_counter() - w0
            cpu += time.process_time() - c0
    checks.collect_records(jobs, outcomes)
    return wall, cpu, statistics.mean(sampler.samples), outcomes


def git_commit():
    """HEAD of the checkout if it is a git repository, else None."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def environment():
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": os.cpu_count(), "git_commit": git_commit()}


def run(workload, seed, seconds, trace, jobs):
    variant = workloads.variant_of(seed)
    tally = checks.Tally()
    walls, cpus, cal = [], [], []
    out = {}
    t0 = time.perf_counter()
    while True:
        wall, cpu, cal_s, outcomes = timed_pass(jobs)
        walls.append(wall)
        cpus.append(cpu)
        cal.append(cal_s)
        tally.add(checks.check_pass(workload, variant, outcomes))
        elapsed = time.perf_counter() - t0
        if trace or (len(walls) >= MIN_PASSES
                     and elapsed * (len(walls) + 1) / len(walls) > seconds):
            break
    if trace:
        import tracing
        tracer = tracing.Tracer(run_id=f"{workload}/seed{seed}")
        with tracing.installed(tracer):
            wall, _, _, outcomes = timed_pass(jobs)
        tally.add(checks.check_pass(workload, variant, outcomes))
        layers = tracing.layer_metrics(tracer.spans)
        layers["trace.overhead_s"] = wall - walls[0]
        out["layers"] = {k: {"value": layers[k], "unit": unit}
                         for k, unit in tracing.PER_LAYER.items()}
        out["traced_wall_s"] = wall
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"spans-{workload}-seed{seed}.json"))
    out.update(wall_s=walls, cpu_s=cpus, cal_s=cal, attempted=tally.attempted,
               failed=tally.failed, mismatched=tally.mismatched,
               reasons=tally.reasons,
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
               / 1024.0,
               env=environment())
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    scratch = os.path.join(OUT_DIR, f"scratch-{os.getpid()}")
    try:
        jobs = workloads.build_jobs(args.workload, args.seed, scratch)
        setup_done = time.monotonic()
        if args.setup_only:
            result = {"setup_done": setup_done, "cal_s": statistics.median(
                calibration_sample() for _ in range(15))}
        else:
            os.makedirs(scratch, exist_ok=True)
            result = run(args.workload, args.seed, args.seconds, args.trace,
                         jobs)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
