"""Benchmark of the concurrence engine, run from the root of a checkout:

    python3 benchmarks/run.py --workload W --seed S --seconds N --trace 0|1

W is one of cspa-sweep, exact-large-n, limit-scan, oracle, or ``all`` (each
workload untraced, then traced). The workload runs in its own process with
one BLAS thread and ``workers = 1``. Every metric is printed by name with its
unit; the last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. Results and spans
are also written to ``.bench_out/``.
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
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKER = os.path.join(HERE, "worker.py")

WORKLOADS = ("cspa-sweep", "exact-large-n", "limit-scan", "oracle")
SETUP_SAMPLES = 7
BLAS_THREADS = "1"       # no higher than nproc; the baseline used one
TIME_LIMIT = 170.0       # seconds for one run, set-up included
# Times are reported scaled to a machine on which the worker's calibration
# kernel takes CAL_REF_S; the raw times are kept in the result file.
CAL_REF_S = 3e-4


class BenchError(Exception):
    pass


def _spawn(args, deadline):
    """Run the worker to completion; returns (start time, its JSON result)."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS, MKL_NUM_THREADS=BLAS_THREADS,
               PYTHONHASHSEED="0")
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {' '.join(args)} timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker {' '.join(args)} exited with "
                         f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return start, json.loads(lines[-1])


def run_workload(workload, seed, seconds, trace, deadline):
    """One run: set-up samples (untraced runs only), then the measured
    worker process."""
    common = ["--workload", workload, "--seed", str(seed)]
    setups = []
    for _ in range(0 if trace else SETUP_SAMPLES):
        start, res = _spawn([*common, "--setup-only"], deadline)
        setups.append((res["setup_done"] - start) * CAL_REF_S / res["cal_s"])
    _, res = _spawn([*common, "--seconds", str(seconds), "--trace",
                     str(trace)], deadline)
    res["setup_s"] = setups
    speed = [CAL_REF_S / c for c in res["cal_s"]]
    res["speed"] = speed
    if trace:
        metrics = res["layers"]
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(
                w * f for w, f in zip(res["wall_s"], speed)), "s"),
            "cpu_s": (statistics.median(
                c * f for c, f in zip(res["cpu_s"], speed)), "s"),
            "peak_rss_mb": (res["peak_rss_mb"], "MB"),
            "pass_frac": (1.0 - res["failed"] / res["attempted"], "ratio"),
        }
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    summary = {"correct": res["mismatched"] == 0,
               "attempted": res["attempted"], "failed": res["failed"],
               "metrics": metrics}
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"result-{workload}-seed{seed}-trace{trace}"
                        ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "summary": summary, "raw": res}, fh,
                  indent=1)
    _report(workload, trace, res, summary)
    return summary


def _report(workload, trace, res, summary):
    env = res["env"]
    print(f"# {workload} trace={trace}: python {env['python']}, numpy "
          f"{env['numpy']}, {env['blas']}, BLAS threads {env['blas_threads']}"
          f", nproc {env['nproc']}, commit {env['git_commit']}")
    print(f"# {len(res['wall_s'])} timed passes, raw wall "
          f"{statistics.median(res['wall_s']):.4g} s, machine speed factor "
          f"{statistics.median(res['speed']):.4g}; points attempted "
          f"{summary['attempted']}, failed {summary['failed']} "
          f"({res['reasons']}), correct {summary['correct']}")
    for name, m in summary["metrics"].items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")


def main(argv=None):
    ap = argparse.ArgumentParser(
        description="Benchmark of the xxzent concurrence engine.")
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "xxzent", "__init__.py")):
        print("benchmark: the xxzent sources (src/xxzent) are missing from "
              f"{ROOT}", file=sys.stderr)
        return 2
    try:
        if args.workload != "all":
            summary = run_workload(args.workload, args.seed, args.seconds,
                                   args.trace,
                                   time.monotonic() + TIME_LIMIT)
            print(json.dumps(summary))
            return 0
        total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in WORKLOADS:
            for trace in (0, 1):
                s = run_workload(workload, args.seed, args.seconds, trace,
                                 time.monotonic() + TIME_LIMIT)
                total["correct"] &= s["correct"]
                total["attempted"] += s["attempted"]
                total["failed"] += s["failed"]
                if not trace:
                    total["metrics"].update(
                        {f"{workload}.{k}": v for k, v in s["metrics"].items()})
        print(json.dumps(total))
        return 0
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
