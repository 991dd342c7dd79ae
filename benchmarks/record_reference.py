"""Record the reference values the correctness check compares against.

Run once at the commit whose outputs are the reference, from the root of
the checkout:

    python3 benchmarks/record_reference.py [workload ...]

For every jitter variant it runs the workload's job list once and writes
``benchmarks/reference/<workload>.json``: job name -> point records, or
{"raised": <exception type>} for a call that raised. Jobs whose inputs do not
depend on the seed are stored once, under "fixed". The oracle workload
checks bruteforce against exact in the same run and needs no reference.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads    # noqa: E402
from checks import REFERENCE_DIR, collect_records, run_call   # noqa: E402


def record(workload: str) -> dict:
    doc = {"fixed": {}, "variants": {}}
    scratch = os.path.join(ROOT, ".bench_out", f"record-{os.getpid()}")
    try:
        for variant in range(workloads.VARIANTS):
            jobs = workloads.build_jobs(workload, variant, scratch)
            if variant:
                jobs = [j for j in jobs if not j.fixed]
            os.makedirs(scratch, exist_ok=True)
            outcomes = [run_call(j) for j in jobs]
            collect_records(jobs, outcomes)
            entry = doc["variants"].setdefault(str(variant), {})
            for job, out in zip(jobs, outcomes):
                value = out.records if out.raised is None else \
                    {"raised": out.raised}
                (doc["fixed"] if job.fixed else entry)[job.name] = value
            print(f"{workload}: variant {variant} recorded", flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return doc


def main(argv):
    names = argv or [w for w in workloads.WORKLOADS if w != "oracle"]
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    for workload in names:
        doc = record(workload)
        path = os.path.join(REFERENCE_DIR, f"{workload}.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
