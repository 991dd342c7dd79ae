"""Failure accounting and correctness checks for one pass of a job list.

A point fails if it returns status ``error``, if the call covering it raised,
or if it fails the correctness check. ``breakdown`` and ``not-applicable``
are answers, not failures. Nothing here aborts a pass.

Correctness is checked against reference values recorded at the seed commit
(``reference/<workload>.json``), except on the oracle workload, where each
bruteforce point is checked against the exact point paired with it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")

MOMENTS = ("logZ", "Sz", "Sz2", "S2")

# tier -> (relative tolerance on logZ and the moments or None, |dC| bound);
# no tighter than the repository's own tests
TOLERANCES = {
    "exact": (1e-10, 1e-10),
    "bruteforce": (1e-10, 1e-10),
    "cmfa": (1e-7, 1e-9),
    "cspa": (None, 5e-3),     # acceptance criterion 5's accuracy window
}
LIMIT_TOL = 1e-6              # limit scans refine band edges to 1e-6 v
ORACLE_REL, ORACLE_ABS, ORACLE_DC = 1e-10, 1e-12, 1e-10   # criterion 1


@dataclass
class JobOutcome:
    """What one public call produced, or the exception it raised. The raw
    ``result`` is turned into ``records`` after the timed pass."""

    name: str
    points: int
    result: object = None
    raised: str | None = None
    records: list | None = None


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    mismatched: int = 0
    reasons: dict = field(default_factory=dict)

    def fail(self, reason: str, count: int = 1, mismatch: bool = False):
        self.failed += count
        if mismatch:
            self.mismatched += count
        self.reasons[reason] = self.reasons.get(reason, 0) + count

    def add(self, other: "Tally"):
        self.attempted += other.attempted
        self.failed += other.failed
        self.mismatched += other.mismatched
        for k, v in other.reasons.items():
            self.reasons[k] = self.reasons.get(k, 0) + v


def run_call(job) -> JobOutcome:
    """Run one public call; an exception covers every point of the call."""
    try:
        return JobOutcome(job.name, job.points, result=job.call())
    except Exception as exc:   # the benchmark must keep running
        return JobOutcome(job.name, job.points, raised=type(exc).__name__)


def collect_records(jobs, outcomes):
    """Turn each call's raw result into point records (untimed)."""
    for job, out in zip(jobs, outcomes):
        if out.raised is None:
            out.records = job.records(out.result)
        out.result = None


def _close(a, b, rel, abs_):
    if a is None or b is None:
        return a is None and b is None
    return abs(a - b) <= rel * max(abs(a), abs(b)) + abs_


def unreferenced_mismatch(rec: dict) -> str | None:
    """A point with no reference value (it failed at the seed commit) must
    at least be in range if it now succeeds."""
    if "intervals" in rec or rec["status"] != "ok":
        return None
    c = rec["C"]
    if c is not None and math.isfinite(c) and 0.0 <= c <= 1.0:
        return None
    return "unreferenced point out of range"


def point_mismatch(rec: dict, ref: dict) -> str | None:
    """Why a sweep point disagrees with its reference, or None."""
    for key in ("tier", "n", "b", "T"):
        if rec[key] != ref[key]:
            return "grid differs from reference"
    if ref["status"] != "ok":
        return unreferenced_mismatch(rec)
    if rec["status"] != "ok":
        return f"reference ok, got {rec['status']}"
    rel, dc = TOLERANCES[rec["tier"]]
    if rel is not None:
        for key in MOMENTS:
            if not _close(rec[key], ref[key], rel, 1e-12):
                return f"{rec['tier']} {key} off reference"
    if not _close(rec["C"], ref["C"], 0.0, dc):
        return f"{rec['tier']} C off reference"
    return None


def limit_mismatch(rec: dict, ref: dict) -> str | None:
    """Why a limit scan's bands disagree with the reference, or None."""
    if (rec["tier"], rec["n"], rec["b"]) != (ref["tier"], ref["n"], ref["b"]):
        return "grid differs from reference"
    if len(rec["intervals"]) != len(ref["intervals"]):
        return "band count differs from reference"
    edges = [(a, b) for iv, rv in zip(rec["intervals"], ref["intervals"])
             for a, b in zip(iv, rv)] + [(rec["limit"], ref["limit"])]
    if not all(_close(a, b, 0.0, LIMIT_TOL) for a, b in edges):
        return "band edge off reference"
    return None


def check_against_reference(outcomes, reference: dict) -> Tally:
    """Tally a pass whose jobs have recorded reference values.

    ``reference`` maps job name -> list of records, or {"raised": type} for
    a call that raised at the seed commit.
    """
    tally = Tally()
    for out in outcomes:
        tally.attempted += out.points
        if out.raised is not None:
            tally.fail(f"raised {out.raised}", out.points)
            continue
        ref = reference.get(out.name)
        if ref is None:
            tally.fail("no reference", out.points, mismatch=True)
            continue
        ref_records = ref if isinstance(ref, list) else None   # raised
        if ref_records is not None and len(ref_records) != len(out.records):
            tally.fail("point count differs from reference", out.points,
                       mismatch=True)
            continue
        for i, rec in enumerate(out.records):
            if rec["status"] == "error":
                tally.fail("status error")
                continue
            if ref_records is None:
                why = unreferenced_mismatch(rec)
            elif "intervals" in rec:
                why = limit_mismatch(rec, ref_records[i])
            else:
                why = point_mismatch(rec, ref_records[i])
            if why:
                tally.fail(why, mismatch=True)
    return tally


def oracle_mismatch(bf: dict, ex: dict) -> str | None:
    """Criterion 1: bruteforce against exact at the same point."""
    if (bf["n"], bf["b"], bf["T"]) != (ex["n"], ex["b"], ex["T"]):
        return "oracle pair on different points"
    if bf["status"] != "ok" or ex["status"] != "ok":
        return "oracle pair not ok"
    for key in MOMENTS:
        if not _close(bf[key], ex[key], ORACLE_REL, ORACLE_ABS):
            return f"bruteforce {key} off exact"
    if not abs(bf["C"] - ex["C"]) < ORACLE_DC:
        return "bruteforce C off exact"
    return None


def check_oracle(outcomes) -> Tally:
    """Tally a pass of (bruteforce, exact) jobs named '<tier>-<suffix>'."""
    tally = Tally()
    by_name = {o.name: o for o in outcomes}
    for out in outcomes:
        tally.attempted += out.points
        if out.raised is not None:
            tally.fail(f"raised {out.raised}", out.points)
            continue
        errors = [r for r in out.records if r["status"] == "error"]
        if errors:
            tally.fail("status error", len(errors))
        if not out.name.startswith("bruteforce-"):
            continue
        partner = by_name.get("exact-" + out.name[len("bruteforce-"):])
        for i, rec in enumerate(out.records):
            if rec["status"] == "error":
                continue
            if partner is None or partner.records is None:
                tally.fail("no exact counterpart", mismatch=True)
                continue
            why = oracle_mismatch(rec, partner.records[i])
            if why:
                tally.fail(why, mismatch=True)
    return tally


def load_reference(workload: str, variant: int) -> dict:
    """Job name -> reference records for one jitter variant."""
    path = os.path.join(REFERENCE_DIR, f"{workload}.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    ref = dict(doc.get("fixed", {}))
    ref.update(doc["variants"][str(variant)])
    return ref


def check_pass(workload: str, variant: int, outcomes) -> Tally:
    if workload == "oracle":
        return check_oracle(outcomes)
    return check_against_reference(outcomes, load_reference(workload, variant))
