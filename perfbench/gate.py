"""Correctness gate: suite reports against a golden report, verdicts against
their expected values.

An op of a suite workload is one check id of the golden report. It fails when
the id is missing, its status differs, or its integer `measured` differs.
Float residuals are judged through their status only. Check ids absent from
the golden report are allowed unless their status is "fail".
"""

from __future__ import annotations

import json
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def condense(doc: dict) -> dict:
    """The golden form of a one-dimension `phasecrt suite --format json` report."""
    (report,) = doc["reports"]
    return {"M": report["M"],
            "checks": {c["id"]: {"status": c["status"],
                                 "measured": c["measured"] if _is_int(c["measured"]) else None}
                       for c in report["checks"]}}


def load_golden(M: int) -> dict:
    return json.loads((GOLDEN_DIR / f"suite-{M}.json").read_text())


def check_report(doc: dict, golden: dict) -> tuple[int, list[str]]:
    """(failed ops, problems). Problems also name run-level faults, which fail
    the run without failing an op: `passed` false or an unexpected `fail`."""
    got = {c["id"]: c for r in doc.get("reports", []) for c in r.get("checks", [])}
    problems = []
    failed = 0
    for cid, want in golden["checks"].items():
        c = got.get(cid)
        if c is None:
            why = "missing"
        elif c["status"] != want["status"]:
            why = f"status {c['status']}, golden {want['status']}"
        elif want["measured"] is not None and c["measured"] != want["measured"]:
            why = f"measured {c['measured']}, golden {want['measured']}"
        else:
            continue
        failed += 1
        problems.append(f"{cid}: {why}")
    problems += [f"{cid}: unexpected fail" for cid, c in got.items()
                 if cid not in golden["checks"] and c["status"] == "fail"]
    if doc.get("passed") is not True:
        problems.append("report does not say passed")
    return failed, problems


def verdict_problem(got: dict, expected: dict) -> str | None:
    """None when the verdict type, shift (vN) and reason (NotVN) all match."""
    if got == expected:
        return None
    return f"verdict {got}, expected {expected}"
