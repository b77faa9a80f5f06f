"""Regenerate the golden reports of tests/golden/, rewriting only the records that changed.

    PYTHONPATH=src python tests/regen_golden.py [--dir DIR]

runs the three golden workloads (w1 is the suite at 6,10,12,15,21,35, then 210
and 667; under a second in all) at the default tolerance, as the commands in
test_golden.py do, and merges each fresh report into the old file in DIR (default
tests/golden). A check record that test_golden.comparable cannot tell from its old
self (it masks a float `measured`, a roundoff residual) keeps the old file's text,
float included, and a report with no changed record keeps its duration_seconds
too. So a regenerated diff shows only the records that changed, were added or were
removed. A workload whose suite fails is not written.
"""

import argparse
import json
import sys
from pathlib import Path

from phasecrt.suite import reports_to_dict, run_suites
from test_golden import GOLDEN, comparable

WORKLOADS = {"w1": [6, 10, 12, 15, 21, 35], "210": [210], "667": [667]}


def masked(report: dict) -> str:
    """report as comparable compares it."""
    return comparable(json.dumps({"reports": [report]}))


def merge(old: dict, new: dict) -> dict:
    """new, with each record and report that comparable cannot tell from old's taken from old."""
    before = {report["M"]: report for report in old["reports"]}
    for report in new["reports"]:
        was = before.get(report["M"])
        if was is None:
            continue
        olds = {check["id"]: check for check in was["checks"]}
        for i, check in enumerate(report["checks"]):
            old = olds.get(check["id"], check)
            if masked({**report, "checks": [old]}) == masked({**report, "checks": [check]}):
                report["checks"][i] = old
        if masked(report) == masked(was):
            report["duration_seconds"] = was["duration_seconds"]
    return new


def regenerate(name: str, golden: Path) -> bool:
    """Rewrite golden/name.json from a fresh run of its workload; False if the suite fails."""
    new = reports_to_dict(run_suites(WORKLOADS[name]))
    if not new["passed"]:
        return False
    path = golden / f"{name}.json"
    if path.exists():
        new = merge(json.loads(path.read_text()), new)
    path.write_text(json.dumps(new, indent=2) + "\n")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--dir", type=Path, default=GOLDEN, help="the golden directory")
    args = parser.parse_args(argv)
    failed = [name for name in WORKLOADS if not regenerate(name, args.dir)]
    for name in failed:
        print(f"{name}: the suite fails, {name}.json not written", file=sys.stderr)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
