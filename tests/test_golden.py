"""The suite's JSON report matches the checked-in golden reports.

Every field is compared exactly except two: duration_seconds, and float
`measured` values. Those floats are roundoff residuals whose last digits
depend on summation order; each check's `status` still pins whether its
residual is under tolerance. Integer `measured` values, ids, descriptions,
`expected`, `tolerance`, notes, counts, `passed` and splits all count.

The 210 and 667 reports also pass the benchmark's gate (perfbench/gate.py,
loaded by path: read-only, no bytecode written next to it) against its own
golden reports: no golden id goes missing or changes its status or integer
`measured`.

Regenerate a golden file only for an intended change of the report, with
    PYTHONPATH=src python tests/regen_golden.py
It runs the workloads below and rewrites only the records that comparable tells
apart from the old file's: the float residual of an unchanged record, and the
duration_seconds of a report with no changed record, keep their old text. The
commands it stands for are:
    phasecrt suite 6,10,12,15,21,35 --format json --out tests/golden/w1.json
    phasecrt suite 210 --format json --out tests/golden/210.json
    phasecrt suite 667 --format json --out tests/golden/667.json
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

from phasecrt.cli import main

GOLDEN = Path(__file__).parent / "golden"
GATE = Path(__file__).resolve().parent.parent / "perfbench" / "gate.py"


def comparable(text: str) -> str:
    doc = json.loads(text)
    for report in doc["reports"]:
        del report["duration_seconds"]
        for check in report["checks"]:
            if isinstance(check["measured"], float):
                check["measured"] = "<float residual>"
    return json.dumps(doc, indent=2)


@pytest.mark.parametrize("name, dims", [("w1", "6,10,12,15,21,35"), ("210", "210"), ("667", "667")])
def test_report_matches_golden(name, dims, tmp_path, monkeypatch):
    monkeypatch.delenv("PHASECRT_TOLERANCE", raising=False)
    out = tmp_path / "report.json"
    assert main(["suite", dims, "--format", "json", "--out", str(out)]) == 0
    assert comparable(out.read_text()) == comparable((GOLDEN / f"{name}.json").read_text())
    if name in ("210", "667"):  # the dimensions the benchmark's gate has golden reports of
        monkeypatch.setattr(sys, "dont_write_bytecode", True)
        spec = importlib.util.spec_from_file_location("_bench_gate", GATE)
        gate = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(gate)
        doc = json.loads(out.read_text())
        assert gate.check_report(doc, gate.load_golden(int(name))) == (0, [])
