"""tests/regen_golden.py rewrites a golden report only where a record changed.

Each test runs the script on copies of the golden files in a temporary directory.
"""

import json
import shutil

import regen_golden
from test_golden import GOLDEN


def patched_210(tmp_path, patch):
    """A copy of golden/210.json in tmp_path with patch applied to its one report."""
    doc = json.loads((GOLDEN / "210.json").read_text())
    patch(doc["reports"][0])
    (tmp_path / "210.json").write_text(json.dumps(doc, indent=2) + "\n")
    return (tmp_path / "210.json").read_text()


def test_regenerating_the_goldens_rewrites_nothing(tmp_path):
    for name in regen_golden.WORKLOADS:
        shutil.copy(GOLDEN / f"{name}.json", tmp_path)
    assert regen_golden.main(["--dir", str(tmp_path)]) == 0
    for name in regen_golden.WORKLOADS:
        assert (tmp_path / f"{name}.json").read_bytes() == (GOLDEN / f"{name}.json").read_bytes()


def test_an_unchanged_record_keeps_its_old_float(tmp_path):
    def patch(report):
        check = next(c for c in report["checks"] if isinstance(c["measured"], float))
        check["measured"] = 1.25e-17  # a residual of another summation order, say

    before = patched_210(tmp_path, patch)
    assert regen_golden.main(["--dir", str(tmp_path)]) == 0
    assert (tmp_path / "210.json").read_text() == before  # duration_seconds included


def test_only_the_changed_records_and_the_duration_are_rewritten(tmp_path):
    def patch(report):
        report["checks"][3]["description"] = "an outdated description"
        del report["checks"][7]

    patched_210(tmp_path, patch)
    assert regen_golden.main(["--dir", str(tmp_path)]) == 0
    # the two records are the fresh run's again, so the file is the golden one
    # but for the duration of the report that changed
    got = (tmp_path / "210.json").read_text().splitlines()
    want = (GOLDEN / "210.json").read_text().splitlines()
    assert len(got) == len(want)
    assert [a.split(":")[0] for a, b in zip(got, want) if a != b] == ['      "duration_seconds"']
