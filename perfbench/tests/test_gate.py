"""The correctness gate behind error_rate."""

import copy
import json

import pytest

import gate
import phasecrt as pc
import phasecrt.cli  # noqa: F401 - SuiteRunner calls pc.cli.main
from phasecrt.suite import reports_to_dict


@pytest.fixture(scope="module")
def doc():
    return reports_to_dict([pc.run_suite(15)])


@pytest.fixture(scope="module")
def golden(doc):
    return gate.condense(doc)


def _checks(d):
    return d["reports"][0]["checks"]


def test_golden_report_passes_itself(doc, golden):
    assert gate.check_report(doc, golden) == (0, [])


def test_flipped_status_fails_one_op(doc, golden):
    bad = copy.deepcopy(doc)
    _checks(bad)[3]["status"] = "discrepancy"
    failed, problems = gate.check_report(bad, golden)
    assert failed == 1 and _checks(bad)[3]["id"] in problems[0]


def test_dropped_check_id_fails_one_op(doc, golden):
    bad = copy.deepcopy(doc)
    dropped = _checks(bad).pop(5)["id"]
    assert gate.check_report(bad, golden) == (1, [f"{dropped}: missing"])


def test_changed_integer_measured_fails(doc, golden):
    bad = copy.deepcopy(doc)
    entry = next(c for c in _checks(bad) if isinstance(c["measured"], int))
    entry["measured"] += 1
    assert gate.check_report(bad, golden)[0] == 1


def test_float_residuals_are_judged_by_status_only(doc, golden):
    other = copy.deepcopy(doc)
    entry = next(c for c in _checks(other) if isinstance(c["measured"], float))
    entry["measured"] *= 3.0
    assert gate.check_report(other, golden) == (0, [])


def test_added_check_ids_are_allowed_unless_they_fail(doc, golden):
    more = copy.deepcopy(doc)
    _checks(more).append({"id": "kernel.good-thomas[3x5]", "status": "pass", "measured": 0.0})
    assert gate.check_report(more, golden) == (0, [])
    _checks(more)[-1]["status"] = "fail"
    failed, problems = gate.check_report(more, golden)
    assert failed == 0 and problems == ["kernel.good-thomas[3x5]: unexpected fail"]


def test_report_not_passed_is_a_problem(doc, golden):
    bad = copy.deepcopy(doc)
    bad["passed"] = False
    assert gate.check_report(bad, golden) == (0, ["report does not say passed"])


def test_wrong_verdict_is_flagged():
    want = {"type": "VN", "shift": [1, 2]}
    assert gate.verdict_problem({"type": "VN", "shift": [1, 2]}, want) is None
    assert gate.verdict_problem({"type": "VN", "shift": [2, 1]}, want)
    assert gate.verdict_problem({"type": "NotVN", "reason": "wrong count"}, want)
    assert gate.verdict_problem({"type": "NotVN", "reason": "wrong count"},
                                {"type": "NotVN", "reason": "wrong support geometry"})


def test_checked_in_golden_reports_are_condensed_suite_reports():
    for M in (210, 667):
        g = gate.load_golden(M)
        assert g["M"] == M and g["checks"]
        assert all(set(c) == {"status", "measured"} for c in g["checks"].values())
        assert all(c["status"] != "fail" for c in g["checks"].values())


def test_a_raising_request_is_a_failed_op_not_a_crash(tmp_path):
    import child
    import stream
    reqs = stream.write(stream.generate(0, 30, 1)[:1], tmp_path / "states")
    reqs.append(dict(reqs[0], file="missing.json"))
    (tmp_path / "requests.json").write_text(json.dumps(reqs))
    runner = child.StreamRunner(pc, tmp_path)
    runner.unit(None)
    assert runner.attempted == 20 and runner.failed == 10
    assert "StateFileError" in runner.problems[0]


@pytest.mark.parametrize("broken", ["raises", "writes nothing"])
def test_a_broken_suite_fails_every_golden_op(tmp_path, monkeypatch, broken):
    import child

    def main(argv):
        if broken == "raises":
            raise RuntimeError("boom")
        return 2
    golden = gate.load_golden(210)
    stale = {"reports": [{"checks": [dict(c, id=cid) for cid, c in golden["checks"].items()]}],
             "passed": True}
    assert gate.check_report(stale, golden) == (0, [])
    runner = child.SuiteRunner(pc, 210, tmp_path)
    (tmp_path / "report.json").write_text(json.dumps(stale))  # left by an earlier unit
    try:
        monkeypatch.setattr(pc.cli, "main", main)
        runner.unit(None)
    finally:
        runner.close()
    n = len(golden["checks"])
    assert runner.attempted == n and runner.failed == n
    assert len(runner.problems) == 1 and runner.problems[0].startswith("suite 210: ")
