import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phasecrt import reps, suite
from phasecrt.core import StateVector, default_tolerance
from phasecrt.lattice import VNLattice
from phasecrt.numtheory import crt_compose, crt_grid, make_split
from phasecrt.reps import BasisKind, RepBasis, build_basis
from phasecrt.suite import format_table, reports_to_dict, run_suite, run_suites


class TestSuiteRun:
    def test_m15_passes_with_one_discrepancy(self):
        report = run_suite(15)
        assert report.passed
        assert len(report.checks) >= 20
        counts = report.counts
        assert counts["fail"] == 0
        assert counts["discrepancy"] == 1
        flagged = [c for c in report.checks if c.status == "discrepancy"]
        assert flagged[0].check_id == "overlap.phase.Emom-Epos[3x5]"
        assert "disagree" in flagged[0].note

    def test_m15_check_ids_unique_and_split_described(self):
        report = run_suite(15)
        ids = [c.check_id for c in report.checks]
        assert len(ids) == len(set(ids))
        assert report.splits == ["3x5"]

    def test_prime_dimension_degenerate_path(self):
        report = run_suite(7)
        assert report.passed
        ids = [c.check_id for c in report.checks]
        assert "splits.none" in ids
        assert not any("[" in i for i in ids)  # no split-level checks

    def test_m30_covers_three_splits(self):
        report = run_suite(30)
        assert report.passed
        assert report.splits == ["2x15", "3x10", "5x6"]
        for d in report.splits:
            assert any(c.check_id == f"basis.gram.C1[{d}]" for c in report.checks)

    @pytest.mark.parametrize("M", [6, 10, 12, 21])
    def test_small_dimensions_pass(self, M):
        assert run_suite(M).passed

    def test_expected_core_checks_present(self):
        ids = {c.check_id for c in run_suite(15).checks}
        for want in [
            "fourier.mub",
            "operators.period.clock",
            "operators.period.translate",
            "operators.commutator",
            "operators.shift.momentum-raise",
            "operators.shift.position-lower",
            "splits.count",
            "crt.roundtrip[3x5]",
            "crt.bijection[3x5]",
            "crt.delta-identity[3x5]",
            "split.invariants[3x5]",
            "operators.splitting[3x5]",
            "basis.gram.C1[3x5]",
            "basis.gram.C2[3x5]",
            "basis.gram.Epos[3x5]",
            "basis.gram.Emom[3x5]",
            "basis.eigen.C1[3x5]",
            "basis.c1c2-identity[3x5]",
            "kernel.product[3x5]",
            "kernel.label-form[3x5]",
            "overlap.phase.C1-C2[3x5]",
            "overlap.phase.C1-Emom[3x5]",
            "overlap.phase.C2-Epos[3x5]",
            "overlap.phase.Emom-Epos[3x5]",
            "pls.orthonormal[3x5]",
            "pls.lattice-bijection[3x5]",
            "conjugate.duality[3x5]",
            "lattice.area[3x5]",
        ]:
            assert want in ids, want

    def test_kernel_form_note_names_the_matching_form(self):
        report = run_suite(15)
        check = next(c for c in report.checks if c.check_id == "kernel.label-form[3x5]")
        assert "with-inverse-factors" in check.note
        assert check.status == "pass"

    def test_repeated_shift_fails_lattice_bijection(self, monkeypatch):
        # a classifier that puts every PLS over the unshifted lattice
        monkeypatch.setattr(suite, "classify_vn_state",
                            lambda rho, split, threshold=None: VNLattice(split))
        report = run_suite(15)
        check = next(c for c in report.checks if c.check_id == "pls.lattice-bijection[3x5]")
        assert check.status == "fail"
        # 14 wrong shifts, one distinct shift instead of 15, and an uncovered grid
        assert check.measured == 14 + 1 + 1


class TestPlsRecords:
    def test_moved_pls_amplitude_fails_every_pls_record(self, monkeypatch):
        # PLS (0, 0) of 3x5 moves its amplitude at crt_grid[0, 1] one position on,
        # into class q1 = 1, with its norm kept
        real = suite.build_pls

        def moved(split, q01, k02):
            state = real(split, q01, k02)
            if (q01, k02) != (0, 0):
                return state
            amps = state.amplitudes.copy()
            q = crt_grid(split)[0, 1]
            amps[q + 1], amps[q] = amps[q], 0
            return StateVector(amps, normalized=True)

        monkeypatch.setattr(suite, "build_pls", moved)
        report = run_suite(15)
        golden = json.loads((Path(__file__).parent / "golden" / "w1.json").read_text())
        expected = {c["id"]: c["status"]
                    for r in golden["reports"] if r["M"] == 15 for c in r["checks"]}
        failed = {c.check_id: c.measured for c in report.checks if c.status == "fail"}
        # |<PLS(0, 0)|PLS(1, k2)>| = (1/sqrt(5))**2 at the moved position
        assert failed.pop("pls.orthonormal[3x5]") == pytest.approx(0.2)
        # one wrong verdict, 14 distinct shifts, an uncovered lattice
        assert failed == {"pls.lattice-bijection[3x5]": 3, "conjugate.duality[3x5]": 1,
                          "lattice.area[3x5]": 1}
        for c in report.checks:
            if c.status != "fail":
                assert c.status == expected[c.check_id], c.check_id
        assert len(report.checks) == len(expected)

    def test_calls_per_split(self, monkeypatch):
        # the benchmark harness traces build_pls through suite and records one
        # verdict latency per classify_vn_state call; the PLS are conjugated
        # as one stack, not one conjugate_state call each
        calls = dict.fromkeys(["build_pls", "classify_vn_state", "conjugate_state"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in [("build_pls", suite.build_pls),
                         ("classify_vn_state", suite.classify_vn_state),
                         ("conjugate_state", reps.conjugate_state)]:
            monkeypatch.setattr(suite, name, counted(name, fn), raising=False)
        report = run_suite(30)
        assert report.passed
        n = 30 * len(report.splits)
        assert calls == {"build_pls": n, "classify_vn_state": 2 * n, "conjugate_state": 0}


class TestWorstLocation:
    def test_failing_records_name_their_worst_label_pair(self):
        # vector (0, 1) of C2 gets weight 0.5 off its class: its own norm is
        # then off by 0.25, more than any other Gram entry moves
        split = make_split(15, 3)
        bases = {kind: build_basis(kind, 15, 3) for kind in BasisKind}
        amps = bases[BasisKind.C2].as_matrix().T.reshape(3, 5, 15).copy()
        amps[0, 1, crt_grid(split)[1, 0]] = 0.5
        bad = RepBasis(BasisKind.C2, 3, 5, amps)
        bad._comb = bases[BasisKind.C2]._comb
        bases[BasisKind.C2] = bad
        checks = []
        tol = default_tolerance(15)
        c1c2 = suite._check_bases(checks, split, "3x5", bases, tol)
        suite._check_cross_phases(checks, split, "3x5", bases, tol, c1c2)
        notes = {c.check_id: c.note for c in checks if c.status == "fail"}
        assert notes["basis.gram.C2[3x5]"] == "worst at (q1=0, k2=1) x (q1=0, k2=1)"
        # every <b(1, k)|C2(0, 1)> gains the same modulus 0.5/sqrt(5); ties fall by roundoff
        assert re.fullmatch(r"worst at \(q1=1, k2=\d\) x \(q1=0, k2=1\)",
                            notes["overlap.phase.C1-C2[3x5]"])
        assert re.fullmatch(r"worst at \(q1=0, k2=1\) x \(q1=1, k2=\d\)",
                            notes["overlap.phase.C2-Epos[3x5]"])
        assert set(notes) == {"basis.gram.C2[3x5]", "basis.eigen.C2[3x5]",
                              "overlap.phase.C1-C2[3x5]", "overlap.phase.C2-Epos[3x5]"}
        passing = [c for c in checks if c.status == "pass"]
        assert passing and all(c.note == "" for c in passing)

    def test_failing_kernel_names_its_worst_phase_point(self, monkeypatch):
        # scaling <k1=1|q1=2> and <k2=3|q2=4> by 1.5 moves their product by
        # 1.25/sqrt(15) and every other entry by at most 0.5/sqrt(15); the joint
        # point sits in the last q1 block, so the worst is kept across blocks
        real = suite.factor_kernel

        def perturbed(split, k, q):
            out = np.array(real(split, k, q))
            out[(2, 1) if split.M1 == 3 else (4, 3)] *= 1.5
            return out

        split = make_split(15, 3)
        tol = default_tolerance(15)
        checks = []
        suite._check_kernel(checks, split, "3x5", tol)
        assert checks[0].status == "pass" and checks[0].note == ""
        monkeypatch.setattr(suite, "factor_kernel", perturbed)
        checks = []
        suite._check_kernel(checks, split, "3x5", tol)
        product = checks[0]
        assert product.check_id == "kernel.product[3x5]" and product.status == "fail"
        assert product.measured == pytest.approx(1.25 / math.sqrt(15))
        q, k = crt_compose(split, 2, 4), crt_compose(split, 1, 3)
        assert product.note == f"worst at (q={q}, k={k})"


class TestWorkingSet:
    def test_suite_heap_peak_stays_within_seven_square_arrays(self):
        # the first call also allocates for lazy imports; that is not working set
        run_suite(15)
        tracemalloc.start()
        try:
            run_suite(210)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 16 * 210 ** 2, f"peak {peak / (16 * 210 ** 2):.2f} (M, M) arrays"


class TestReportSerialization:
    def test_deterministic_modulo_duration(self):
        a = run_suite(15).to_dict()
        b = run_suite(15).to_dict()
        a.pop("duration_seconds")
        b.pop("duration_seconds")
        assert a == b

    def test_floats_rounded_to_12_significant_digits(self):
        doc = run_suite(15).to_dict()
        for check in doc["checks"]:
            for key in ("measured", "expected", "tolerance"):
                value = check[key]
                if isinstance(value, float):
                    assert value == float(f"{value:.11e}")

    def test_reports_to_dict_and_table(self):
        reports = run_suites([7, 15])
        doc = reports_to_dict(reports)
        assert doc["passed"] is True
        assert [r["M"] for r in doc["reports"]] == [7, 15]
        table = format_table(reports)
        assert "RESULT: PASS" in table
        assert "M = 15" in table

    def test_custom_tolerance_is_recorded(self):
        report = run_suite(15, tolerance=1e-7)
        assert report.tolerance == pytest.approx(1e-7)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1.0])
    def test_rejects_tolerance_that_is_not_finite_and_non_negative(self, tolerance):
        with pytest.raises(ValueError):
            run_suite(7, tolerance=tolerance)

    def test_zero_tolerance_is_legal(self):
        assert run_suite(7, tolerance=0.0).tolerance == 0.0
