import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phasecrt import reps, suite
from phasecrt.core import StateVector, default_tolerance, fourier_matrix
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

    def test_pls_on_another_lattice_keeps_its_area(self, monkeypatch):
        # PLS (0, 0) replaced by PLS (1, 0): M support points on the wrong lattice
        real = suite.build_pls
        monkeypatch.setattr(suite, "build_pls", lambda split, q01, k02: real(
            split, *((1, 0) if (q01, k02) == (0, 0) else (q01, k02))))
        failed = {c.check_id: c.measured for c in run_suite(15).checks if c.status == "fail"}
        assert failed.pop("pls.orthonormal[3x5]") == pytest.approx(1.0)
        assert failed == {"pls.lattice-bijection[3x5]": 3, "conjugate.duality[3x5]": 1}

    def test_calls_per_split(self, monkeypatch):
        # the benchmark harness traces build_pls through suite and records one
        # verdict latency per classify_vn_state call; the PLS are conjugated
        # as one stack, not one conjugate_state call each, and each PLS and
        # conjugated PLS is validated as a StateVector once
        calls = dict.fromkeys(
            ["build_pls", "classify_vn_state", "conjugate_state", "StateVector"], 0)

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, fn in [("build_pls", suite.build_pls),
                         ("classify_vn_state", suite.classify_vn_state),
                         ("conjugate_state", reps.conjugate_state)]:
            monkeypatch.setattr(suite, name, counted(name, fn), raising=False)
        monkeypatch.setattr(StateVector, "__init__", counted("StateVector", StateVector.__init__))
        report = run_suite(30)
        assert report.passed
        n = 30 * len(report.splits)
        assert calls == {"build_pls": n, "classify_vn_state": 2 * n, "conjugate_state": 0,
                         "StateVector": 2 * n}


def build_instead(monkeypatch, bad):
    """Has the suite build bad in place of every basis of its kind."""
    real = suite.build_basis
    monkeypatch.setattr(suite, "build_basis",
                        lambda kind, M, M1: bad if kind is bad.kind else real(kind, M, M1))


def corrupt_c2(monkeypatch, corrupt):
    """Has the suite build C2 of 3x5 from its amplitudes with corrupt applied;
    the comb structure is kept, so the products check the amplitudes."""
    good = build_basis(BasisKind.C2, 15, 3)
    amps = good.as_matrix().T.reshape(3, 5, 15).copy()
    corrupt(amps)
    bad = RepBasis(BasisKind.C2, 3, 5, amps)
    bad._comb = good._comb
    build_instead(monkeypatch, bad)
    return make_split(15, 3)


def seed_worst(dev, a, b):
    """oracle: the largest entry of a whole (M, M) label-pair array and where it sits"""
    i, j = divmod(int(np.argmax(dev)), a.M)
    (q1, k2), (r1, r2) = divmod(i, a.M2), divmod(j, b.M2)
    return float(dev[i, j]), f"worst at (q1={q1}, k2={k2}) x (q1={r1}, k2={r2})"


class TestWorstLocation:
    def test_failing_records_name_their_worst_label_pair(self, monkeypatch):
        # vector (0, 1) of C2 gets weight 0.5 off its class: its own norm is
        # then off by 0.25, more than any other Gram entry moves
        def off_class(amps):
            amps[0, 1, crt_grid(make_split(15, 3))[1, 0]] = 0.5

        split = corrupt_c2(monkeypatch, off_class)
        checks = []
        tol = default_tolerance(15)
        comparisons = suite._check_bases(checks, split, "3x5", tol)
        suite._check_cross_phases(checks, split, "3x5", tol, comparisons)
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

    def test_failing_c1c2_identity_names_its_worst_label(self, monkeypatch):
        # C2 vector (2, 3) times 1j: unit norm and the same eigenvalues, but
        # <C1(2, 3)|C2(2, 3)> = 1j
        split = make_split(15, 3)
        checks = []
        suite._check_bases(checks, split, "3x5", default_tolerance(15))
        assert all(c.status == "pass" and c.note == "" for c in checks)

        def rephase(amps):
            amps[2, 3] *= 1j

        corrupt_c2(monkeypatch, rephase)
        checks = []
        suite._check_bases(checks, split, "3x5", default_tolerance(15))
        identity = next(c for c in checks if c.check_id == "basis.c1c2-identity[3x5]")
        assert identity.status == "fail"
        assert identity.measured == pytest.approx(math.sqrt(2))
        assert identity.note == "worst at (q1=2, k2=3)"
        assert [c.check_id for c in checks if c.status == "fail"] == [identity.check_id]

    @staticmethod
    def negate_one_amplitude(amps):
        # C2 (1, 2) keeps its support, so only the translate relation breaks
        q = np.flatnonzero(amps[1, 2])[1]
        amps[1, 2, q] *= -1

    @staticmethod
    def copy_a_vector(amps):
        # C2 (0, 1) becomes C2 (1, 1): its k2 = 1 translate eigenvalue still holds
        amps[0, 1] = amps[1, 1]

    @pytest.mark.parametrize("corrupt, note", [
        (negate_one_amplitude, "worst at (q1=1, k2=2), translate relation"),
        (copy_a_vector, "worst at (q1=0, k2=1), clock relation"),
    ])
    def test_failing_eigen_names_its_worst_label_and_relation(self, corrupt, note, monkeypatch):
        split = corrupt_c2(monkeypatch, corrupt)
        checks = []
        suite._check_bases(checks, split, "3x5", default_tolerance(15))
        eigen = {c.check_id: c for c in checks if c.check_id.startswith("basis.eigen.")}
        assert eigen["basis.eigen.C2[3x5]"].status == "fail"
        assert eigen["basis.eigen.C2[3x5]"].note == note
        assert all(c.status == "pass" and c.note == ""
                   for i, c in eigen.items() if i != "basis.eigen.C2[3x5]")

    @pytest.mark.parametrize("keep_comb", [True, False], ids=["comb", "dense"])
    def test_streamed_worst_notes_match_the_whole_matrix(self, keep_comb, monkeypatch):
        # Emom of 14x15 with vector (0, 13) and vector (1, 1) both twice vector
        # (0, 0): their Gram diagonals tie exactly at |4 - 1|. At 210 the Gram
        # streams momentum classes k2 < 12 before k2 >= 12, so the row-major
        # first tie, label 13, comes in the later block.
        split = make_split(210, 14)
        good = build_basis(BasisKind.E_MOM, 210, 14)
        side, points, coefficients = good._comb
        coefficients = np.array(coefficients)  # [k2, q1, point]
        coefficients[13, 0] = coefficients[1, 1] = 2 * coefficients[0, 0]
        amps = np.fft.ifft(reps._scatter(side, points, coefficients, (14, 15, 210)),
                           axis=-1, norm="ortho")
        bad = RepBasis(BasisKind.E_MOM, 14, 15, amps)
        if keep_comb:
            bad._comb = (side, points, coefficients)
        build_instead(monkeypatch, bad)
        checks = []
        tol = default_tolerance(210)
        comparisons = suite._check_bases(checks, split, "14x15", tol)
        suite._check_cross_phases(checks, split, "14x15", tol, comparisons)
        failing = {c.check_id: c for c in checks if c.status == "fail"}
        c1, epos = build_basis(BasisKind.C1, 210, 14), build_basis(BasisKind.E_POS, 210, 14)
        for check_id, (a, b) in {"basis.gram.Emom[14x15]": (bad, bad),
                                 "overlap.phase.C1-Emom[14x15]": (c1, bad),
                                 "overlap.phase.Emom-Epos[14x15]": (bad, epos)}.items():
            g = reps.overlap_matrix(a, b)
            if a is b:
                dev = np.abs(g - np.eye(210))
            else:
                dev = np.abs(g)
                dev.flat[::211] = np.abs(dev.flat[::211] - 1.0)
            worst, note = seed_worst(dev, a, b)
            assert failing[check_id].measured == worst
            assert failing[check_id].note.split("; ")[0] == note, check_id
        assert failing["basis.gram.Emom[14x15]"].note == "worst at (q1=0, k2=13) x (q1=0, k2=13)"

    def test_failing_mub_names_its_worst_point(self):
        F = fourier_matrix(15)
        checks = []
        suite._check_mub(checks, 15, F)
        assert checks[0].status == "pass" and checks[0].note == ""
        F = F.copy()
        F[4, 11] *= 1.5  # the smaller twin at (11, 4) tells (q, k) from (k, q)
        F[11, 4] *= 1.25
        checks = []
        suite._check_mub(checks, 15, F)
        assert checks[0].status == "fail"
        assert checks[0].measured == pytest.approx(0.5 / math.sqrt(15))
        assert checks[0].note == "worst at (q=4, k=11)"

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


def heap_peak_in_square_arrays(M):
    # the first call also allocates for lazy imports; that is not working set
    run_suite(15)
    tracemalloc.start()
    try:
        run_suite(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * M ** 2)


class TestWorkingSet:
    # two bases alive at a time, products streamed in label blocks of
    # reps._BLOCK_BYTES; measured 3.93 at 210 (a block is a large share of an
    # (M, M) array there) and 2.18 at 667
    def test_suite_heap_peak_at_210_stays_within_four_square_arrays(self):
        peak = heap_peak_in_square_arrays(210)
        assert peak <= 4, f"peak {peak:.2f} (M, M) arrays"

    def test_suite_heap_peak_at_667_stays_within_two_and_a_half_square_arrays(self):
        peak = heap_peak_in_square_arrays(667)
        assert peak <= 2.5, f"peak {peak:.2f} (M, M) arrays"


# every M from 2 to 400 gives no fail record; tier-1 runs a seeded sample,
# `pytest -m slow` the whole sweep
ALL_DIMENSIONS = range(2, 401)


class TestAcrossDimensions:
    @pytest.mark.parametrize("M", sorted(random.Random(16).sample(ALL_DIMENSIONS, 8)))
    def test_no_fail_record_at_a_sampled_dimension(self, M):
        assert [c.check_id for c in run_suite(M).checks if c.status == "fail"] == []

    @pytest.mark.slow
    @pytest.mark.parametrize("M", ALL_DIMENSIONS)
    def test_no_fail_record_at_any_dimension(self, M):
        assert [c.check_id for c in run_suite(M).checks if c.status == "fail"] == []


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
