import ast
import cmath
import json
import math
import random
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from phasecrt import lattice, reps, suite
from phasecrt.core import StateVector, default_tolerance, fourier_matrix
from phasecrt.lattice import VNLattice
from phasecrt.numtheory import crt_compose, crt_grid, enumerate_splits, make_split
from phasecrt.reps import BasisKind, RepBasis, _label_blocks, build_basis, build_C2
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
            return StateVector(amps)

        monkeypatch.setattr(suite, "build_pls", moved)
        report = run_suite(15)
        golden = json.loads((Path(__file__).parent / "golden" / "w1.json").read_text())
        expected = {c["id"]: c["status"]
                    for r in golden["reports"] if r["M"] == 15 for c in r["checks"]}
        failed = {c.check_id: c.measured for c in report.checks if c.status == "fail"}
        # one PLS is not its C2 vector
        assert failed.pop("pls.orthonormal[3x5]") == 1
        note = next(c.note for c in report.checks if c.check_id == "pls.orthonormal[3x5]")
        assert note == "first at (q1=0, k2=0)"
        # one wrong verdict, 14 distinct shifts, an uncovered lattice
        assert failed == {"pls.lattice-bijection[3x5]": 3, "conjugate.duality[3x5]": 1,
                          "lattice.area[3x5]": 1}
        for c in report.checks:
            if c.status != "fail":
                assert c.status == expected[c.check_id], c.check_id
        assert len(report.checks) == len(expected)

    def test_pls_with_weight_off_its_class_fails_and_names_its_label(self, monkeypatch):
        # PLS (0, 0) of 3x5 keeps 0.8 of its amplitudes and puts 0.6 at the point
        # q1 = 1, q2 = 0 of the lattice: still unit norm, but off its class, where
        # its C2 vector holds an exact zero
        real = suite.build_pls

        def leaking(split, q01, k02):
            state = real(split, q01, k02)
            if (q01, k02) != (0, 0):
                return state
            amps = 0.8 * state.amplitudes
            amps[crt_grid(split)[1, 0]] = 0.6
            return StateVector(amps)

        monkeypatch.setattr(suite, "build_pls", leaking)
        orthonormal = next(c for c in run_suite(15).checks
                           if c.check_id == "pls.orthonormal[3x5]")
        assert orthonormal.status == "fail"
        assert orthonormal.measured == 1
        assert orthonormal.note == "first at (q1=0, k2=0)"

    def test_pls_on_another_lattice_keeps_its_area(self, monkeypatch):
        # PLS (0, 0) replaced by PLS (1, 0): M support points on the wrong lattice
        real = suite.build_pls
        monkeypatch.setattr(suite, "build_pls", lambda split, q01, k02: real(
            split, *((1, 0) if (q01, k02) == (0, 0) else (q01, k02))))
        failed = {c.check_id: c.measured for c in run_suite(15).checks if c.status == "fail"}
        assert failed.pop("pls.orthonormal[3x5]") == 1
        assert failed == {"pls.lattice-bijection[3x5]": 3, "conjugate.duality[3x5]": 1}

    def test_calls_per_split(self, monkeypatch):
        # the benchmark harness traces build_pls through suite and records one
        # verdict latency per classify_vn_state call; each PLS is conjugated by
        # one conjugate_state call, and each PLS and conjugated PLS is validated
        # as a StateVector once
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
        assert calls == {"build_pls": n, "classify_vn_state": 2 * n, "conjugate_state": n,
                         "StateVector": 2 * n}

    @pytest.mark.parametrize("M, M1", [pytest.param(30, M1, id=str(M1))
                                       for M1 in (2, 3, 5, 6, 10, 15)]
                             + [pytest.param(210, 14, id="210-14")])
    def test_two_dfts_per_pls(self, M, M1, monkeypatch):
        # the verdict's DFT of a PLS is the one its conjugate reads; the conjugate's
        # verdict takes the other, and the comparison with C2 takes none. Each label block
        # takes one FFT per side (14x15 of 210 takes its labels in several blocks)
        shapes, real = [], np.fft.fft

        def recorded(a, *args, **kwargs):
            shapes.append(np.shape(a))
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", recorded)
        split = make_split(M, M1)
        checks = []
        suite._check_pls(checks, split, split.describe(), build_C2(split))
        blocks = [(len(block), M) for block in _label_blocks(M)]
        assert shapes == [shape for shape in blocks for _ in range(2)]
        assert sum(rows for rows, _ in shapes) == 2 * M
        assert all(c.status == "pass" for c in checks)

    @pytest.mark.parametrize("M", [30, 210])
    def test_every_pls_verdict_counts_on_its_rectangle(self, M, monkeypatch):
        # a PLS and its conjugate each cover M2 rows by M1 columns, a bounding
        # rectangle of exactly M products, so no verdict of the check sorts
        verdicts, real = [], suite.classify_vn_state

        def recorded(*args):
            verdicts.append(real(*args))
            return verdicts[-1]

        def sorted_count(*args):
            raise AssertionError("a PLS verdict counted its support on a sort")

        monkeypatch.setattr(suite, "classify_vn_state", recorded)
        monkeypatch.setattr(lattice, "_sort_count", sorted_count)
        for split in enumerate_splits(M):
            verdicts.clear()
            suite._check_pls([], split, split.describe(), build_C2(split))
            assert len(verdicts) == 2 * M
            assert all(isinstance(v, VNLattice) for v in verdicts)


def build_instead(monkeypatch, bad):
    """Has the suite build bad in place of every basis of its kind."""
    real = suite.build_basis
    monkeypatch.setattr(suite, "build_basis",
                        lambda kind, M, M1: bad if kind is bad.kind else real(kind, M, M1))


def corrupt_c2(monkeypatch, corrupt):
    """Has the suite build C2 of 3x5 from its amplitudes with corrupt applied: the
    comb of their coefficients on C2's classes where every nonzero amplitude stays
    there, else the plain basis of the amplitudes."""
    good = build_basis(BasisKind.C2, 15, 3)
    amps = good.as_matrix().T.reshape(3, 5, 15).copy()
    corrupt(amps)
    points = good._comb[1]
    coefficients = np.take_along_axis(amps, points[:, None, :], axis=2)
    bad = (reps._comb_basis(BasisKind.C2, "position", points, coefficients)
           if np.count_nonzero(coefficients) == np.count_nonzero(amps)
           else RepBasis(BasisKind.C2, 3, 5, amps))
    build_instead(monkeypatch, bad)
    return make_split(15, 3)


def read_fourier_entries_from(monkeypatch, F):
    """Has the suite read the entries of its Fourier matrix from F."""
    monkeypatch.setattr(suite, "_fourier_entries", lambda M, rows, cols: F[np.ix_(rows, cols)])


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
        comparisons, _ = suite._check_bases(checks, split, "3x5", tol)
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
        claimed = reps._comb_basis(BasisKind.E_MOM, side, points, coefficients)
        amps = claimed.as_matrix().T.reshape(14, 15, 210).copy()  # its rows, bit for bit
        bad = claimed if keep_comb else RepBasis(BasisKind.E_MOM, 14, 15, amps)
        assert (bad._comb[0] == "momentum") == keep_comb
        build_instead(monkeypatch, bad)
        checks = []
        tol = default_tolerance(210)
        comparisons, _ = suite._check_bases(checks, split, "14x15", tol)
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

    def test_a_phase_only_failure_names_the_label_whose_phase_failed(self, monkeypatch):
        # C2 vector (1, 2) times e^{0.1i}: every overlap keeps its modulus, so the largest
        # modulus error is roundoff somewhere else; only that label's phases miss a root
        def rotate(amps):
            amps[1, 2] *= cmath.rect(1.0, 0.1)

        split = corrupt_c2(monkeypatch, rotate)
        checks = []
        tol = default_tolerance(15)
        comparisons, _ = suite._check_bases(checks, split, "3x5", tol)
        suite._check_cross_phases(checks, split, "3x5", tol, comparisons)
        failing = {c.check_id: c for c in checks if c.status == "fail"}
        assert set(failing) == {"basis.c1c2-identity[3x5]", "overlap.phase.C1-C2[3x5]",
                                "overlap.phase.C2-Epos[3x5]"}
        assert failing["basis.c1c2-identity[3x5]"].note == "worst at (q1=1, k2=2)"
        for check_id in ("overlap.phase.C1-C2[3x5]", "overlap.phase.C2-Epos[3x5]"):
            assert failing[check_id].measured <= tol
            assert failing[check_id].note == "worst at (q1=1, k2=2) x (q1=1, k2=2)"

    def test_failing_mub_names_its_worst_point(self, monkeypatch):
        checks = []
        suite._check_mub(checks, 15, suite._walk_fourier(15))
        assert checks[0].status == "pass" and checks[0].note == ""
        F = fourier_matrix(15)
        F[4, 11] *= 1.5  # the smaller twin at (11, 4) tells (q, k) from (k, q)
        F[11, 4] *= 1.25
        read_fourier_entries_from(monkeypatch, F)
        checks = []
        suite._check_mub(checks, 15, suite._walk_fourier(15))
        assert checks[0].status == "fail"
        assert checks[0].measured == pytest.approx(0.5 / math.sqrt(15))
        assert checks[0].note == "worst at (q=4, k=11)"

    def test_failing_kernel_names_its_worst_phase_point(self, monkeypatch):
        # scaling <k1=1|q1=2> and <k2=3|q2=4> by 1.5 moves their product by
        # 1.25/sqrt(15) and every other entry by at most 0.5/sqrt(15)
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


class TestNanIsTheWorst:
    # a NaN compares False, so a check that keeps its worst value block by block
    # must rank it first, as np.max does, and its failing record names its location
    def test_a_nan_kernel_entry_fails_both_kernel_records(self, monkeypatch):
        real = suite.factor_kernel

        def with_nan(split, k, q):
            out = np.array(real(split, k, q))
            if split.M1 == 3:
                out[0, 1] = np.nan  # <k1=1|q1=0>
            return out

        split = make_split(15, 3)
        monkeypatch.setattr(suite, "factor_kernel", with_nan)
        checks = []
        suite._check_kernel(checks, split, "3x5", default_tolerance(15))
        product, form = checks
        assert product.status == form.status == "fail"
        assert math.isnan(product.measured) and math.isnan(form.measured)
        # the first NaN in row-major (q1, q2) x (k1, k2) order sits at (0, 0) x (1, 0)
        q, k = crt_compose(split, 0, 0), crt_compose(split, 1, 0)
        assert product.note == f"worst at (q={q}, k={k})"

    def test_a_nan_fourier_entry_fails_the_shift_and_mub_records(self, monkeypatch):
        F = fourier_matrix(210)
        F[4, 11] = np.nan  # in the first of four label blocks
        assert len(reps._label_blocks(210)) == 4
        read_fourier_entries_from(monkeypatch, F)
        walk = suite._walk_fourier(210)  # one walk over F feeds both records
        checks = []
        suite._check_shift_relations(checks, default_tolerance(210), walk)
        raise_ = checks[0]
        assert raise_.check_id == "operators.shift.momentum-raise"
        assert raise_.status == "fail" and math.isnan(raise_.measured)
        # row k of the relation is clock|k> - |k+1>: F[4] enters rows 3 and 4 first at q = 11
        assert raise_.note == "worst at (k=3, q=11)"
        checks = []
        suite._check_mub(checks, 210, walk)
        assert checks[0].status == "fail" and math.isnan(checks[0].measured)
        assert checks[0].note == "worst at (q=4, k=11)"

    def test_a_nan_in_a_later_label_block_names_the_epos_label_and_relation(self, monkeypatch):
        # Epos of 23x29: the eigen relations walk blocks of whole classes q1; vector
        # (0, 1) fails in the first and a NaN in vector (9, 3), label 264, sits in a
        # later one; both relations of that vector are NaN, and the first in
        # row-major order is clock
        side, points, coefficients = build_basis(BasisKind.E_POS, 667, 23)._comb
        coefficients = np.array(coefficients)  # [q1, k2, point]
        coefficients[0, 1, 1] *= -1
        coefficients[9, 3, 2] = np.nan
        bad = reps._comb_basis(BasisKind.E_POS, side, points, coefficients)
        blocks, real = [], reps._worst

        def recording(found, dev, rows, cols):
            blocks.append(set(rows.tolist()))
            return real(found, dev, rows, cols)

        monkeypatch.setattr(reps, "_worst", recording)
        reps.eigen_residuals(bad)
        assert 1 in blocks[0] and 9 * 29 + 3 not in blocks[0]
        assert any(9 * 29 + 3 in block for block in blocks[1:])
        monkeypatch.setattr(reps, "_worst", real)
        build_instead(monkeypatch, bad)
        checks = []
        suite._check_bases(checks, make_split(667, 23), "23x29", default_tolerance(667))
        eigen = next(c for c in checks if c.check_id == "basis.eigen.Epos[23x29]")
        assert eigen.status == "fail" and math.isnan(eigen.measured)
        assert eigen.note == "worst at (q1=9, k2=3), clock relation"

    # Emom of 23x29: the eigen relations walk blocks of momentum classes k2, so vector
    # (5, 0), label 145, is read in a block before vector (0, 20), label 20; at 3x5 the
    # one block holds vector (1, 0), label 5, in an earlier class than (0, 1), label 1
    @pytest.mark.parametrize("M, M1, first, second", [(667, 23, (5, 0), (0, 20)),
                                                      (15, 3, (1, 0), (0, 1))])
    def test_two_nans_name_the_first_label_in_any_block_order(self, M, M1, first, second):
        good = build_basis(BasisKind.E_MOM, M, M1)
        side, points, coefficients = good._comb
        coefficients = np.array(coefficients)  # [k2, q1, point]
        for q1, k2 in (first, second):
            coefficients[k2, q1, 1] = np.nan
        bad = reps._comb_basis(BasisKind.E_MOM, side, points, coefficients)
        value, note = reps._eigen_deviations(bad)
        assert math.isnan(value)
        assert note == f"worst at (q1={second[0]}, k2={second[1]}), clock relation"

    def test_a_nan_kernel_entry_in_a_later_label_block_names_its_phase_point(self, monkeypatch):
        # at 2x105 the kernel walks rows (q1, q2) in blocks of 16 labels;
        # <k1=1|q1=1> is NaN, so every row q1 = 1 is NaN from column
        # (k1, k2) = (1, 0) on, and the first of them, row (1, 0) = 105, is in block 7
        real = suite.factor_kernel

        def with_nan(split, k, q):
            out = np.array(real(split, k, q))
            if split.M1 == 2:
                out[1, 1] = np.nan
            return out

        split = make_split(210, 2)
        assert [len(r) for r in reps._label_blocks(210, temporaries=8)][:7] == [16] * 7
        monkeypatch.setattr(suite, "factor_kernel", with_nan)
        checks = []
        suite._check_kernel(checks, split, "2x105", default_tolerance(210))
        product, form = checks
        assert product.status == form.status == "fail"
        assert math.isnan(product.measured)
        q = crt_compose(split, 1, 0)
        assert product.note == f"worst at (q={q}, k={q})"
        assert form.note.endswith(f"; worst at (q={q}, k={q})")

    def test_a_nan_c2_amplitude_names_the_c1c2_label(self, monkeypatch):
        def with_nan(amps):
            amps[2, 3, np.flatnonzero(amps[2, 3])[0]] = np.nan  # on its class: still a comb

        split = corrupt_c2(monkeypatch, with_nan)
        checks = []
        suite._check_bases(checks, split, "3x5", default_tolerance(15))
        identity = next(c for c in checks if c.check_id == "basis.c1c2-identity[3x5]")
        assert identity.status == "fail" and math.isnan(identity.measured)
        assert identity.note == "worst at (q1=2, k2=3)"


def tolerance_comparisons(tree):
    """The qualified name of the function around each comparison that reads tol or
    tolerance (a name or an attribute); an identity test such as tol is None judges
    nothing."""
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{scope}.{node.name}" if scope else node.name
        if isinstance(node, ast.Compare) and not all(
                isinstance(op, (ast.Is, ast.IsNot)) for op in node.ops) and any(
                getattr(operand, "id", getattr(operand, "attr", None)) in ("tol", "tolerance")
                for operand in [node.left, *node.comparators]):
            found.append(scope)
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, "")
    return found


class TestOneJudgement:
    # suite._add decides every record's status from its tolerance, with one rule:
    # |measured - expected| <= tolerance, a NaN failing; only compare_cross_phases
    # decides its three-way status itself, with the same comparison on its modulus
    def test_only_add_judges_a_record_against_its_tolerance(self):
        # run_suite checks the tolerance it was given; the kernel's label-form record
        # lists the forms that match, under the same rule
        tree = ast.parse(Path(suite.__file__).read_text())
        assert sorted(tolerance_comparisons(tree)) == ["_add", "_check_kernel", "run_suite"]

    def test_the_guard_sees_each_form_of_comparison(self):
        source = """
def check(err, tol, record):
    tol = 1e-9 if tol is None else tol
    note = "" if err <= tol else "worst"
    status = "pass" if err < tol and tol >= 0 else "fail"
    return [x for x in (err,) if x < record.tolerance]

class Report:
    def passed(self, tolerance):
        return 0 <= self.measured <= tolerance
"""
        assert tolerance_comparisons(ast.parse(source)) == ["check"] * 4 + ["Report.passed"]

    @pytest.mark.parametrize("M", [15, 35])
    def test_each_float_record_passes_at_its_own_measured_value(self, M):
        base = run_suite(M)
        (d,) = base.splits
        floats = [c for c in base.checks if isinstance(c.measured, float)]
        assert len(floats) == 17
        for value in sorted({c.measured for c in floats}):
            report = {c.check_id: c for c in run_suite(M, tolerance=value).checks}
            for c in floats:
                if c.measured == value:  # a pass, or the one discrepancy at 15, as at default
                    assert report[c.check_id].status == c.status != "fail", c.check_id
            assert report[f"kernel.label-form[{d}]"].status \
                == report[f"kernel.product[{d}]"].status


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
    # no (M, M) array: a basis is its comb coefficients, F is read in row blocks,
    # and products and relations stream in label blocks of core._SCRATCH_BYTES;
    # measured 2.19 at 210 (a block is a large share of an (M, M) array there),
    # 0.16 at 667 and 0.37 at 1155; with a PLS coefficient stack they were 2.28,
    # 0.20 and 0.42, with two dense bases alive 3.69, 2.18 and 2.50
    def test_suite_heap_peak_at_210_stays_within_2_84_square_arrays(self):
        peak = heap_peak_in_square_arrays(210)
        assert peak <= 2.84, f"peak {peak:.2f} (M, M) arrays"

    def test_suite_heap_peak_at_667_stays_within_half_a_square_array(self):
        peak = heap_peak_in_square_arrays(667)
        assert peak <= 0.5, f"peak {peak:.2f} (M, M) arrays"

    @pytest.mark.slow
    def test_suite_heap_peak_at_1155_stays_within_half_a_square_array(self):
        peak = heap_peak_in_square_arrays(1155)
        assert peak <= 0.5, f"peak {peak:.2f} (M, M) arrays"


def scan_peak_in_square_arrays(M, M1):
    """The heap _scan(C2, Epos) takes above its two bases, in (M, M) arrays."""
    split = make_split(M, M1)
    c2, epos = reps.build_C2(split), reps.build_E_pos(M, M1)
    reps._scan(c2, epos, modulus=True)  # lazy imports and caches are not working set
    tracemalloc.start()
    try:
        reps._scan(c2, epos, modulus=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * M ** 2)


class TestClassBlockWorkingSet:
    # the square-block route reads each class's blocks as it goes; holding every
    # class block of both operands took 1.90 arrays at 2x105 and 1.06 at 3x385
    # (measured 1.15 and 0.50 since; 0.15 at 3x385 once a class larger than the
    # scratch budget is read in row blocks of labels)
    @pytest.mark.parametrize("M, M1, bound", [(210, 2, 1.3), (1155, 3, 0.25)])
    def test_the_c2_epos_product_holds_no_class_block_lists(self, M, M1, bound):
        peak = scan_peak_in_square_arrays(M, M1)
        assert peak <= bound, f"peak {peak:.2f} (M, M) arrays"


def check_peak_in_square_arrays(M, check):
    """The heap check() takes above its caller, in (M, M) arrays."""
    check()  # lazy imports and the root table are not working set
    tracemalloc.start()
    try:
        check()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (16 * M ** 2)


class TestLabelBlockWorkingSet:
    # the kernel check streams label blocks, the eigen check blocks of comb classes;
    # with a block per q1 they held 2.00 and 1.01 arrays at 2x665 (measured 0.50 and
    # 0.02 since; the eigen check 0.04 at 23x29). The kernel's blocks are sized for its
    # temporaries: with blocks sized for one it held 1.79 arrays at 2x105 (measured 0.65
    # since)
    @pytest.mark.parametrize("M, M1", [pytest.param(1330, 2, id="2x665"),
                                       pytest.param(210, 2, id="2x105")])
    def test_the_kernel_check_stays_within_0_75_arrays(self, M, M1):
        split = make_split(M, M1)
        peak = check_peak_in_square_arrays(
            M, lambda: suite._check_kernel([], split, split.describe(), default_tolerance(M)))
        assert peak <= 0.75, f"peak {peak:.2f} (M, M) arrays"

    @pytest.mark.parametrize("M, M1", [pytest.param(1330, 2, id="2x665"),
                                       pytest.param(1155, 3, id="3x385"),
                                       pytest.param(667, 23, id="23x29")])
    def test_the_eigen_check_holds_a_small_share_of_an_array(self, M, M1):
        for kind in BasisKind:
            basis = build_basis(kind, M, M1)
            peak = check_peak_in_square_arrays(M, lambda: reps.eigen_residuals(basis))
            assert peak <= 0.25, f"{kind.value}: peak {peak:.2f} (M, M) arrays"


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

    def test_a_nan_measurement_is_written_as_strict_json(self, monkeypatch):
        # one NaN coefficient of C2 makes every record that reads it NaN; RFC 8259 has
        # no NaN token, so each is null, the record still fails and the table says nan
        side, points, coefficients = build_basis(BasisKind.C2, 15, 3)._comb
        coefficients = np.array(coefficients)
        coefficients[1, 2, 0] = np.nan
        build_instead(monkeypatch, reps._comb_basis(BasisKind.C2, side, points, coefficients))
        reports = [run_suite(15)]
        nan_ids = {c.check_id for c in reports[0].checks
                   if isinstance(c.measured, float) and math.isnan(c.measured)}
        assert nan_ids

        def refuse(token):
            raise ValueError(f"not strict JSON: {token}")

        doc = json.loads(json.dumps(reports_to_dict(reports)), parse_constant=refuse)
        assert doc["passed"] is False
        written = {c["id"]: c for c in doc["reports"][0]["checks"]}
        for check_id in nan_ids:
            assert written[check_id]["measured"] is None
            assert written[check_id]["status"] == "fail"
        assert "measured=nan" in format_table(reports)

    def test_custom_tolerance_is_recorded(self):
        report = run_suite(15, tolerance=1e-7)
        assert report.tolerance == pytest.approx(1e-7)

    @pytest.mark.parametrize("tolerance", [math.inf, math.nan, -1.0])
    def test_rejects_tolerance_that_is_not_finite_and_non_negative(self, tolerance):
        with pytest.raises(ValueError):
            run_suite(7, tolerance=tolerance)

    def test_zero_tolerance_is_legal(self):
        assert run_suite(7, tolerance=0.0).tolerance == 0.0
