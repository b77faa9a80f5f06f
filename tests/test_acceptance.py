"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with pytest -s or -rA) and
then asserts the same conditions, so a red test names its criterion.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from phasecrt.core import (
    apply,
    clock,
    compose,
    fourier_matrix,
    global_phase_exponent,
    momentum_state,
    operator_order,
    phase_exponent,
    position_state,
    translate,
)
from phasecrt.lattice import (
    VNLattice,
    area_report,
    classify_vn_state,
    mixed_element_matrix,
    support,
)
from phasecrt.numtheory import enumerate_splits, factorize, make_split
from phasecrt.reps import (
    BasisKind,
    build_C1,
    build_C2,
    build_E_mom,
    build_E_pos,
    build_pls,
    compare_cross_phases,
    eigen_residuals,
    overlap_matrix,
)

SUITE_DIMENSIONS = (6, 10, 12, 15, 21, 35)


def _line(n, ok, summary):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {summary}")
    return ok


@pytest.fixture(scope="module")
def bases_by_split():
    out = {}
    for M in SUITE_DIMENSIONS:
        for split in enumerate_splits(M):
            out[(M, split)] = {
                BasisKind.C1: build_C1(split),
                BasisKind.C2: build_C2(split),
                BasisKind.E_POS: build_E_pos(M, split.M1),
                BasisKind.E_MOM: build_E_mom(M, split.M1),
            }
    return out


def test_criterion_1_worked_split_example():
    t0 = time.perf_counter()
    s = make_split(15, 3)
    elapsed = time.perf_counter() - t0
    ok = (s.L1, s.L2, s.N1, s.N2) == (5, 3, 2, 2) and elapsed < 1e-3
    assert _line(1, ok, f"make_split(15,3) -> L1={s.L1} L2={s.L2} N1={s.N1} "
                        f"N2={s.N2} in {elapsed * 1e6:.0f} us")
    assert (s.M1, s.M2, s.L1, s.L2, s.N1, s.N2) == (3, 5, 5, 3, 2, 2)
    assert elapsed < 1e-3


def test_criterion_2_pls_origin_support():
    t0 = time.perf_counter()
    split = make_split(15, 3)
    mm = np.abs(mixed_element_matrix(build_pls(split, 0, 0)))
    target = 1 / math.sqrt(15)
    on = {(q, k) for q in (0, 3, 6, 9, 12) for k in (0, 5, 10)}
    on_dev = max(abs(mm[q, k] - target) for q, k in on)
    off_max = max(mm[q, k] for q in range(15) for k in range(15) if (q, k) not in on)
    elapsed = time.perf_counter() - t0
    ok = on_dev < 1e-9 and off_max < 1e-9 and elapsed < 0.1
    assert _line(2, ok, f"on-support dev {on_dev:.2e}, off-support max {off_max:.2e}, "
                        f"{elapsed * 1e3:.1f} ms")
    assert on_dev < 1e-9
    assert off_max < 1e-9
    assert elapsed < 0.1


def test_criterion_3_basis_quality_across_dimensions(bases_by_split):
    t0 = time.perf_counter()
    worst_gram = worst_eigen = worst_c1c2 = 0.0
    for (M, split), bases in bases_by_split.items():
        for basis in bases.values():
            worst_gram = max(worst_gram, basis.gram_residual())
            worst_eigen = max(worst_eigen, eigen_residuals(basis))
        diag = np.diag(overlap_matrix(bases[BasisKind.C1], bases[BasisKind.C2]))
        worst_c1c2 = max(worst_c1c2, float(np.max(np.abs(diag - 1.0))))
    elapsed = time.perf_counter() - t0
    ok = worst_gram < 1e-9 and worst_eigen < 1e-9 and worst_c1c2 < 1e-9 and elapsed < 30
    assert _line(3, ok, f"M in {SUITE_DIMENSIONS}: gram {worst_gram:.2e}, "
                        f"eigen {worst_eigen:.2e}, C1=C2 {worst_c1c2:.2e}, "
                        f"{elapsed:.2f} s")
    assert worst_gram < 1e-9
    assert worst_eigen < 1e-9
    assert worst_c1c2 < 1e-9
    assert elapsed < 30


def test_criterion_4_cross_basis_overlap_structure(bases_by_split):
    kinds = [BasisKind.C1, BasisKind.C2, BasisKind.E_MOM, BasisKind.E_POS]
    compared_pairs = [(BasisKind.C1, BasisKind.C2), (BasisKind.C1, BasisKind.E_MOM),
                      (BasisKind.C2, BasisKind.E_POS), (BasisKind.E_MOM, BasisKind.E_POS)]
    worst_mod = worst_res = 0.0
    worst_time = 0.0
    statuses = set()
    for (M, split), bases in bases_by_split.items():
        t0 = time.perf_counter()
        for a in kinds:
            for b in kinds:
                g = overlap_matrix(bases[a], bases[b])
                mods = np.abs(g)
                dev = np.minimum(mods, np.abs(mods - 1.0))
                worst_mod = max(worst_mod, float(np.max(dev)))
                for z in g[mods > 0.5].ravel():
                    _, res = phase_exponent(complex(z), M)
                    worst_res = max(worst_res, res)
        for a, b in compared_pairs:
            cmp = compare_cross_phases(bases[a], bases[b])
            statuses.add(cmp.status)
        worst_time = max(worst_time, time.perf_counter() - t0)
    ok = (worst_mod < 1e-9 and worst_res < 1e-6
          and statuses <= {"pass", "discrepancy"} and worst_time < 10)
    assert _line(4, ok, f"moduli dev {worst_mod:.2e}, exponent residual {worst_res:.2e}, "
                        f"comparator statuses {sorted(statuses)}, worst {worst_time:.2f} s/M")
    assert worst_mod < 1e-9
    assert worst_res < 1e-6
    assert statuses <= {"pass", "discrepancy"}
    assert "discrepancy" in statuses  # the Emom-Epos printed form differs in sign
    assert worst_time < 10


def test_criterion_5_split_counts():
    results = {}
    for M in (15, 30, 210):
        n = factorize(M).num_primes
        results[M] = (len(enumerate_splits(M)), 2 ** (n - 1) - 1)
    ok = all(got == want for got, want in results.values())
    assert _line(5, ok, ", ".join(f"M={M}: {got} of {want}"
                                  for M, (got, want) in results.items()))
    for got, want in results.values():
        assert got == want


def test_criterion_6_operator_algebra_exact():
    t0 = time.perf_counter()
    ok = True
    for M in (6, 10, 12, 15, 21, 35):
        u, v = clock(M, M), translate(M, 1)
        ok &= operator_order(u) == M
        ok &= operator_order(v) == M
        ok &= (u ** M).is_identity() and (v ** M).is_identity()
        ok &= global_phase_exponent(compose(u, v), compose(v, u)) == (M - 1) % M
        for k in range(M):
            stepped = apply(u, momentum_state(M, k)).amplitudes * math.sqrt(M)
            for q in range(M):
                n, res = phase_exponent(complex(stepped[q]), M)
                ok &= n == (q * (k + 1)) % M and res < 1e-6
        for q in range(M):
            got = apply(v, position_state(M, q)).amplitudes
            ok &= bool(np.array_equal(got, position_state(M, (q - 1) % M).amplitudes))
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 1.0
    assert _line(6, ok, f"periods minimal, commutator exponent -1, shift relations "
                        f"exact, {elapsed * 1e3:.0f} ms")
    assert ok


def test_criterion_7_pls_lattice_bijection():
    t0 = time.perf_counter()
    ok = True
    for M, M1 in ((15, 3), (6, 2)):
        split = make_split(M, M1)
        shifts = set()
        covered = set()
        for q01 in range(split.M1):
            for k02 in range(split.M2):
                state = build_pls(split, q01, k02)
                verdict = classify_vn_state(state, split)
                ok &= isinstance(verdict, VNLattice)
                if isinstance(verdict, VNLattice):
                    ok &= (verdict.shift_q, verdict.shift_k) == (q01, k02)
                    shifts.add((verdict.shift_q, verdict.shift_k))
                pts = set(support(state))
                ok &= not (covered & pts)
                covered |= pts
        ok &= len(shifts) == M
        ok &= len(covered) == M * M
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    assert _line(7, ok, f"all shifts recovered, supports tile the grid, "
                        f"{elapsed * 1e3:.0f} ms")
    assert ok


def test_criterion_8_area_accounting():
    results = []
    for M in (6, 10, 12, 15, 21, 30, 35, 210):
        for split in enumerate_splits(M):
            report = area_report(M, split)
            results.append(report.cell_area == Fraction(1, M)
                           and report.points_per_state == M
                           and report.state_area == Fraction(1))
    ok = all(results)
    assert _line(8, ok, f"state area exactly 2*pi for {len(results)} split(s)")
    assert ok


def test_criterion_9_mub_property():
    worst = 0.0
    ok = True
    for M in range(2, 36):
        F = fourier_matrix(M)
        dev = float(np.max(np.abs(np.abs(F) - 1 / math.sqrt(M))))
        worst = max(worst, dev)
        ok &= dev < 1e-12 * math.sqrt(M)
        z = np.vdot(position_state(M, M // 2).amplitudes, momentum_state(M, 1).amplitudes)
        ok &= abs(abs(z) - 1 / math.sqrt(M)) < 1e-12 * math.sqrt(M)
    assert _line(9, ok, f"max | |<q|k>| - 1/sqrt(M) | = {worst:.2e} over M <= 35")
    assert ok
