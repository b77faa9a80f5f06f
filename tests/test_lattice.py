import cmath
import math
import tracemalloc

import numpy as np
import pytest

from phasecrt import lattice
from phasecrt.core import StateVector, momentum_state, position_state
from phasecrt.lattice import (
    DensityMatrix,
    NotVN,
    PhasePoint,
    VNLattice,
    classify_vn_state,
    default_support_threshold,
    mixed_element_matrix,
    support,
)
from phasecrt.numtheory import enumerate_splits, make_split
from phasecrt.reps import build_pls, conjugate_state

SPLIT_15 = make_split(15, 3)
SPLIT_6 = make_split(6, 2)
BAD_THRESHOLDS = [0.0, -1.0, math.nan, math.inf]


def brute_mixed_element(rho: DensityMatrix, q: int, k: int) -> complex:
    """<q|rho|k> as row q of rho against the momentum state |k>."""
    return complex(rho.matrix[q] @ momentum_state(rho.dim, k).amplitudes)


def lattice_point_set(lattice):
    """The M points (shift_q + n*M1 mod M, shift_k + m*M2 mod M) of lattice."""
    s = lattice.split
    return {PhasePoint((lattice.shift_q + n * s.M1) % s.M, (lattice.shift_k + m * s.M2) % s.M)
            for n in range(s.M2) for m in range(s.M1)}


class TestLatticePoints:
    # a lattice's points, read from the support of the PLS that sits over it
    def test_origin_lattice_15(self):
        pts = set(support(build_pls(SPLIT_15, 0, 0)))
        assert pts == {PhasePoint(q, k) for q in (0, 3, 6, 9, 12) for k in (0, 5, 10)}

    def test_shifted_lattice_15(self):
        pts = set(support(build_pls(SPLIT_15, 1, 2)))
        assert pts == {PhasePoint(q, k) for q in (1, 4, 7, 10, 13) for k in (2, 7, 12)}

    @pytest.mark.parametrize("M", [6, 10, 12, 15, 21])
    def test_always_m_points(self, M):
        for split in enumerate_splits(M):
            for sq in range(split.M1):
                for sk in range(split.M2):
                    pts = lattice_point_set(VNLattice(split, sq, sk))
                    assert len(pts) == M
                    assert set(support(build_pls(split, sq, sk))) == pts

    def test_shift_range_validation(self):
        with pytest.raises(ValueError):
            VNLattice(SPLIT_15, 3, 0)
        with pytest.raises(ValueError):
            VNLattice(SPLIT_15, 0, 5)


class TestDensityMatrix:
    def test_from_state_and_checks(self):
        rho = DensityMatrix.from_state(build_pls(SPLIT_15, 0, 0))
        assert rho.dim == 15
        assert abs(np.trace(rho.matrix) - 1) < 1e-12

    def test_from_state_rejects_the_zero_vector(self):
        with pytest.raises(ValueError, match="zero vector"):
            DensityMatrix.from_state(StateVector(np.zeros(6)))

    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.5
        with pytest.raises(ValueError):
            DensityMatrix(mat)

    def test_rejects_bad_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4) / 2)

    def test_reports_negative_eigenvalue(self):
        mat = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        rho = DensityMatrix(mat)  # positivity is not enforced
        assert np.array_equal(rho.matrix, mat)


class TestDenseMemory:
    # tracemalloc sees numpy's array buffers; M=330 is the classify-stream dimension
    M = 330
    SQUARE = 16 * M * M  # bytes of one (M, M) complex array

    def peak(self, fn):
        tracemalloc.start()
        try:
            fn()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_from_state_keeps_its_outer_product(self):
        pls = build_pls(make_split(self.M, 10), 3, 7)
        DensityMatrix.from_state(pls)  # lazy imports and caches are not working set
        peak = self.peak(lambda: DensityMatrix.from_state(pls))
        assert peak <= self.SQUARE + lattice._SCRATCH_BYTES + 4096, \
            f"peak {peak / self.SQUARE:.2f} (M, M) arrays"

    def test_dense_verdict_makes_no_square_array(self):
        split = make_split(self.M, 10)
        rho = DensityMatrix.from_state(build_pls(split, 3, 7))
        assert classify_vn_state(rho, split) == VNLattice(split, 3, 7)
        peak = self.peak(lambda: classify_vn_state(rho, split))
        assert peak < self.SQUARE / 4, f"peak {peak / self.SQUARE:.2f} (M, M) arrays"

    def test_constructor_copies_its_argument(self):
        arr = np.eye(self.M, dtype=complex) / self.M
        rho = DensityMatrix(arr)
        assert arr.flags.writeable and not rho.matrix.flags.writeable
        arr[0, 0] = 5.0
        assert rho.matrix[0, 0] == 1 / self.M


class TestMixedElement:
    def test_pls_on_and_off_lattice(self):
        pls = build_pls(SPLIT_15, 0, 0)
        mm = mixed_element_matrix(pls)
        assert abs(mm[0, 0]) == pytest.approx(1 / math.sqrt(15))
        assert abs(mm[1, 0]) < 1e-12
        rho = DensityMatrix.from_state(pls)
        for q, k in [(0, 0), (1, 0)]:
            assert cmath.isclose(mm[q, k], brute_mixed_element(rho, q, k), abs_tol=1e-14)

    def test_maximally_mixed(self):
        M = 15
        rho = DensityMatrix(np.eye(M) / M)
        mm = mixed_element_matrix(rho)
        for q in range(M):
            for k in range(M):
                want = cmath.exp(2j * cmath.pi * q * k / M) / (M * math.sqrt(M))
                assert cmath.isclose(mm[q, k], want, abs_tol=1e-13)

    def test_pure_state_matches_density_matrix_path(self):
        state = build_pls(SPLIT_15, 1, 2)
        rho = DensityMatrix.from_state(state)
        mm_state = mixed_element_matrix(state)
        mm_rho = mixed_element_matrix(rho)
        assert np.allclose(mm_state, mm_rho, atol=1e-12)

    def test_matrix_matches_single_elements(self):
        state = momentum_state(6, 2)
        mm = mixed_element_matrix(state)
        rho = DensityMatrix.from_state(state)
        for q in range(6):
            for k in range(6):
                assert cmath.isclose(mm[q, k], brute_mixed_element(rho, q, k), abs_tol=1e-14)

    def test_raw_array_rejected(self):
        # a bare matrix would skip the Hermitian and trace checks of DensityMatrix
        raw = np.eye(15) / 15
        with pytest.raises(ValueError):
            mixed_element_matrix(raw)
        with pytest.raises(ValueError):
            support(raw)
        with pytest.raises(ValueError):
            classify_vn_state(raw, SPLIT_15)


class TestSupport:
    def test_pls_support_is_its_lattice(self):
        pts = support(build_pls(SPLIT_15, 0, 0))
        assert set(pts) == lattice_point_set(VNLattice(SPLIT_15))
        assert len(pts) == 15

    def test_position_state_support_is_column(self):
        pts = support(position_state(15, 0))
        assert set(pts) == {PhasePoint(0, k) for k in range(15)}

    def test_zero_matrix_empty(self):
        assert support(StateVector(np.zeros(6))) == ()

    def test_row_major_ordering(self):
        pts = support(build_pls(SPLIT_15, 0, 0))
        assert list(pts) == sorted(pts)

    def test_threshold_validation(self):
        for threshold in BAD_THRESHOLDS:
            with pytest.raises(ValueError):
                support(position_state(6, 0), threshold=threshold)

    def test_rejects_before_forming_the_matrix(self, monkeypatch):
        def unreachable(rho):
            raise AssertionError("an (M, M) array was formed")

        monkeypatch.setattr(lattice, "mixed_element_matrix", unreachable)
        for threshold in BAD_THRESHOLDS:
            with pytest.raises(ValueError, match="threshold"):
                support(position_state(6, 0), threshold=threshold)
        with pytest.raises(ValueError, match="StateVector or DensityMatrix"):
            support(np.eye(6) / 6)

    def test_default_threshold_value(self):
        assert default_support_threshold(15) == pytest.approx(1e-6 / math.sqrt(15))


class TestClassify:
    def test_recovers_shift(self):
        verdict = classify_vn_state(build_pls(SPLIT_15, 1, 2), SPLIT_15)
        assert isinstance(verdict, VNLattice)
        assert (verdict.shift_q, verdict.shift_k) == (1, 2)

    def test_momentum_state_is_not_vn(self):
        verdict = classify_vn_state(momentum_state(15, 4), SPLIT_15)
        assert isinstance(verdict, NotVN)
        assert verdict.reason == "wrong support geometry"

    def test_empty_support_is_wrong_count(self):
        verdict = classify_vn_state(StateVector(np.zeros(15)), SPLIT_15)
        assert isinstance(verdict, NotVN)
        assert verdict.reason == "wrong count"

    def test_threshold_validation(self):
        state = build_pls(SPLIT_15, 0, 0)
        for threshold in BAD_THRESHOLDS:
            for rho in (state, DensityMatrix.from_state(state)):
                with pytest.raises(ValueError):
                    classify_vn_state(rho, SPLIT_15, threshold=threshold)

    def test_scaled_state_is_non_uniform(self):
        # right geometry, magnitudes 0.5/sqrt(M) instead of 1/sqrt(M)
        state = build_pls(SPLIT_15, 0, 0)
        half = StateVector(math.sqrt(0.5) * state.amplitudes)
        verdict = classify_vn_state(half, SPLIT_15)
        assert isinstance(verdict, NotVN)
        assert verdict.reason == "non-uniform magnitude"

    def test_bijection_all_shifts(self):
        for split in (SPLIT_15, SPLIT_6):
            seen = set()
            for q01 in range(split.M1):
                for k02 in range(split.M2):
                    verdict = classify_vn_state(build_pls(split, q01, k02), split)
                    assert isinstance(verdict, VNLattice)
                    assert (verdict.shift_q, verdict.shift_k) == (q01, k02)
                    seen.add((q01, k02))
            assert len(seen) == split.M

    def test_supports_partition_phase_space(self):
        split = SPLIT_6
        covered = set()
        for q01 in range(split.M1):
            for k02 in range(split.M2):
                pts = set(support(build_pls(split, q01, k02)))
                assert not covered & pts
                covered |= pts
        assert len(covered) == split.M**2

    def test_conjugation_duality(self):
        # the conjugate state classifies under the swapped split with the
        # shift components exchanged
        for q01 in range(3):
            for k02 in range(5):
                conj = conjugate_state(build_pls(SPLIT_15, q01, k02))
                verdict = classify_vn_state(conj, SPLIT_15.swapped())
                assert isinstance(verdict, VNLattice)
                assert (verdict.shift_q, verdict.shift_k) == (k02, q01)

    def test_support_of_another_dimension_is_wrong_geometry(self):
        # a 6-dim state with a threshold between its 15th and 16th largest
        # magnitudes: 15 support points, and every grid entry of the shifted
        # 3x5 lattice that exists in dimension 6 is among them; the lattice
        # lives in dimension 15, so the dimension alone makes it no match
        rng = np.random.default_rng(17)
        raw = rng.normal(size=6) + 1j * rng.normal(size=6)
        state = StateVector(raw / np.linalg.norm(raw))
        mags = np.sort(np.abs(mixed_element_matrix(state)), axis=None)
        threshold = float(mags[-16] + mags[-15]) / 2
        for rho in (state, DensityMatrix.from_state(state)):
            points = {(p.q, p.k) for p in support(rho, threshold)}
            assert len(points) == 15
            q0, k0 = min(points)
            grid = {(q, k) for q in range(q0 % 3, 6, 3) for k in range(k0 % 5, 6, 5)}
            assert len(grid) == 4 and grid <= points
            verdict = classify_vn_state(rho, SPLIT_15, threshold)
            assert isinstance(verdict, NotVN)
            assert verdict.reason == "wrong support geometry"

    def test_wrong_orientation_rejected(self):
        verdict = classify_vn_state(build_pls(SPLIT_15, 0, 0), SPLIT_15.swapped())
        assert isinstance(verdict, NotVN)


class TestFloatLimits:
    """Products |psi(q)| * |psi~(k)| past the float range: an overflowed product is
    inf, above every threshold, an underflowed one 0, and no verdict warns (pytest
    turns every warning into an error)."""

    @pytest.mark.parametrize("kind", ["pls", "random"])
    @pytest.mark.parametrize("threshold", [None, 5e-324, 1e300, 1.7e308])
    @pytest.mark.parametrize("scale", [1e-300, 1e-160, 1e160, 1e300])
    def test_the_count_is_that_of_the_rounded_products(self, scale, threshold, kind):
        rng = np.random.default_rng(7)
        amps = (build_pls(SPLIT_15, 1, 2).amplitudes if kind == "pls"
                else rng.normal(size=15) + 1j * rng.normal(size=15))
        psi = StateVector(scale * amps)
        t = default_support_threshold(15) if threshold is None else threshold
        with np.errstate(over="ignore"):
            products = np.outer(np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes()))
        count = int(np.count_nonzero(products > t))
        verdict = classify_vn_state(psi, SPLIT_15, threshold)
        assert isinstance(verdict, NotVN)
        assert (verdict.reason == "wrong count") == (count != 15)
        if count != 15:
            assert verdict.detail == f"support has {count} points, expected 15"

    def test_overflowed_lattice_magnitudes_fail_the_magnitude_test(self):
        # every lattice product overflows and the roundoff off the lattice stays below t
        psi = StateVector(1e160 * build_pls(SPLIT_15, 1, 2).amplitudes)
        assert classify_vn_state(psi, SPLIT_15, 1.7e308) == NotVN(
            "non-uniform magnitude", "max deviation from 1/sqrt(M) is inf")

    def test_a_nan_magnitude_fails_the_magnitude_test(self, monkeypatch):
        # the record rule of suite._add: a NaN deviation is no pass
        on = np.full((5, 3), 1 / math.sqrt(15))
        on[2, 1] = math.nan
        monkeypatch.setattr(lattice, "_dense_support",
                            lambda rho, t, M1, M2: (15, (1, 2), lambda: (1.0, on)))
        rho = DensityMatrix.from_state(build_pls(SPLIT_15, 1, 2))
        assert classify_vn_state(rho, SPLIT_15) == NotVN(
            "non-uniform magnitude", "max deviation from 1/sqrt(M) is nan")
