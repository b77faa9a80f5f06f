import cmath
import math

import numpy as np
import pytest

from phasecrt.core import StateVector, momentum_state, position_state
from phasecrt.numtheory import NonCoprimeError, crt_compose, enumerate_splits, make_split
from phasecrt.reps import (
    BasisKind,
    RepBasis,
    TorusLabel,
    build_basis,
    build_C1,
    build_C2,
    build_E_mom,
    build_E_pos,
    build_pls,
    compare_cross_phases,
    conjugate_basis,
    conjugate_state,
    eigen_residuals,
    factor_kernel,
    overlap_matrix,
)


def oracle_dft_column(M, k):
    return np.array([cmath.exp(2j * cmath.pi * q * k / M) / math.sqrt(M) for q in range(M)])


def oracle_c1(split, q1, k2):
    M, M1 = split.M, split.M1
    acc = np.zeros(M, dtype=complex)
    for k1 in range(M1):
        k = crt_compose(split, k1, k2)
        acc += cmath.exp(-2j * cmath.pi * k1 * q1 * split.N1 / M1) * oracle_dft_column(M, k)
    return acc / math.sqrt(M1)


def oracle_c2(split, q1, k2):
    M, M2 = split.M, split.M2
    acc = np.zeros(M, dtype=complex)
    for q2 in range(M2):
        q = crt_compose(split, q1, q2)
        acc[q] += cmath.exp(2j * cmath.pi * k2 * q2 * split.N2 / M2)
    return acc / math.sqrt(M2)


def oracle_e_pos(M, M1, q1, k2):
    M2 = M // M1
    acc = np.zeros(M, dtype=complex)
    for q2 in range(M2):
        acc[(q1 + q2 * M1) % M] += cmath.exp(2j * cmath.pi * k2 * q2 / M2)
    return acc / math.sqrt(M2)


def oracle_e_mom(M, M1, q1, k2):
    M2 = M // M1
    acc = np.zeros(M, dtype=complex)
    for k1 in range(M1):
        acc += cmath.exp(-2j * cmath.pi * k1 * q1 / M1) * oracle_dft_column(M, (k2 + k1 * M2) % M)
    return acc / math.sqrt(M1)


def support_of(amps, tol=1e-9):
    return sorted(int(i) for i in np.nonzero(np.abs(amps) > tol)[0])


SPLIT_15 = make_split(15, 3)
SPLIT_6 = make_split(6, 2)


class TestConstructionOracles:
    def test_c1_matches_brute_force(self):
        basis = build_C1(SPLIT_15)
        for label in basis.labels():
            want = oracle_c1(SPLIT_15, label.q1, label.k2)
            assert np.allclose(basis.vector(label.q1, label.k2).amplitudes, want, atol=1e-13)

    def test_c2_matches_brute_force(self):
        for split in (SPLIT_15, SPLIT_6):
            basis = build_C2(split)
            for label in basis.labels():
                want = oracle_c2(split, label.q1, label.k2)
                assert np.allclose(basis.vector(label.q1, label.k2).amplitudes, want, atol=1e-13)

    def test_e_pos_matches_brute_force(self):
        for M, M1 in ((15, 3), (4, 2), (12, 4)):
            basis = build_E_pos(M, M1)
            for label in basis.labels():
                want = oracle_e_pos(M, M1, label.q1, label.k2)
                assert np.allclose(basis.vector(label.q1, label.k2).amplitudes, want, atol=1e-13)

    def test_e_mom_matches_brute_force(self):
        for M, M1 in ((15, 3), (12, 4)):
            basis = build_E_mom(M, M1)
            for label in basis.labels():
                want = oracle_e_mom(M, M1, label.q1, label.k2)
                assert np.allclose(basis.vector(label.q1, label.k2).amplitudes, want, atol=1e-13)


class TestOrthonormality:
    @pytest.mark.parametrize("builder", [build_C1, build_C2])
    @pytest.mark.parametrize("split", [SPLIT_15, SPLIT_6], ids=["15", "6"])
    def test_c_bases(self, builder, split):
        assert builder(split).gram_residual() < 1e-9

    @pytest.mark.parametrize("builder", [build_E_pos, build_E_mom])
    @pytest.mark.parametrize("M, M1", [(15, 3), (4, 2), (12, 4), (12, 6)])
    def test_e_bases_with_and_without_coprimality(self, builder, M, M1):
        basis = builder(M, M1)
        assert basis.gram_residual() < 1e-9
        assert len(list(basis.labels())) == M

    def test_gram_via_pairwise_overlaps(self):
        basis = build_C2(SPLIT_6)
        vecs = list(basis.items())
        for i, (_, v) in enumerate(vecs):
            for j, (_, w) in enumerate(vecs):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(v.amplitudes, w.amplitudes) - want) < 1e-12


class TestEigenRelations:
    @pytest.mark.parametrize("make", [
        lambda: build_C1(SPLIT_15),
        lambda: build_C2(SPLIT_15),
        lambda: build_E_pos(15, 3),
        lambda: build_E_mom(15, 3),
        lambda: build_E_pos(4, 2),
        lambda: build_E_mom(12, 4),
    ])
    def test_residuals_small(self, make):
        assert eigen_residuals(make()) < 1e-9

    def test_against_dense_operators(self):
        # independent check: multiply by explicitly built dense matrices
        M, M1, M2 = 15, 3, 5
        cl = np.diag([cmath.exp(2j * cmath.pi * q / M1) for q in range(M)])
        tr = np.zeros((M, M), dtype=complex)
        for q in range(M):
            tr[(q - M1) % M, q] = 1.0  # step by L2 = M1
        basis = build_C2(SPLIT_15)
        for label, vec in basis.items():
            v = vec.amplitudes
            assert np.allclose(cl @ v, cmath.exp(2j * cmath.pi * label.q1 / M1) * v, atol=1e-12)
            assert np.allclose(tr @ v, cmath.exp(2j * cmath.pi * label.k2 / M2) * v, atol=1e-12)


class TestC2Structure:
    def test_origin_vector_support(self):
        v = build_C2(SPLIT_15).vector(0, 0)
        assert support_of(v.amplitudes) == [0, 3, 6, 9, 12]
        on = np.abs(v.amplitudes[[0, 3, 6, 9, 12]])
        assert np.allclose(on, 1 / math.sqrt(5), atol=1e-12)

    def test_c1_equals_c2_vector_for_vector(self):
        c1, c2 = build_C1(SPLIT_15), build_C2(SPLIT_15)
        for label in c1.labels():
            z = np.vdot(c1.vector(label.q1, label.k2).amplitudes,
                        c2.vector(label.q1, label.k2).amplitudes)
            assert abs(z - 1.0) < 1e-9


class TestPls:
    def test_equals_c2_vector(self):
        for M in (6, 10, 12, 15, 21, 35, 210, 667):
            for canonical in enumerate_splits(M):
                for split in (canonical, canonical.swapped()):
                    c2 = build_C2(split)
                    for label in c2.labels():
                        pls = build_pls(split, label.q1, label.k2)
                        assert np.array_equal(pls.amplitudes,
                                              c2.vector(label.q1, label.k2).amplitudes)

    def test_support_is_position_residue_class(self):
        pls = build_pls(SPLIT_15, 1, 2)
        assert support_of(pls.amplitudes) == [q for q in range(15) if q % 3 == 1]

    def test_torus_amplitude_formula(self):
        # amplitude at crt(q1, q2) is Delta(q1 - q01) * omega_M2^(k02*q2*N2)/sqrt(M2)
        s = SPLIT_15
        for q01 in range(s.M1):
            for k02 in range(s.M2):
                pls = build_pls(s, q01, k02)
                for q1 in range(s.M1):
                    for q2 in range(s.M2):
                        got = pls.amplitudes[crt_compose(s, q1, q2)]
                        if q1 != q01:
                            assert got == 0
                        else:
                            want = cmath.exp(2j * cmath.pi * k02 * q2 * s.N2 / s.M2) / math.sqrt(s.M2)
                            assert cmath.isclose(got, want, abs_tol=1e-13)

    def test_orthonormal_family(self):
        s = SPLIT_6
        states = [build_pls(s, q01, k02) for q01 in range(s.M1) for k02 in range(s.M2)]
        for i, v in enumerate(states):
            for j, w in enumerate(states):
                want = 1.0 if i == j else 0.0
                assert abs(np.vdot(v.amplitudes, w.amplitudes) - want) < 1e-12

    def test_label_ranges(self):
        with pytest.raises(ValueError):
            build_pls(SPLIT_15, 3, 0)
        with pytest.raises(ValueError):
            build_pls(SPLIT_15, 0, 5)


class TestEPosStructure:
    def test_origin_support_is_m1_multiples(self):
        basis = build_E_pos(15, 3)
        v = basis.vector(0, 0)
        assert support_of(v.amplitudes) == [0, 3, 6, 9, 12]
        assert np.allclose(np.abs(v.amplitudes[::3]), 1 / math.sqrt(5), atol=1e-12)


class TestConjugation:
    def test_involution_is_exact(self):
        rng = np.random.default_rng(21)
        raw = rng.normal(size=15) + 1j * rng.normal(size=15)
        v = StateVector(raw / np.linalg.norm(raw), normalized=True)
        w = conjugate_state(conjugate_state(v))
        assert np.allclose(w.amplitudes, v.amplitudes, atol=1e-13)

    def test_swaps_supports(self):
        v = build_C2(SPLIT_15).vector(0, 0)
        w = conjugate_state(v)
        # the original k-support lands on the q axis and vice versa
        assert support_of(w.amplitudes) == [0, 5, 10]
        assert support_of(w.momentum_amplitudes()) == [0, 3, 6, 9, 12]
        assert support_of(v.momentum_amplitudes()) == [0, 5, 10]

    def test_conjugate_basis_relabels_and_stays_orthonormal(self):
        basis = build_C2(SPLIT_15)
        conj = conjugate_basis(basis)
        assert (conj.M1, conj.M2) == (5, 3)
        assert conj.conjugated
        assert conj.gram_residual() < 1e-9
        assert eigen_residuals(conj) < 1e-9
        want = conjugate_state(basis.vector(1, 2)).amplitudes
        assert np.allclose(conj.vector(2, 1).amplitudes, want)

    def test_double_conjugate_restores_basis(self):
        basis = build_E_mom(15, 3)
        back = conjugate_basis(conjugate_basis(basis))
        assert (back.M1, back.M2) == (basis.M1, basis.M2)
        assert not back.conjugated
        for label in basis.labels():
            assert np.allclose(back.vector(label.q1, label.k2).amplitudes,
                               basis.vector(label.q1, label.k2).amplitudes, atol=1e-13)


class TestFactorKernel:
    def test_zero_labels(self):
        s = SPLIT_15
        assert factor_kernel(s, 0, 2) == pytest.approx(1 / math.sqrt(3))
        assert factor_kernel(s, 2, 0) == pytest.approx(1 / math.sqrt(3))

    def test_unit_labels(self):
        # N1 = 2, so the exponent is -2 mod 3
        want = cmath.exp(-2j * cmath.pi * 2 / 3) / math.sqrt(3)
        assert factor_kernel(SPLIT_15, 1, 1) == pytest.approx(want)

    def test_range(self):
        with pytest.raises(ValueError):
            factor_kernel(SPLIT_15, 3, 0)
        with pytest.raises(ValueError):
            factor_kernel(SPLIT_15, 0, -1)

    def test_product_identity_all_labels(self):
        # <k|q> = <k1|q1><k2|q2> for CRT labels, all 15^2 pairs
        s = SPLIT_15
        sw = s.swapped()
        for q1 in range(s.M1):
            for q2 in range(s.M2):
                q = crt_compose(s, q1, q2)
                for k1 in range(s.M1):
                    for k2 in range(s.M2):
                        k = crt_compose(s, k1, k2)
                        brute = cmath.exp(-2j * cmath.pi * q * k / s.M) / math.sqrt(s.M)
                        split_form = factor_kernel(s, k1, q1) * factor_kernel(sw, k2, q2)
                        assert cmath.isclose(brute, split_form, abs_tol=1e-12)


class TestOverlapTables:
    def test_table_matches_pairwise_overlaps(self):
        c1, c2 = build_C1(SPLIT_6), build_C2(SPLIT_6)
        table = overlap_matrix(c1, c2)
        assert table.shape == (6, 6)
        labels_a, labels_b = list(c1.labels()), list(c2.labels())
        for i, la in enumerate(labels_a):
            for j, lb in enumerate(labels_b):
                want = np.vdot(c1.vector(la.q1, la.k2).amplitudes,
                               c2.vector(lb.q1, lb.k2).amplitudes)
                assert abs(table[i, j] - want) < 1e-13

    def test_all_pairs_have_modulus_zero_or_one(self):
        bases = [build_C1(SPLIT_15), build_C2(SPLIT_15),
                 build_E_mom(15, 3), build_E_pos(15, 3)]
        for a in bases:
            for b in bases:
                g = np.abs(overlap_matrix(a, b))
                assert np.all((g < 1e-9) | (np.abs(g - 1) < 1e-9))

    def test_c1_c2_table_is_identity(self):
        g = overlap_matrix(build_C1(SPLIT_15), build_C2(SPLIT_15))
        assert np.max(np.abs(g - np.eye(15))) < 1e-9


class TestCrossPhaseComparator:
    def test_statuses_at_15(self):
        c1, c2 = build_C1(SPLIT_15), build_C2(SPLIT_15)
        em, ep = build_E_mom(15, 3), build_E_pos(15, 3)
        assert compare_cross_phases(c1, c2).status == "pass"
        assert compare_cross_phases(c1, em).status == "pass"
        assert compare_cross_phases(c2, ep).status == "pass"
        assert compare_cross_phases(em, ep).status == "discrepancy"

    def test_emom_epos_measured_exponent_is_minus_k2_q1(self):
        # brute force gives omega_M^(-k2*q1) on the diagonal; the claimed
        # closed form carries the opposite sign, hence the discrepancy records
        em, ep = build_E_mom(15, 3), build_E_pos(15, 3)
        cmp = compare_cross_phases(em, ep)
        g = overlap_matrix(em, ep)
        labels = list(em.labels())
        for i, label in enumerate(labels):
            angle = np.angle(g[i, i]) * 15 / (2 * np.pi)
            assert round(angle) % 15 == (-label.k2 * label.q1) % 15
        recorded = {d.label for d in cmp.discrepancies}
        expected = {l for l in labels if (2 * l.k2 * l.q1) % 15 != 0}
        assert recorded == expected

    def test_c2_epos_diagonal_phase_example(self):
        # at (q1=1, k2=1) the phase is omega_5^(-1*1*2)
        c2, ep = build_C2(SPLIT_15), build_E_pos(15, 3)
        g = overlap_matrix(c2, ep)
        labels = list(c2.labels())
        i = labels.index(TorusLabel(1, 1))
        want = cmath.exp(-2j * cmath.pi * 2 / 5)
        assert cmath.isclose(complex(g[i, i]), want, abs_tol=1e-12)

    def test_comparator_requires_known_pair(self):
        c1 = build_C1(SPLIT_15)
        ep = build_E_pos(15, 3)
        with pytest.raises(ValueError):
            compare_cross_phases(c1, ep)


class TestBuildDispatch:
    def test_kinds(self):
        assert build_basis(BasisKind.C1, 15, 3).kind is BasisKind.C1
        assert build_basis(BasisKind.E_POS, 4, 2).kind is BasisKind.E_POS

    def test_non_coprime_c_kind_refused(self):
        with pytest.raises(NonCoprimeError):
            build_basis(BasisKind.C1, 4, 2)
        with pytest.raises(NonCoprimeError):
            build_basis(BasisKind.C2, 12, 2)

    def test_split_follows_orientation(self):
        for M in (6, 15, 210):
            for split in enumerate_splits(M):
                assert build_C2(split).split == split
                assert conjugate_basis(build_C2(split)).split == split.swapped()
                assert build_C2(split.swapped()).split == split.swapped()
        assert build_E_pos(12, 2).split is None

    def test_vectors_property_and_label_checks(self):
        basis = build_E_pos(6, 2)
        vecs = dict(basis.items())
        assert set(vecs) == set(basis.labels())
        with pytest.raises(ValueError):
            basis.vector(2, 0)
        with pytest.raises(ValueError):
            basis.vector(0, 3)

    def test_keeps_a_read_only_view_of_the_callers_amplitudes(self):
        amps = np.zeros((2, 3, 6), dtype=complex)
        basis = RepBasis(BasisKind.E_POS, 2, 3, amps)
        assert amps.flags.writeable  # the caller's array keeps its flags
        assert np.shares_memory(basis.as_matrix(), amps)  # and is not copied
        with pytest.raises(ValueError):
            basis.as_matrix()[0, 0] = 1
