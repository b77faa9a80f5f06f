import cmath
import json
import math
import sys

import numpy as np
import pytest

from phasecrt import core
from phasecrt.core import (
    DimensionMismatchError,
    MonomialOperator,
    StateVector,
    _apply_rows,
    _fourier_conjugate,
    _roots,
    apply,
    clock,
    compose,
    equal_up_to_global_phase,
    fourier_matrix,
    global_phase_exponent,
    momentum_state,
    omega_power,
    operator_order,
    phase_exponent,
    position_state,
    translate,
)
from phasecrt.suite import run_suite


def dense_clock(M, d):
    # oracle: diagonal exp(2*pi*i*q/d) built with cmath, no shared code
    mat = np.zeros((M, M), dtype=complex)
    for q in range(M):
        mat[q, q] = cmath.exp(2j * cmath.pi * q / d)
    return mat


def dense_translate(M, L):
    # oracle: |q> -> |q - L>, i.e. column q has its 1 in row (q - L) mod M
    mat = np.zeros((M, M), dtype=complex)
    for q in range(M):
        mat[(q - L) % M, q] = 1.0
    return mat


def dense_dft(M):
    # oracle for <q|k>, explicit loops
    mat = np.zeros((M, M), dtype=complex)
    for q in range(M):
        for k in range(M):
            mat[q, k] = cmath.exp(2j * cmath.pi * q * k / M) / math.sqrt(M)
    return mat


class TestStateVector:
    def test_position_state_examples(self):
        v = position_state(15, 3)
        assert v.amplitudes[3] == 1.0
        assert np.count_nonzero(v.amplitudes) == 1
        assert position_state(2, 0).amplitudes.tolist() == [1.0, 0.0]
        assert np.linalg.norm(v.amplitudes) == 1.0

    def test_momentum_state_examples(self):
        v = momentum_state(2, 1)
        assert np.allclose(v.amplitudes, [1 / math.sqrt(2), -1 / math.sqrt(2)])
        assert np.allclose(momentum_state(5, 0).amplitudes, np.full(5, 1 / math.sqrt(5)))
        w = momentum_state(15, 2)
        assert np.allclose(np.abs(w.amplitudes), 1 / math.sqrt(15))

    def test_momentum_state_matches_oracle(self):
        F = dense_dft(15)
        for k in range(15):
            assert np.allclose(momentum_state(15, k).amplitudes, F[:, k], atol=1e-14)

    def test_fourier_matrix_matches_oracle(self):
        assert np.allclose(fourier_matrix(12), dense_dft(12), atol=1e-14)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            StateVector([1.0, bad])

    @pytest.mark.parametrize("bad", [object(), {}])
    def test_rejects_entries_that_are_not_numbers(self, bad):
        # numpy raises TypeError for these; the package's error is a ValueError
        with pytest.raises(ValueError, match="amplitudes must be numbers"):
            StateVector([bad, 1])

    def test_rejects_short_or_multidim(self):
        with pytest.raises(ValueError):
            StateVector([1.0])
        with pytest.raises(ValueError):
            StateVector([[1.0, 0.0], [0.0, 1.0]])

    def test_label_ranges(self):
        with pytest.raises(ValueError):
            position_state(15, 15)
        with pytest.raises(ValueError):
            momentum_state(15, -1)

    def test_momentum_amplitudes_against_oracle(self):
        rng = np.random.default_rng(7)
        v = StateVector(rng.normal(size=9) + 1j * rng.normal(size=9))
        F = dense_dft(9)
        want = F.conj().T @ v.amplitudes  # <k|psi> = sum_q conj(<q|k>) psi_q
        assert np.allclose(v.momentum_amplitudes(), want, atol=1e-13)

    def test_momentum_amplitudes_are_one_read_only_dft(self):
        rng = np.random.default_rng(8)
        v = StateVector(rng.normal(size=15) + 1j * rng.normal(size=15))
        first = v.momentum_amplitudes()
        assert v.momentum_amplitudes() is first
        assert not first.flags.writeable
        want = np.fft.fft(v.amplitudes) / math.sqrt(15)
        assert first.tobytes() == want.tobytes()


class TestMub:
    def test_all_position_momentum_overlaps(self):
        M = 15
        target = 1 / math.sqrt(M)
        for q0 in range(M):
            for k0 in range(M):
                z = np.vdot(position_state(M, q0).amplitudes, momentum_state(M, k0).amplitudes)
                assert abs(abs(z) - target) < 1e-12 * math.sqrt(M)


class TestOperators:
    def test_clock_full_is_the_generating_diagonal(self):
        u = clock(15, 15)
        assert (u.shift, u.phase_slope, u.phase_offset) == (0, 1, 0)
        for q in range(15):
            got = apply(u, position_state(15, q)).amplitudes[q]
            assert cmath.isclose(got, cmath.exp(2j * cmath.pi * q / 15))

    def test_clock_divisor_phase(self):
        # exponent arithmetic: 4*5 mod 15 = 5
        got = apply(clock(15, 3), position_state(15, 4)).amplitudes[4]
        assert cmath.isclose(got, cmath.exp(2j * cmath.pi * 5 / 15))

    def test_clock_identity_and_errors(self):
        assert clock(8, 1).is_identity()
        with pytest.raises(ValueError):
            clock(15, 4)
        with pytest.raises(ValueError):
            clock(15, 0)

    def test_translate_examples(self):
        v = apply(translate(15, 1), position_state(15, 0))
        assert v.amplitudes[14] == 1.0
        assert translate(9, 0).is_identity()
        with pytest.raises(ValueError):
            translate(15, 15)

    def test_translate_momentum_eigenvalue_against_dense(self):
        M = 12
        for L in range(M):
            mat = dense_translate(M, L)
            for k in range(M):
                v = momentum_state(M, k)
                want = mat @ v.amplitudes
                got = apply(translate(M, L), v).amplitudes
                assert np.allclose(got, want, atol=1e-14)
                ratio = got[0] / v.amplitudes[0]
                assert cmath.isclose(ratio, cmath.exp(2j * cmath.pi * k * L / M))

    def test_monomial_matrix_matches_oracles(self):
        assert np.allclose(clock(10, 5).matrix(), dense_clock(10, 5), atol=1e-14)
        assert np.allclose(translate(10, 3).matrix(), dense_translate(10, 3))

    @pytest.mark.parametrize("field", ["dim", "shift", "phase_slope", "phase_offset"])
    def test_monomial_operator_holds_integers_only(self, field):
        fields = {"dim": 15, "shift": 4, "phase_slope": 7, "phase_offset": 2}
        for bad in (fields[field] + 0.5, float(fields[field]), np.float64(fields[field]), True):
            with pytest.raises(ValueError, match="integers only"):
                MonomialOperator(**{**fields, field: bad})
        op = MonomialOperator(**{**fields, field: np.int64(fields[field])})
        assert op == MonomialOperator(**fields)


class TestCompose:
    def test_commutator_global_phase(self):
        M = 15
        u, v = clock(M, M), translate(M, 1)
        uv, vu = compose(u, v), compose(v, u)
        assert equal_up_to_global_phase(uv, vu)
        assert global_phase_exponent(uv, vu) == (-1) % M
        assert uv != vu

    def test_identity_neutral(self):
        a = MonomialOperator(15, 4, 7, 2)
        e = MonomialOperator(15)
        assert compose(a, e) == a
        assert compose(e, a) == a

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            compose(clock(6, 6), clock(10, 10))

    def test_matches_dense_product(self):
        rng = np.random.default_rng(3)
        for M in (6, 15):
            for _ in range(25):
                a = MonomialOperator(M, *rng.integers(0, M, size=3))
                b = MonomialOperator(M, *rng.integers(0, M, size=3))
                want = a.matrix() @ b.matrix()
                assert np.allclose(compose(a, b).matrix(), want, atol=1e-13)

    def test_inverse_dressed_splitting(self):
        # clock(15,3)**2 * clock(15,5)**2 recovers clock(15,15); same for steps
        M = 15
        assert compose(clock(M, 3) ** 2, clock(M, 5) ** 2) == clock(M, M)
        assert compose(translate(M, 5) ** 2, translate(M, 3) ** 2) == translate(M, 1)

    def test_plain_factor_product_is_relabeled_generator(self):
        # without the inverse dressing the product has slope M1 + M2, not 1
        M = 15
        plain = compose(clock(M, 3), clock(M, 5))
        assert plain != clock(M, M)
        assert plain == clock(M, M) ** 8
        assert operator_order(plain) == M

    def test_long_random_composition_matches_dense_product(self):
        M = 15
        rng = np.random.default_rng(11)
        total = MonomialOperator(M)
        dense = np.eye(M, dtype=complex)
        for _ in range(10_000):
            op = MonomialOperator(M, *rng.integers(0, M, size=3))
            total = compose(op, total)
            dense = op.matrix() @ dense
        assert np.max(np.abs(total.matrix() - dense)) < 1e-9 * math.sqrt(M)


class TestPowersAndOrder:
    def test_power_closed_form_matches_iteration(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            a = MonomialOperator(12, *rng.integers(0, 12, size=3))
            acc = MonomialOperator(12)
            for n in range(8):
                assert a.power(n) == acc
                acc = compose(a, acc)

    def test_inverse(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            a = MonomialOperator(10, *rng.integers(0, 10, size=3))
            assert compose(a, a.power(-1)).is_identity()
            assert compose(a.power(-1), a).is_identity()
            assert a.power(-3) == a.power(-1).power(3)
            assert compose(a.power(3), a.power(-3)).is_identity()

    def test_minimal_periods(self):
        assert operator_order(clock(15, 15)) == 15
        assert operator_order(translate(15, 1)) == 15
        assert operator_order(MonomialOperator(15)) == 1

    def test_order_can_exceed_dim(self):
        # at M = 2 the product UV has order 4: the cross term delays the offset
        uv = compose(clock(2, 2), translate(2, 1))
        assert operator_order(uv) == 4

    def test_order_matches_dense_oracle(self):
        rng = np.random.default_rng(13)
        M = 6
        for _ in range(10):
            a = MonomialOperator(M, *rng.integers(0, M, size=3))
            mat = a.matrix()
            acc = np.eye(M, dtype=complex)
            dense_order = None
            for n in range(1, 2 * M * M + 1):
                acc = mat @ acc
                if np.allclose(acc, np.eye(M), atol=1e-10):
                    dense_order = n
                    break
            assert operator_order(a) == dense_order

    def test_order_matches_brute_force_scan(self):
        # every monomial operator up to dim 12 against a composition scan to 2*dim**2
        for dim in range(2, 13):
            for s in range(dim):
                for a in range(dim):
                    for b in range(dim):
                        op = MonomialOperator(dim, s, a, b)
                        acc, n = op, 1
                        while not acc.is_identity():
                            acc, n = compose(op, acc), n + 1
                            assert n <= 2 * dim * dim
                        assert operator_order(op) == n


class TestFourierConjugate:
    def test_every_operator_up_to_dim_12_is_its_dense_fourier_conjugate(self):
        # the eigen relations act on momentum combs through F^H op F
        for dim in range(2, 13):
            F = fourier_matrix(dim)
            for s in range(dim):
                for a in range(dim):
                    for b in range(dim):
                        op = MonomialOperator(dim, s, a, b)
                        np.testing.assert_allclose(_fourier_conjugate(op).matrix(),
                                                   F.conj().T @ op.matrix() @ F,
                                                   rtol=0, atol=1e-12)


class TestApply:
    def test_clock_raises_momentum_label(self):
        M = 15
        u = clock(M, M)
        for k in range(M):
            got = apply(u, momentum_state(M, k)).amplitudes
            want = momentum_state(M, (k + 1) % M).amplitudes
            assert np.allclose(got, want, atol=1e-14)

    def test_translate_lowers_position_label(self):
        M = 15
        v = translate(M, 1)
        for q in range(M):
            got = apply(v, position_state(M, q)).amplitudes
            want = position_state(M, (q - 1) % M).amplitudes
            assert np.array_equal(got, want)

    def test_identity_apply(self):
        v = momentum_state(8, 3)
        assert np.array_equal(apply(MonomialOperator(8), v).amplitudes, v.amplitudes)

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            apply(clock(6, 6), position_state(8, 0))


class TestPhaseHelpers:
    def test_omega_power_scalar_and_array(self):
        assert omega_power(4, 1) == pytest.approx(1j)
        assert omega_power(4, -1) == pytest.approx(-1j)
        arr = omega_power(4, np.array([0, 1, 2, 3]))
        assert np.allclose(arr, [1, 1j, -1, -1j])

    def test_phase_exponent(self):
        n, res = phase_exponent(cmath.exp(2j * cmath.pi * 7 / 15), 15)
        assert n == 7 and res < 1e-12
        n, res = phase_exponent(cmath.exp(-2j * cmath.pi * 2 / 15), 15)
        assert n == 13 and res < 1e-12


def reference_omega_power(M, exponent):
    # oracle: one complex exp per entry of the exponent reduced mod M
    e = np.asarray(exponent) % M
    out = np.exp((2j * np.pi / M) * e)
    return complex(out) if e.ndim == 0 else out


def reference_apply_rows(op, amps):
    # oracle: each phase times amplitude scattered from q into q - shift
    M = op.dim
    q = np.arange(M)
    out = np.empty(amps.shape, dtype=np.complex128)
    phases = reference_omega_power(M, op.phase_slope * q + op.phase_offset)
    out[..., (q - op.shift) % M] = phases * amps
    return out


def as_bytes(z):
    # tobytes tells -0.0 from 0.0, which == and np.array_equal do not
    return np.asarray(z, dtype=np.complex128).tobytes()


class TestRootTable:
    @pytest.mark.parametrize("M", [2, 3, 210, 330, 667, 2310])
    def test_omega_power_is_the_exp_of_the_reduced_exponent_bit_for_bit(self, M):
        residues = np.arange(M)
        negative = np.arange(-3 * M, 0)
        grid = np.outer(np.arange(-M, M, 7), np.arange(-4, 5))
        for e in (residues, negative, grid):
            got = omega_power(M, e)
            assert got.shape == e.shape
            assert as_bytes(got) == as_bytes(reference_omega_power(M, e))
        for e in (0, 1, -1, M - 1, 7 * M + 2, -5 * M - 3):
            got = omega_power(M, e)
            assert type(got) is complex
            assert as_bytes(got) == as_bytes(reference_omega_power(M, e))

    def test_the_shared_table_is_read_only(self):
        roots = _roots(15)
        with pytest.raises(ValueError):
            roots[0] = 0
        e = np.arange(15)
        omega_power(15, e)[:] = 0  # a result is a copy, not a view of the table
        assert _roots(15) is roots
        assert as_bytes(omega_power(15, e)) == as_bytes(reference_omega_power(15, e))

    @pytest.mark.parametrize("exponent",
                             [1.0, 2.5, np.float64(3.0), np.array([0.0, 1.5]), np.arange(4.0)])
    def test_omega_power_refuses_a_non_integer_exponent(self, exponent):
        with pytest.raises(ValueError, match="integer"):
            omega_power(4, exponent)

    @pytest.mark.parametrize("M", [2, 15, 210])
    def test_apply_rows_is_the_scatter_bit_for_bit(self, M):
        rng = np.random.default_rng(M)
        ops = [MonomialOperator(M), clock(M, M), translate(M, 1),
               MonomialOperator(M, 0, *rng.integers(M, size=2))]
        ops += [MonomialOperator(M, *rng.integers(-M, 2 * M, size=3)) for _ in range(8)]
        assert any(op.shift == 0 for op in ops) and any(op.shift != 0 for op in ops)
        for shape in ((M,), (2, 3, M)):
            amps = rng.normal(size=shape) + 1j * rng.normal(size=shape)
            amps[..., ::3] = 0.0
            amps.real[..., 1::4] = -0.0
            for op in ops:
                got = _apply_rows(op, amps)
                assert got.shape == shape
                assert as_bytes(got) == as_bytes(reference_apply_rows(op, amps))

    @pytest.mark.parametrize("M", [15, 30, 210])
    def test_suite_report_floats_match_the_exp_and_scatter_oracles(self, M, monkeypatch):
        def report():
            doc = run_suite(M).to_dict()
            del doc["duration_seconds"]
            return json.dumps(doc)

        shipped = report()
        patched = set()
        references = {"omega_power": reference_omega_power, "_apply_rows": reference_apply_rows}
        for name, ref in references.items():
            original = getattr(core, name)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name.split(".")[0] == "phasecrt" and getattr(mod, name, None) is original:
                    monkeypatch.setattr(mod, name, ref)
                    patched.add((mod_name, name))
        # reps applies the eigen relations to comb coefficients, without _apply_rows
        assert {("phasecrt.core", "omega_power"), ("phasecrt.reps", "omega_power"),
                ("phasecrt.suite", "omega_power"), ("phasecrt.core", "_apply_rows"),
                ("phasecrt.suite", "_apply_rows")} <= patched
        assert report() == shipped
