"""Each row corrupts one construction the suite reads, and names the checks it kills.

A row monkeypatches one name in a module (phasecrt.suite, or phasecrt.reps for
the operators the eigen relations read), runs the suite at M = 15 and 35 (one
split each, 3x5 and 5x7), and lists the check ids that must fail, for both or
for each M.
Every failing float record must name where its worst value sits ("worst at"
in its note), and every other id keeps its status in tests/golden/w1.json.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from phasecrt import reps, suite
from phasecrt.core import MonomialOperator, StateVector
from phasecrt.numtheory import crt_grid, make_split
from phasecrt.reps import BasisKind
from phasecrt.suite import run_suite

GOLDEN = {report["M"]: {c["id"]: c["status"] for c in report["checks"]}
          for report in json.loads((Path(__file__).parent / "golden" / "w1.json").read_text())
          ["reports"]}

real_factor_kernel, real_fourier_rows = suite.factor_kernel, suite._fourier_rows
real_build_basis, real_build_pls = suite.build_basis, suite.build_pls
real_translate = reps.translate


def sign_flipped_kernel(split, k, q):
    """<k1|q1> with the sign of its exponent flipped, in both factors."""
    return np.conj(real_factor_kernel(split, k, q))


def scaled_fourier_rows(M, rows):
    """Rows of the Fourier matrix with its entry (2, 3) times 1.5."""
    F = real_fourier_rows(M, rows)
    F[rows == 2, 3] *= 1.5
    return F


def rephased_c2(kind, M, M1):
    """C2 with one amplitude of vector (1, 2) times 1j; still a comb on its classes."""
    basis = real_build_basis(kind, M, M1)
    if kind is not BasisKind.C2:
        return basis
    amps = basis.as_matrix().T.reshape(basis.M1, basis.M2, basis.M).copy()
    amps[1, 2, np.flatnonzero(amps[1, 2])[0]] *= 1j
    return reps._comb_basis(kind, amps, "position", basis._comb[1])


def c1_with_n1_plus_one(kind, M, M1):
    """C1 built with the inverse co-factor N1 + 1 in place of N1: a momentum comb with
    the wrong phase table, whose rows are read from its coefficients alone."""
    if kind is not BasisKind.C1:
        return real_build_basis(kind, M, M1)
    split = make_split(M, M1)
    return reps._comb(kind, "momentum", crt_grid(split), split.N1 + 1)


def unconjugated_state(state):
    """The momentum amplitudes of state as positions, without the complex conjugation."""
    return StateVector(state.momentum_amplitudes(), normalized=state.normalized)


def rephased_pls(split, q01, k02):
    """PLS (1, 2) with one amplitude times 1j; every other PLS as built."""
    state = real_build_pls(split, q01, k02)
    if (q01, k02) != (1, 2):
        return state
    amps = np.array(state.amplitudes)
    amps[np.flatnonzero(amps)[0]] *= 1j
    return StateVector(amps, normalized=True)


def clock_exponent_off_by_one(M, d):
    """clock(M, d) with the slope M/d + 1."""
    return MonomialOperator(M, phase_slope=M // d + 1)


def translate_step_off_by_one(M, L):
    """translate(M, L) one step further, by L + 1."""
    return real_translate(M, (L + 1) % M)


EIGEN = ["basis.eigen.C1[{d}]", "basis.eigen.C2[{d}]", "basis.eigen.Epos[{d}]",
         "basis.eigen.Emom[{d}]"]

# row: (the module and the name in it that it replaces, the replacement, the ids it
# kills, or per M the ids it kills; {d} is the split)
ROWS = {
    "factor_kernel sign flip": (suite, "factor_kernel", sign_flipped_kernel,
                                ["kernel.product[{d}]", "kernel.label-form[{d}]"]),
    # the suite reads F in row blocks, so the row reader is what it corrupts
    "fourier_matrix entry scaled": (suite, "_fourier_rows", scaled_fourier_rows,
                                    ["fourier.mub", "operators.shift.momentum-raise"]),
    "C2 amplitude re-phased": (suite, "build_basis", rephased_c2,
                               ["basis.gram.C2[{d}]", "basis.eigen.C2[{d}]",
                                "basis.c1c2-identity[{d}]", "overlap.phase.C1-C2[{d}]",
                                "overlap.phase.C2-Epos[{d}]"]),
    # N1 + 1 = 3 = 0 mod 3 at 3x5: one constant phase per class, so C1's Gram fails too;
    # N1 + 1 = 4 is a unit mod 5 at 5x7: C1 stays orthonormal, with the wrong eigenvalues
    "C1 built with N1 + 1": (suite, "build_basis", c1_with_n1_plus_one, {
        15: ["basis.gram.C1[{d}]", "basis.eigen.C1[{d}]", "basis.c1c2-identity[{d}]",
             "overlap.phase.C1-C2[{d}]", "overlap.phase.C1-Emom[{d}]"],
        35: ["basis.eigen.C1[{d}]", "basis.c1c2-identity[{d}]", "overlap.phase.C1-C2[{d}]",
             "overlap.phase.C1-Emom[{d}]"]}),
    # the eigen relations read both operators; on a momentum comb through F^H op F,
    # where the clock shifts and the translate multiplies
    "an off-by-one clock exponent": (reps, "clock", clock_exponent_off_by_one, EIGEN),
    "an off-by-one translate step": (reps, "translate", translate_step_off_by_one, EIGEN),
    # each conjugate is classified on its own transform, not on its PLS's
    "conjugate_state without conjugation": (suite, "conjugate_state", unconjugated_state,
                                            ["conjugate.duality[{d}]"]),
    "PLS amplitude re-phased": (suite, "build_pls", rephased_pls,
                                ["pls.orthonormal[{d}]", "pls.lattice-bijection[{d}]",
                                 "conjugate.duality[{d}]", "lattice.area[{d}]"]),
}


@pytest.mark.parametrize("M", [15, 35])
@pytest.mark.parametrize("row", ROWS)
def test_a_corruption_fails_exactly_its_checks(row, M, monkeypatch):
    module, name, replacement, kills = ROWS[row]
    kills = kills[M] if isinstance(kills, dict) else kills
    monkeypatch.setattr(module, name, replacement)
    report = run_suite(M)
    (d,) = report.splits
    killed = {check_id.format(d=d) for check_id in kills}
    assert {c.check_id for c in report.checks if c.status == "fail"} == killed
    for c in report.checks:
        if c.check_id not in killed:
            assert c.status == GOLDEN[M][c.check_id], c.check_id
        elif isinstance(c.measured, float):
            assert "worst at (" in c.note, c.check_id
    assert [c.check_id for c in report.checks] == list(GOLDEN[M])
