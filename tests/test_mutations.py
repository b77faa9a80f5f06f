"""Each row corrupts one construction the suite reads, and names the checks it kills.

A row monkeypatches one name in phasecrt.suite, runs the suite at M = 15 and
35 (one split each, 3x5 and 5x7), and lists the check ids that must fail.
Every failing float record must name where its worst value sits ("worst at"
in its note), and every other id keeps its status in tests/golden/w1.json.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from phasecrt import reps, suite
from phasecrt.core import StateVector
from phasecrt.reps import BasisKind
from phasecrt.suite import run_suite

GOLDEN = {report["M"]: {c["id"]: c["status"] for c in report["checks"]}
          for report in json.loads((Path(__file__).parent / "golden" / "w1.json").read_text())
          ["reports"]}

real_factor_kernel, real_fourier_matrix = suite.factor_kernel, suite.fourier_matrix
real_build_basis, real_build_pls = suite.build_basis, suite.build_pls


def sign_flipped_kernel(split, k, q):
    """<k1|q1> with the sign of its exponent flipped, in both factors."""
    return np.conj(real_factor_kernel(split, k, q))


def scaled_fourier_matrix(M):
    F = real_fourier_matrix(M)
    F[2, 3] *= 1.5
    return F


def rephased_c2(kind, M, M1):
    """C2 with one amplitude of vector (1, 2) times 1j; still a comb on its classes."""
    basis = real_build_basis(kind, M, M1)
    if kind is not BasisKind.C2:
        return basis
    amps = np.array(basis._amps)
    amps[1, 2, np.flatnonzero(amps[1, 2])[0]] *= 1j
    return reps._comb_basis(kind, amps, "position", basis._comb[1])


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


# row: (the name in suite it replaces, the replacement, the ids it kills; {d} is the split)
ROWS = {
    "factor_kernel sign flip": ("factor_kernel", sign_flipped_kernel,
                                ["kernel.product[{d}]", "kernel.label-form[{d}]"]),
    "fourier_matrix entry scaled": ("fourier_matrix", scaled_fourier_matrix,
                                    ["fourier.mub", "operators.shift.momentum-raise"]),
    "C2 amplitude re-phased": ("build_basis", rephased_c2,
                               ["basis.gram.C2[{d}]", "basis.eigen.C2[{d}]",
                                "basis.c1c2-identity[{d}]", "overlap.phase.C1-C2[{d}]",
                                "overlap.phase.C2-Epos[{d}]"]),
    # each conjugate is classified on its own transform, not on its PLS's
    "conjugate_state without conjugation": ("conjugate_state", unconjugated_state,
                                            ["conjugate.duality[{d}]"]),
    "PLS amplitude re-phased": ("build_pls", rephased_pls,
                                ["pls.orthonormal[{d}]", "pls.lattice-bijection[{d}]",
                                 "conjugate.duality[{d}]", "lattice.area[{d}]"]),
}


@pytest.mark.parametrize("M", [15, 35])
@pytest.mark.parametrize("row", ROWS)
def test_a_corruption_fails_exactly_its_checks(row, M, monkeypatch):
    name, replacement, kills = ROWS[row]
    monkeypatch.setattr(suite, name, replacement)
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
