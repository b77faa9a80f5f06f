"""Each row corrupts one construction the suite reads, and names the checks it kills.

A row monkeypatches one name in a module (phasecrt.suite, phasecrt.reps for what
the bases, the eigen relations and the phase comparisons read, or phasecrt.core for
the transform of a state's momentum amplitudes), runs the suite at M = 15 and 35
(one split each, 3x5 and 5x7), and names the status each check id it kills must
take, fail or discrepancy, for both or for each M; {d} stands for every split of
the report. The rows of AT_210 run at M = 210 too, whose
7 splits show that each split's check reads what the row corrupts.
Every failing float record must name where its worst value sits ("worst at"
in its note), a failing pls.orthonormal the first PLS that is not its C2 vector,
every discrepancy how many labels disagree, and every other id keeps its status
in tests/golden/w1.json (or tests/golden/210.json).

Every check-id family of tests/golden/210.json is killed by some row, or is
listed in UNKILLED with the reason no row kills it.
"""

import cmath
import json
import math
import re

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from phasecrt import core, reps, suite
from phasecrt.core import MonomialOperator, StateVector
from phasecrt.numtheory import crt_grid, make_split
from phasecrt.reps import BasisKind
from phasecrt.suite import run_suite

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN = {report["M"]: {c["id"]: c["status"] for c in report["checks"]}
          for name in ("w1.json", "210.json")
          for report in json.loads((GOLDEN_DIR / name).read_text())["reports"]}

real_factor_kernel, real_fourier_entries = suite.factor_kernel, suite._fourier_entries
real_build_basis, real_build_pls = suite.build_basis, suite.build_pls
real_translate, real_crt_grid = reps.translate, reps.crt_grid
real_crt_decompose, real_operator_order = suite.crt_decompose, suite.operator_order
real_dft = core._dft


def sign_flipped_kernel(split, k, q):
    """<k1|q1> with the sign of its exponent flipped, in both factors."""
    return np.conj(real_factor_kernel(split, k, q))


def scaled_fourier_entries(M, rows, cols):
    """Entries of the Fourier matrix with its entry (2, 3) times 1.5."""
    F = real_fourier_entries(M, rows, cols)
    F[np.ix_(rows == 2, cols == 3)] *= 1.5
    return F


def rephased_c2(kind, M, M1):
    """C2 with one amplitude of vector (1, 2) times 1j; still a comb on its classes."""
    basis = real_build_basis(kind, M, M1)
    if kind is not BasisKind.C2:
        return basis
    side, points, coefficients = basis._comb
    coefficients = np.array(coefficients)
    coefficients[1, 2, np.argmin(points[1])] *= 1j  # its first nonzero amplitude
    return reps._comb_basis(kind, side, points, coefficients)


def rotated_c2(kind, M, M1):
    """C2 with vector (1, 2) times e^{0.1i}: still orthonormal and an eigenvector of both
    relations, but its overlaps' diagonal phases at (1, 2) miss every root of unity."""
    basis = real_build_basis(kind, M, M1)
    if kind is not BasisKind.C2:
        return basis
    side, points, coefficients = basis._comb
    coefficients = np.array(coefficients)
    coefficients[1, 2] *= cmath.rect(1.0, 0.1)
    return reps._comb_basis(kind, side, points, coefficients)


def e_coefficient_scaled(kind, M, M1):
    """Each E basis with coefficient [1, 2, 0] of its comb times 1.5: class 1's vector 2 at
    its first point, label (1, 2) of E_POS and (2, 1) of E_MOM. The vector is no longer
    unit, nor an eigenvector of translate (E_POS) or, in momentum, of clock (E_MOM)."""
    basis = real_build_basis(kind, M, M1)
    if kind not in (BasisKind.E_POS, BasisKind.E_MOM):
        return basis
    side, points, coefficients = basis._comb
    coefficients = np.array(coefficients)
    coefficients[1, 2, 0] *= 1.5
    return reps._comb_basis(kind, side, points, coefficients)


def c1_with_n1_plus_one(kind, M, M1):
    """C1 built with the inverse co-factor N1 + 1 in place of N1: a momentum comb with
    the wrong phase table, whose rows are read from its coefficients alone."""
    if kind is not BasisKind.C1:
        return real_build_basis(kind, M, M1)
    split = make_split(M, M1)
    return reps._comb(kind, "momentum", crt_grid(split), split.N1 + 1)


def decompose_q2_off_by_one(split, q):
    """crt_decompose with every q2 one step further, mod M2."""
    q1, q2 = real_crt_decompose(split, q)
    return q1, (q2 + 1) % split.M2


def unconjugated_state(state):
    """The momentum amplitudes of state as positions, without the complex conjugation."""
    return StateVector(state.momentum_amplitudes())


def rephased_pls(split, q01, k02):
    """PLS (1, 2) with one amplitude times 1j; every other PLS as built."""
    state = real_build_pls(split, q01, k02)
    if (q01, k02) != (1, 2):
        return state
    amps = np.array(state.amplitudes)
    amps[np.flatnonzero(amps)[0]] *= 1j
    return StateVector(amps)


def pls_normalized_by_sqrt_m1(split, q01, k02):
    """build_pls dividing by sqrt(M1) in place of sqrt(M2), its one square root: every
    PLS has norm M2/M1, and the builder's own constructor call takes it."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reps, "math", SimpleNamespace(sqrt=lambda _: math.sqrt(split.M1)))
        return real_build_pls(split, q01, k02)


def unscaled_dft(x, inverse=False, out=None):
    """core._dft without its 1/sqrt(M), as numpy's fft without norm="ortho": the forward
    transform is sqrt(M) times too large, the inverse sqrt(M) times too small."""
    scale = math.sqrt(x.shape[-1])
    return np.multiply(real_dft(x, inverse, out), 1 / scale if inverse else scale, out=out)


def clock_exponent_off_by_one(M, d):
    """clock(M, d) with the slope M/d + 1."""
    return MonomialOperator(M, phase_slope=M // d + 1)


def translate_step_off_by_one(M, L):
    """translate(M, L) one step further, by L + 1."""
    return real_translate(M, (L + 1) % M)


def doubled_order(op):
    """operator_order(op) times two."""
    return 2 * real_operator_order(op)


def grid_with_a_repeated_point(split):
    """crt_grid with entry (1, 0) a second copy of entry (0, 0); its points no longer
    tile [0, M), so each comb over it is checked as its dense rows, where the C1 comb
    holds the sum of the two coefficients at its doubled point."""
    g = real_crt_grid(split).copy()
    g[1, 0] = g[0, 0]
    return g


def grid_with_two_labels_swapped(split):
    """crt_grid with entries (0, 1) and (1, 0) swapped; its points still tile [0, M), but
    classes 0 and 1 are no longer residue classes mod M1 (nor 0 and 1 of its transpose
    mod M2), so each comb over it is checked as its dense rows."""
    g = real_crt_grid(split).copy()
    g[0, 1], g[1, 0] = g[1, 0], g[0, 1]
    return g


def sign_flipped_form(pair):
    """CROSS_PHASE_FORMS with the sign of pair's claimed exponent flipped."""
    form = reps.CROSS_PHASE_FORMS[pair]
    return {**reps.CROSS_PHASE_FORMS, pair: lambda M1, M2, q1, k2: -form(M1, M2, q1, k2)}


def fail(*check_ids):
    return dict.fromkeys(check_ids, "fail")


EIGEN = ["basis.eigen.C1[{d}]", "basis.eigen.C2[{d}]", "basis.eigen.Epos[{d}]",
         "basis.eigen.Emom[{d}]"]

# row: (the module and the name in it that it replaces, the replacement, the status of
# each id it kills, or of those per M; {d} is the split)
ROWS = {
    "factor_kernel sign flip": (suite, "factor_kernel", sign_flipped_kernel,
                                fail("kernel.product[{d}]", "kernel.label-form[{d}]")),
    # the suite reads F in blocks, its one entry function is what it corrupts; the kernel
    # of every split reads it at the CRT labels, each failing at (q=2, k=3)
    "fourier_matrix entry scaled": (suite, "_fourier_entries", scaled_fourier_entries,
                                    fail("fourier.mub", "operators.shift.momentum-raise",
                                         "kernel.product[{d}]", "kernel.label-form[{d}]")),
    # the PLS, built without C2, are no longer its vectors
    "C2 amplitude re-phased": (suite, "build_basis", rephased_c2,
                               fail("basis.gram.C2[{d}]", "basis.eigen.C2[{d}]",
                                    "basis.c1c2-identity[{d}]", "overlap.phase.C1-C2[{d}]",
                                    "overlap.phase.C2-Epos[{d}]", "pls.orthonormal[{d}]")),
    # only phases fail: each overlap's moduli hold, and its record names label (1, 2)
    "C2 vector rotated by 0.1 rad": (suite, "build_basis", rotated_c2,
                                     fail("basis.c1c2-identity[{d}]", "overlap.phase.C1-C2[{d}]",
                                          "overlap.phase.C2-Epos[{d}]",
                                          "pls.orthonormal[{d}]")),
    # N1 + 1 = 3 = 0 mod 3 at 3x5: one constant phase per class, so C1's Gram fails too;
    # N1 + 1 = 4 is a unit mod 5 at 5x7: C1 stays orthonormal, with the wrong eigenvalues
    "C1 built with N1 + 1": (suite, "build_basis", c1_with_n1_plus_one, {
        15: fail("basis.gram.C1[{d}]", "basis.eigen.C1[{d}]", "basis.c1c2-identity[{d}]",
                 "overlap.phase.C1-C2[{d}]", "overlap.phase.C1-Emom[{d}]"),
        35: fail("basis.eigen.C1[{d}]", "basis.c1c2-identity[{d}]", "overlap.phase.C1-C2[{d}]",
                 "overlap.phase.C1-Emom[{d}]")}),
    # the one scaled vector fails its E basis' Gram and eigen ids and every overlap with it
    "E coefficient scaled": (suite, "build_basis", e_coefficient_scaled,
                             fail("basis.gram.Epos[{d}]", "basis.eigen.Epos[{d}]",
                                  "basis.gram.Emom[{d}]", "basis.eigen.Emom[{d}]",
                                  "overlap.phase.C1-Emom[{d}]", "overlap.phase.C2-Epos[{d}]",
                                  "overlap.phase.Emom-Epos[{d}]")),
    # every q lifts back to another label; the split's inverses and grid are untouched
    "crt_decompose off by one in q2": (suite, "crt_decompose", decompose_q2_off_by_one,
                                       fail("crt.roundtrip[{d}]")),
    # the eigen relations read both operators; on a momentum comb through F^H op F,
    # where the clock shifts and the translate multiplies
    "an off-by-one clock exponent": (reps, "clock", clock_exponent_off_by_one, fail(*EIGEN)),
    "an off-by-one translate step": (reps, "translate", translate_step_off_by_one,
                                     fail(*EIGEN)),
    # C1 and C2 overlap across classes 0 and 1; each claim is checked when made, so both
    # Grams see it, where the class blocks alone would pass; the PLS are built without it
    "an index table with a repeated point": (reps, "crt_grid", grid_with_a_repeated_point,
                                             fail("basis.gram.C1[{d}]", "basis.eigen.C1[{d}]",
                                                  "basis.gram.C2[{d}]", "basis.eigen.C2[{d}]",
                                                  "basis.c1c2-identity[{d}]",
                                                  "overlap.phase.C1-C2[{d}]",
                                                  "overlap.phase.C1-Emom[{d}]",
                                                  "overlap.phase.C2-Epos[{d}]",
                                                  "pls.orthonormal[{d}]")),
    # the suite's own grid: its points no longer tile [0, M), and it feeds the kernel
    "an index table with a repeated point (suite)": (suite, "crt_grid",
                                                     grid_with_a_repeated_point,
                                                     fail("crt.bijection[{d}]",
                                                          "kernel.product[{d}]",
                                                          "kernel.label-form[{d}]")),
    # the suite's own translate: V no longer lowers by one, nor splits into its factors
    "an off-by-one translate step (suite)": (suite, "translate", translate_step_off_by_one,
                                             fail("operators.commutator",
                                                  "operators.shift.position-lower",
                                                  "operators.splitting[{d}]")),
    "operator_order doubled": (suite, "operator_order", doubled_order,
                               fail("operators.period.clock", "operators.period.translate",
                                    "operators.splitting[{d}]")),
    # the suite's grid feeds the kernel; the PLS are built without it
    "two labels swapped in crt_grid (suite)": (suite, "crt_grid", grid_with_two_labels_swapped,
                                               fail("kernel.product[{d}]",
                                                    "kernel.label-form[{d}]")),
    # the C combs are plain when claimed, and their dense rows fail the eigen relations;
    # the PLS, built without the grid, are no longer C2's vectors
    "two labels swapped in crt_grid (reps)": (reps, "crt_grid", grid_with_two_labels_swapped,
                                              fail("basis.eigen.C1[{d}]", "basis.eigen.C2[{d}]",
                                                   "basis.c1c2-identity[{d}]",
                                                   "overlap.phase.C1-C2[{d}]",
                                                   "overlap.phase.C1-Emom[{d}]",
                                                   "overlap.phase.C2-Epos[{d}]",
                                                   "pls.orthonormal[{d}]")),
    # each conjugate is classified on its own transform, not on its PLS's
    "conjugate_state without conjugation": (suite, "conjugate_state", unconjugated_state,
                                            fail("conjugate.duality[{d}]")),
    "PLS amplitude re-phased": (suite, "build_pls", rephased_pls,
                                fail("pls.orthonormal[{d}]", "pls.lattice-bijection[{d}]",
                                     "conjugate.duality[{d}]", "lattice.area[{d}]")),
    # no PLS is unit: none is its C2 vector, and each magnitude misses 1/sqrt(M), so no
    # verdict is a lattice, the state's nor its conjugate's
    "PLS normalized by sqrt(M1)": (suite, "build_pls", pls_normalized_by_sqrt_m1,
                                   fail("pls.orthonormal[{d}]", "pls.lattice-bijection[{d}]",
                                        "conjugate.duality[{d}]")),
    # every state's momentum amplitudes are sqrt(M) too large, so no verdict, which reads
    # both sides, is a lattice; reps and lattice call the transform they imported
    "state transform not unitary": (core, "_dft", unscaled_dft,
                                    fail("pls.lattice-bijection[{d}]",
                                         "conjugate.duality[{d}]")),
    # the overlap keeps its delta-times-phase structure; 6 and 20 labels disagree at 15
    # and 35 (C1-C2's form is 0, so flipping its sign changes nothing)
    "C1-Emom form sign flip": (reps, "CROSS_PHASE_FORMS",
                               sign_flipped_form((BasisKind.C1, BasisKind.E_MOM)),
                               {"overlap.phase.C1-Emom[{d}]": "discrepancy"}),
    # 8 and 24 labels disagree at 15 and 35
    "C2-Epos form sign flip": (reps, "CROSS_PHASE_FORMS",
                               sign_flipped_form((BasisKind.C2, BasisKind.E_POS)),
                               {"overlap.phase.C2-Epos[{d}]": "discrepancy"}),
}

# the rows that also run at M = 210 (7 splits); a run of the suite there takes about 0.3 s
AT_210 = ("fourier_matrix entry scaled", "PLS normalized by sqrt(M1)")

# check-id family: why no row kills it
UNKILLED = {
    "splits.count": "both sides derive from factorize: the enumerated splits and chi(M)",
    "split.invariants": "CoprimeSplit derives every field it reads from (M, M1)",
    "crt.delta-identity": "it reads only the split's co-factors, which CoprimeSplit derives "
                          "from (M, M1)",
}


def family(check_id):
    return check_id.split("[")[0]


def test_every_check_family_is_killed_or_named():
    report = json.loads((GOLDEN_DIR / "210.json").read_text())["reports"][0]
    families = {family(c["id"]) for c in report["checks"]}
    killed = {family(check_id) for *_, kills in ROWS.values()
              for per_m in (kills.values() if 15 in kills else [kills]) for check_id in per_m}
    assert killed <= families
    assert not killed & set(UNKILLED), killed & set(UNKILLED)
    assert families - killed == set(UNKILLED)


@pytest.mark.parametrize("row, M", [pytest.param(row, M, id=f"{row}-{M}")
                                    for row in ROWS for M in (15, 35)]
                         + [pytest.param(row, 210, id=f"{row}-210") for row in AT_210])
def test_a_corruption_fails_exactly_its_checks(row, M, monkeypatch):
    module, name, replacement, kills = ROWS[row]
    kills = kills.get(M, kills)
    monkeypatch.setattr(module, name, replacement)
    report = run_suite(M)
    killed = {check_id.format(d=d): status for check_id, status in kills.items()
              for d in report.splits}
    assert {c.check_id: c.status for c in report.checks
            if c.status != GOLDEN[M][c.check_id]} == killed
    for c in report.checks:
        if killed.get(c.check_id) == "discrepancy":
            assert re.match(r"\d+ labels disagree", c.note), c.check_id
        elif c.check_id in killed and isinstance(c.measured, float):
            assert "worst at (" in c.note, c.check_id
        elif c.check_id in killed and c.check_id.startswith("pls.orthonormal["):
            assert re.fullmatch(r"first at \(q1=\d+, k2=\d+\)", c.note), c.check_id
    assert [c.check_id for c in report.checks] == list(GOLDEN[M])
