"""Cross-checks of the whole-array paths against scalar reference loops.

The builders scatter small DFT tables through crt_grid or the Cooley-Tukey
table. classify_vn_state counts a pure state's support through
|psi(q)| * |psi~(k)| and reads a density matrix through one |rho @ F| array.
The references below evaluate the docstring sums label by label with
crt_compose and omega_power, and classify from the dense complex (M, M)
product with lattice_points and a per-point deviation. Position combs and
PLS do the same arithmetic as their reference and must match exactly;
momentum combs sum M1 terms in another order, so they match to a few units
of float64 roundoff.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecrt.core import (
    StateVector,
    default_tolerance,
    fourier_matrix,
    omega_power,
)
from phasecrt.lattice import (
    DensityMatrix,
    NotVN,
    PhasePoint,
    VNLattice,
    classify_vn_state,
    default_support_threshold,
    lattice_points,
    support,
)
from phasecrt.numtheory import crt_compose, crt_grid, enumerate_splits, make_split
from phasecrt.reps import (
    build_C1,
    build_C2,
    build_E_mom,
    build_E_pos,
    build_pls,
    conjugate_state,
)

MOMENTUM_ATOL = 4 * np.finfo(np.float64).eps


@st.composite
def coprime_splits(draw):
    M1 = draw(st.integers(2, 40))
    M2 = draw(st.integers(2, 40).filter(lambda m: math.gcd(m, M1) == 1))
    return make_split(M1 * M2, M1)


@given(coprime_splits())
def test_crt_grid_matches_crt_compose(split):
    grid = crt_grid(split)
    assert grid.shape == (split.M1, split.M2)
    for q1 in range(split.M1):
        for q2 in range(split.M2):
            assert grid[q1, q2] == crt_compose(split, q1, q2)


# ------------------------------------------------------------ builders --

def reference_c1(split):
    M, M1, M2 = split.M, split.M1, split.M2
    F = fourier_matrix(M)
    amps = np.zeros((M1, M2, M), dtype=np.complex128)
    for q1 in range(M1):
        for k2 in range(M2):
            acc = np.zeros(M, dtype=np.complex128)
            for k1 in range(M1):
                acc += omega_power(M1, -k1 * q1 * split.N1) * F[:, crt_compose(split, k1, k2)]
            amps[q1, k2] = acc / math.sqrt(M1)
    return amps


def reference_c2(split):
    M, M1, M2 = split.M, split.M1, split.M2
    amps = np.zeros((M1, M2, M), dtype=np.complex128)
    for q1 in range(M1):
        for k2 in range(M2):
            for q2 in range(M2):
                amps[q1, k2, crt_compose(split, q1, q2)] = omega_power(M2, k2 * q2 * split.N2)
    return amps / math.sqrt(M2)


def reference_e_pos(M, M1):
    M2 = M // M1
    amps = np.zeros((M1, M2, M), dtype=np.complex128)
    for q1 in range(M1):
        for k2 in range(M2):
            for q2 in range(M2):
                amps[q1, k2, (q1 + q2 * M1) % M] = omega_power(M2, k2 * q2)
    return amps / math.sqrt(M2)


def reference_e_mom(M, M1):
    M2 = M // M1
    F = fourier_matrix(M)
    amps = np.zeros((M1, M2, M), dtype=np.complex128)
    for q1 in range(M1):
        for k2 in range(M2):
            acc = np.zeros(M, dtype=np.complex128)
            for k1 in range(M1):
                acc += omega_power(M1, -k1 * q1) * F[:, (k2 + k1 * M2) % M]
            amps[q1, k2] = acc / math.sqrt(M1)
    return amps


def reference_pls(split, q01, k02):
    amps = np.zeros(split.M, dtype=np.complex128)
    for q2 in range(split.M2):
        amps[crt_compose(split, q01, q2)] = omega_power(split.M2, k02 * q2 * split.N2)
    return amps / math.sqrt(split.M2)


def amplitudes(basis):
    return basis.as_matrix().T.reshape(basis.M1, basis.M2, basis.M)


ORIENTED_SPLITS = [s for M in (15, 30) for split in enumerate_splits(M)
                   for s in (split, split.swapped())]
DIVISORS = [(15, 3), (15, 5), (30, 2), (30, 3), (30, 5), (30, 6), (30, 10), (12, 2), (12, 6)]


@pytest.mark.parametrize("split", ORIENTED_SPLITS, ids=lambda s: f"{s.M}:{s.describe()}")
def test_c_builders_and_pls_match_reference(split):
    np.testing.assert_allclose(amplitudes(build_C1(split)), reference_c1(split),
                               rtol=0, atol=MOMENTUM_ATOL)
    assert np.array_equal(amplitudes(build_C2(split)), reference_c2(split))
    for q01 in range(split.M1):
        for k02 in range(split.M2):
            assert np.array_equal(build_pls(split, q01, k02).amplitudes,
                                  reference_pls(split, q01, k02))


@pytest.mark.parametrize("M, M1", DIVISORS)
def test_e_builders_match_reference(M, M1):
    assert np.array_equal(amplitudes(build_E_pos(M, M1)), reference_e_pos(M, M1))
    np.testing.assert_allclose(amplitudes(build_E_mom(M, M1)), reference_e_mom(M, M1),
                               rtol=0, atol=MOMENTUM_ATOL)


# ---------------------------------------------------------- classifier --

def seed_magnitudes(rho):
    """|<q|rho|k>| as the seed formed it: one dense (M, M) complex product."""
    if isinstance(rho, StateVector):
        return np.abs(np.outer(rho.amplitudes, np.conj(rho.momentum_amplitudes())))
    return np.abs(rho.matrix @ fourier_matrix(rho.dim))


def reference_classify(rho, split, threshold=None):
    M = split.M
    mm = seed_magnitudes(rho)
    mask = mm > (default_support_threshold(M) if threshold is None else threshold)
    count = int(np.count_nonzero(mask))
    if count != M:
        return NotVN("wrong count", f"support has {count} points, expected {M}")
    pts = [PhasePoint(int(q), int(k)) for q, k in zip(*np.nonzero(mask))]
    first = pts[0]
    lattice = VNLattice(split, first.q % split.M1, first.k % split.M2)
    if set(pts) != lattice_points(lattice):
        return NotVN(
            "wrong support geometry",
            f"support is not the {split.describe()} lattice shifted to "
            f"({lattice.shift_q}, {lattice.shift_k})",
        )
    target = 1.0 / math.sqrt(M)
    dev = max(abs(mm[p.q, p.k] - target) for p in pts)
    if dev >= default_tolerance(M):
        return NotVN("non-uniform magnitude", f"max deviation from 1/sqrt(M) is {dev:.3e}")
    return lattice


CLASSIFY_SPLITS = [s for M in (6, 15, 30, 330) for split in enumerate_splits(M)
                   for s in (split, split.swapped())]


@st.composite
def classify_cases(draw):
    """(psi, split, threshold): PLS, conjugated PLS, random, perturbed and
    near-threshold vectors, some of them unnormalized, classified against
    every oriented split of their dimension."""
    M = draw(st.sampled_from([6, 15, 30, 330]))
    built = draw(st.sampled_from([s for s in CLASSIFY_SPLITS if s.M == M]))
    q01 = draw(st.integers(0, built.M1 - 1))
    k02 = draw(st.integers(0, built.M2 - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    noise = rng.normal(size=M) + 1j * rng.normal(size=M)
    kind = draw(st.sampled_from(["pls", "conjugated", "random", "perturbed", "near"]))
    if kind == "random":
        amps = noise
    else:
        amps = build_pls(built, q01, k02).amplitudes
        if kind == "conjugated":
            amps = conjugate_state(StateVector(amps)).amplitudes
        elif kind == "perturbed":
            # log-uniform scale: below, near and above the support threshold
            # and the magnitude tolerance
            amps = amps + 10.0 ** draw(st.floats(-11, -3)) * noise
        elif kind == "near":
            # off-lattice products a[q]*b[k] of the order of the default threshold
            amps = amps + 10.0 ** draw(st.floats(-6.5, -5.5)) * noise
    if draw(st.booleans()):
        amps = amps * 10.0 ** draw(st.floats(-2, 2))
    split = draw(st.sampled_from([s for s in CLASSIFY_SPLITS if s.M == M]))
    threshold = draw(st.one_of(
        st.none(),
        st.floats(0.1, 10).map(lambda f: f * default_support_threshold(M))))
    return StateVector(amps), split, threshold


@settings(max_examples=300, deadline=None)
@given(classify_cases())
def test_classify_matches_reference(case):
    psi, split, threshold = case
    pure = classify_vn_state(psi, split, threshold)
    assert pure == reference_classify(psi, split, threshold)
    rho = DensityMatrix.from_state(psi)
    dense = classify_vn_state(rho, split, threshold)
    assert dense == reference_classify(rho, split, threshold)
    # both input kinds agree on the normalized state
    assert classify_vn_state(psi.normalize(), split, threshold) == dense
    for state, verdict in ((psi, pure), (rho, dense)):
        if isinstance(verdict, VNLattice):
            assert set(support(state, threshold)) == lattice_points(verdict)


def assert_count_exact(psi, split, t):
    a, b = np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes())
    count = int(np.count_nonzero(np.outer(a, b) > t))
    verdict = classify_vn_state(psi, split, t)
    if count != split.M:
        assert verdict == NotVN("wrong count", f"support has {count} points, expected {split.M}")
    else:
        assert not (isinstance(verdict, NotVN) and verdict.reason == "wrong count")


def around(product):
    """The threshold at one product a[q]*b[k] and one float step either side."""
    return [t for t in (np.nextafter(product, 0), product, np.nextafter(product, np.inf))
            if t > 0]


@settings(max_examples=200, deadline=None)
@given(classify_cases(), st.data())
def test_pure_count_is_exact_at_the_threshold(case, data):
    psi, split, _ = case
    q = data.draw(st.integers(0, split.M - 1))
    k = data.draw(st.integers(0, split.M - 1))
    for t in around(np.abs(psi.amplitudes[q]) * np.abs(psi.momentum_amplitudes()[k])):
        assert_count_exact(psi, split, t)


def test_pure_count_is_exact_on_tied_magnitudes():
    # 29 rows tie at |psi(q)| = 0.1, so every tie straddles the same boundary
    psi = StateVector(0.1 * np.ones(30) + np.r_[np.zeros(29), 1e-3])
    a, b = np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes())
    for q in (0, 29):
        for k in range(30):
            for t in around(a[q] * b[k]):
                assert_count_exact(psi, make_split(30, 5), t)


def test_classify_cases_reach_every_verdict():
    # the strategy above is only worth its examples if it reaches every branch
    split = make_split(15, 3)
    pls = build_pls(split, 1, 2)
    rng = np.random.default_rng(3)
    noise = rng.normal(size=15) + 1j * rng.normal(size=15)
    cases = [
        (pls, split),
        (StateVector(noise), split),
        (pls, split.swapped()),
        (StateVector(pls.amplitudes + 1e-8 * noise), split),
        (DensityMatrix.from_state(conjugate_state(pls)), split.swapped()),
    ]
    got = []
    for rho, s in cases:
        verdict = classify_vn_state(rho, s)
        assert verdict == reference_classify(rho, s)
        got.append(verdict.reason if isinstance(verdict, NotVN) else "vn")
    assert got == ["vn", "wrong count", "wrong support geometry", "non-uniform magnitude", "vn"]
