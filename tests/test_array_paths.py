"""Cross-checks of the whole-array paths against scalar reference loops.

The builders place small DFT tables on the classes of crt_grid or the
Cooley-Tukey table and keep only those coefficients; the dense rows read from
them on demand (through vector, label blocks and as_matrix, and the files
`phasecrt basis` writes) must equal in bytes the whole-array builder kept here
as the reference: one scatter, and one inverse FFT on the momentum side.
classify_vn_state counts a pure state's support through
|psi(q)| * |psi~(k)| and streams a density matrix's |rho @ F| in row blocks
of one row FFT each; the row FFT is checked against the seed's dense rho @ F,
and the streamed verdicts against the whole |mixed_element_matrix(rho)|. The
magnitude deviation classify reads from the largest and least lattice magnitudes
equals max|m - 1/sqrt(M)| bit for bit. The tiled Hermitian residual of
DensityMatrix equals max|rho - rho^H| bit for bit.
States whose DFTs core._fill_momentum takes as one batched FFT keep each
state's own DFT bit for bit, and classify and conjugate as fresh states do.
The references below evaluate the docstring sums label by label with
crt_compose and omega_power, and classify from the dense complex (M, M)
product with the lattice's M points and a per-point deviation. Position
combs and PLS do the same arithmetic as their reference and must match
exactly; momentum combs sum M1 terms in another order, so they match to a
few units of float64 roundoff.

Grams and cross-basis overlaps are read from the comb structure of the
bases (a block per class, or a gather over the smaller class); they are
checked against the dense A^H B of the stored amplitudes, and the IFFT-built
momentum combs against their former construction from columns of a dense F.

The suite's batched checks keep their per-vector loops here as references:
eigen_residuals (per-vector apply; norms summed in another order, so within
rtol 1e-12; a momentum comb is measured on its coefficients, against the same
loop in momentum and within 4 u sqrt(M) of the position one), scalar
factor_kernel calls, compare_cross_phases with one phase_exponent per label,
conjugate_basis with one conjugate_state per vector, and the shift and kernel
checks with single states and a dense F.
Kernel tables, comparisons and conjugated bases must match exactly; the
shift and kernel records match in status, integers and notes, and their
float residuals within rtol 1e-12.
"""

import contextlib
import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecrt import core, lattice, reps, suite
from phasecrt.cli import main
from phasecrt.core import (
    PHASE_EXPONENT_RESIDUAL_TOL,
    MonomialOperator,
    StateVector,
    apply,
    clock,
    default_tolerance,
    fourier_matrix,
    momentum_state,
    omega_power,
    phase_exponent,
    position_state,
    translate,
)
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
from phasecrt.numtheory import crt_compose, crt_grid, enumerate_splits, make_split
from phasecrt.statefile import save_basis
from phasecrt.reps import (
    CROSS_PHASE_FORMS,
    BasisKind,
    OverlapComparison,
    PhaseDiscrepancy,
    RepBasis,
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
from phasecrt.reps import _phase_table

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


def seed_scatter(side, points, coefficients, shape):
    """(M1, M2, M) amplitudes, coefficients[c, v, j] at points[c, j] for vector v
    of class c; classes run along q1 in position and along k2 in momentum."""
    out = np.zeros(shape, dtype=np.complex128)
    C, V, _ = coefficients.shape
    view = out.reshape(C, V, -1) if side == "position" else out.transpose(1, 0, 2)
    view[np.arange(C)[:, None, None], np.arange(V)[:, None], points[:, None, :]] = coefficients
    return out


def seed_amplitudes(basis):
    """oracle: the (M1, M2, M) amplitudes as the builders made them before a comb's rows
    were read on demand: one whole-array scatter of its coefficients, through one
    whole-array inverse FFT on the momentum side (a plain basis is one class of its array)."""
    side, points, coefficients = basis._comb
    amps = seed_scatter(side, points, coefficients, (basis.M1, basis.M2, basis.M))
    if side == "momentum":
        np.fft.ifft(amps, axis=-1, norm="ortho", out=amps)
    return amps


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


ROW_SPLITS = [s for M in (6, 15, 30, 210) for split in enumerate_splits(M)
              for s in (split, split.swapped())] + [make_split(667, 23), make_split(667, 29)]


@pytest.mark.parametrize("split", ROW_SPLITS, ids=lambda s: f"{s.M}:{s.describe()}")
def test_rows_read_on_demand_are_the_whole_array_builders_bytes(split):
    # a comb stores its coefficients only; every reader rebuilds rows from them
    M, blocks = split.M, reps._label_blocks(split.M)
    for kind, basis in all_bases(M, split.M1).items():
        assert basis._comb[1].shape in ((split.M1, split.M2), (split.M2, split.M1)), kind
        want = seed_amplitudes(basis).reshape(M, M)
        assert basis.as_matrix().tobytes() == want.T.tobytes(), kind
        assert np.concatenate([reps._rows(basis, r) for r in blocks]).tobytes() \
            == want.tobytes(), kind
        for label, vector in basis.items():
            assert vector.amplitudes.tobytes() == want[label.q1 * split.M2 + label.k2].tobytes()


@pytest.mark.parametrize("kind", list(BasisKind))
@pytest.mark.parametrize("conjugate", [False, True], ids=["plain", "conjugate"])
def test_basis_files_are_the_whole_array_builders_bytes(kind, conjugate, tmp_path, capsys):
    # `phasecrt basis 210 14 KIND` writes what the whole-array builders wrote
    out = tmp_path / "got.json"
    assert main(["basis", "210", "14", kind.value, "--out", str(out)]
                + ["--conjugate"] * conjugate) == 0
    basis = build_basis(kind, 210, 14)
    seed = RepBasis(kind, 14, 15, seed_amplitudes(basis))
    save_basis(tmp_path / "want.json", conjugate_basis(seed) if conjugate else seed)
    assert out.read_bytes() == (tmp_path / "want.json").read_bytes()


# ---------------------------------------------------------- classifier --

def seed_product(rho):
    """<q|rho|k> as the seed formed it: one dense (M, M) complex product."""
    if isinstance(rho, StateVector):
        return np.outer(rho.amplitudes, np.conj(rho.momentum_amplitudes()))
    return rho.matrix @ fourier_matrix(rho.dim)


def random_mixed_state(rng, M, rank):
    """sum_i p_i |v_i><v_i| over rank random unit vectors and random weights."""
    v = rng.normal(size=(rank, M)) + 1j * rng.normal(size=(rank, M))
    v /= np.linalg.norm(v, axis=1, keepdims=True)
    p = rng.random(rank)
    return DensityMatrix(np.einsum("i,iq,ik->qk", p / p.sum(), v, v.conj()))


@pytest.mark.parametrize("M", [6, 15, 30, 210, 330, 331, 667])
def test_density_row_fft_matches_the_dense_product(M):
    # the row FFT sums in another order than rho @ F: within 16 ulp of the largest entry
    rng = np.random.default_rng(M)
    for rank in range(1, 5):
        rho = random_mixed_state(rng, M, rank)
        oracle = seed_product(rho)
        got = mixed_element_matrix(rho)
        assert got.shape == (M, M)
        assert np.max(np.abs(got - oracle)) <= 16 * np.finfo(float).eps * np.max(np.abs(oracle))


def lattice_point_set(lattice):
    """The M points (shift_q + n*M1 mod M, shift_k + m*M2 mod M) of lattice."""
    s = lattice.split
    return {PhasePoint((lattice.shift_q + n * s.M1) % s.M, (lattice.shift_k + m * s.M2) % s.M)
            for n in range(s.M2) for m in range(s.M1)}


def reference_classify(rho, split, threshold=None, product=seed_product):
    M = split.M
    mm = np.abs(product(rho))
    mask = mm > (default_support_threshold(M) if threshold is None else threshold)
    count = int(np.count_nonzero(mask))
    if count != M:
        return NotVN("wrong count", f"support has {count} points, expected {M}")
    pts = [PhasePoint(int(q), int(k)) for q, k in zip(*np.nonzero(mask))]
    first = pts[0]
    lattice = VNLattice(split, first.q % split.M1, first.k % split.M2)
    if set(pts) != lattice_point_set(lattice):
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


def largest_product(psi):
    """max|psi(q)| * max|psi~(k)|: the largest product of a pure verdict."""
    return float(np.abs(psi.amplitudes).max() * np.abs(psi.momentum_amplitudes()).max())


@st.composite
def classify_cases(draw):
    """(psi, split, threshold): PLS, conjugated PLS, random, perturbed and
    near-threshold vectors, some of them unnormalized, classified against
    every oriented split of their dimension, some above their every product."""
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
    psi = StateVector(amps)
    threshold = draw(st.one_of(
        st.none(),
        st.floats(0.1, 10).map(lambda f: f * default_support_threshold(M)),
        st.just(2 * largest_product(psi))))  # every product below it: an empty rectangle
    return psi, split, threshold


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
    unit = StateVector(psi.amplitudes / np.linalg.norm(psi.amplitudes))
    assert classify_vn_state(unit, split, threshold) == dense
    for state, verdict in ((psi, pure), (rho, dense)):
        if isinstance(verdict, VNLattice):
            assert set(support(state, threshold)) == lattice_point_set(verdict)
    # every VN verdict counts its support on the bounding rectangle, not on a sort
    with sort_counts() as sorts:
        assert classify_vn_state(psi, split, threshold) == pure
    if isinstance(pure, VNLattice):
        assert not sorts


MIXTURE_SPLITS = [s for s in CLASSIFY_SPLITS if s.M in (6, 15, 30)]


@st.composite
def pls_mixtures(draw):
    """A DensityMatrix mixing one to three PLS (some conjugated) with log-uniform
    weights, plus Hermitian noise of the order of the support threshold."""
    M = draw(st.sampled_from([6, 15, 30]))
    rho = np.zeros((M, M), dtype=complex)
    for i in range(draw(st.integers(1, 3))):
        built = draw(st.sampled_from([s for s in MIXTURE_SPLITS if s.M == M]))
        pls = build_pls(built, draw(st.integers(0, built.M1 - 1)),
                        draw(st.integers(0, built.M2 - 1)))
        if draw(st.booleans()):
            pls = conjugate_state(pls)
        weight = 1.0 if i == 0 else 10.0 ** draw(st.floats(-14, 0))
        rho += weight * np.outer(pls.amplitudes, pls.amplitudes.conj())
    if draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        g = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
        scale = default_support_threshold(M) * 10.0 ** draw(st.floats(-2, 0.5))
        rho += scale * (g + g.conj().T) / 2
    return DensityMatrix(rho / np.trace(rho).real)


@settings(max_examples=150, deadline=None)
@given(pls_mixtures())
def test_classify_pls_mixtures_matches_reference(rho):
    for split in (s for s in MIXTURE_SPLITS if s.M == rho.dim):
        assert classify_vn_state(rho, split) == reference_classify(rho, split)


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


def mixture(a, b, w):
    """(1 - w)|a><a| + w|b><b| for two normalized states."""
    return DensityMatrix((1 - w) * np.outer(a.amplitudes, a.amplitudes.conj())
                         + w * np.outer(b.amplitudes, b.amplitudes.conj()))


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
        # a weight-w second PLS on a disjoint lattice: at w = 1/2 its M points join
        # the support; at w = 1e-7 they stay below the threshold, but the lattice
        # magnitudes fall by w/sqrt(15), above the magnitude tolerance
        (mixture(pls, build_pls(split, 0, 0), 0.5), split),
        (DensityMatrix.from_state(pls), split.swapped()),
        (mixture(pls, build_pls(split, 0, 0), 1e-7), split),
    ]
    got = []
    for rho, s in cases:
        verdict = classify_vn_state(rho, s)
        assert verdict == reference_classify(rho, s)
        got.append(verdict.reason if isinstance(verdict, NotVN) else "vn")
    verdicts = ["vn", "wrong count", "wrong support geometry", "non-uniform magnitude"]
    assert got == verdicts + ["vn"] + verdicts[1:]


@contextlib.contextmanager
def sort_counts():
    """The calls of lattice._sort_count inside the block: one per pure verdict whose
    bounding rectangle holds more than M products."""
    calls, real = [], lattice._sort_count
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_sort_count", lambda *args: calls.append(args) or real(*args))
        yield calls


def rectangle_size(psi, t):
    """|R| * |K|: the rows q with a[q]*max(b) > t times the columns k with b[k]*max(a) > t."""
    a, b = np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes())
    return int(np.count_nonzero(a * b.max() > t)) * int(np.count_nonzero(b * a.max() > t))


def rectangle_of(M, n):
    """(psi, t): a seeded random state of dimension M and a threshold at which its
    rectangle holds exactly n products."""
    for seed in range(100):
        rng = np.random.default_rng(seed)
        psi = StateVector(rng.normal(size=M) + 1j * rng.normal(size=M))
        a, b = np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes())
        for t in np.r_[a * b.max(), b * a.max()]:
            if rectangle_size(psi, t) == n:
                return psi, t
    raise AssertionError(f"no seed gives a rectangle of {n} products at M={M}")


def test_classify_cases_reach_both_count_routes():
    # a pure support is counted on its bounding rectangle when that holds at most M
    # products and on one sort of |psi~| otherwise; both must give the reference verdict
    split, M, t0 = make_split(15, 3), 15, default_support_threshold(15)
    pls = build_pls(split, 1, 2)
    # at 2x15 a spike at 10x the threshold off a PLS adds one row of M1 = 2 products
    wide, t30 = make_split(30, 2), default_support_threshold(30)
    spiked = build_pls(wide, 1, 3).amplitudes.copy()
    spiked[np.flatnonzero(spiked == 0)[0]] = 10 * t30
    spiked = StateVector(spiked)
    cases = [  # (state, threshold, split, products in the rectangle)
        (pls, t0, split, M),  # every lattice is a rectangle of exactly M products
        (spiked, t30, wide, 30 + 2),
        (*rectangle_of(M, M), split, M),
        (*rectangle_of(M, M + 1), split, M + 1),
        (position_state(M, 4), t0, split, M),  # one candidate row
        (pls, 1.0, split, 0),  # a threshold above every product: an empty rectangle
        (pls, 2 * largest_product(pls), split, 0),  # classify_cases' threshold above them
        # at the largest product, exact here (each is 1 * |psi~(k)|): none is above it
        (position_state(M, 4), largest_product(position_state(M, 4)), split, 0),
    ]
    explicit = len(cases)
    # thresholds at the exact products, and a float step either side
    rng = np.random.default_rng(5)
    noise = StateVector(rng.normal(size=M) + 1j * rng.normal(size=M))
    for psi, s in ((spiked, wide), (noise, split)):
        a, b = np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes())
        cases += [(psi, t, s, None) for p in np.outer(a, b).ravel() for t in around(p)]
    routes = []
    for psi, t, s, size in cases:
        with sort_counts() as sorts:
            verdict = classify_vn_state(psi, s, t)
        assert len(sorts) == (rectangle_size(psi, t) > s.M)
        routes.append("sort" if sorts else "rectangle")
        if size is None:  # at a product, |x * conj(y)| and |x| * |y| round apart
            assert_count_exact(psi, s, t)
        else:
            assert rectangle_size(psi, t) == size
            assert verdict == reference_classify(psi, s, t)
            if size == 0:
                assert verdict == NotVN("wrong count", f"support has 0 points, expected {s.M}")
    assert routes[:explicit] == ["rectangle", "sort", "rectangle", "sort"] + ["rectangle"] * 4
    assert classify_vn_state(pls, split) == VNLattice(split, 1, 2)
    assert {"rectangle", "sort"} <= set(routes[explicit:])


def test_a_pure_verdict_reads_its_geometry_on_the_products_it_counted():
    # |x * conj(y)| and |x| * |y| round apart: at a threshold at a product the count
    # could find exactly a lattice that the geometry test, on the complex magnitudes,
    # then failed. PLS (1, 3) of 2x15 with a spike of 10x the threshold off it:
    wide, M = make_split(30, 2), 30
    pls = build_pls(wide, 1, 3).amplitudes
    spiked = pls.copy()
    spiked[0] = 10 * default_support_threshold(M)
    assert classify_vn_state(StateVector(spiked), wide, 0.1825740997687587) == NotVN(
        "non-uniform magnitude", "max deviation from 1/sqrt(M) is 8.607e-08")
    # at every spike position and every threshold at and a float step around a product,
    # a support of M counted products is a lattice exactly when the geometry holds
    for q in np.flatnonzero(pls == 0):
        spiked = pls.copy()
        spiked[q] = 10 * default_support_threshold(M)
        psi = StateVector(spiked)
        products = np.outer(np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes()))
        for t in {t for p in products.ravel() for t in around(p)}:
            counted = products > t
            if np.count_nonzero(counted) != M:
                continue
            points = list(zip(*np.nonzero(counted)))
            first = VNLattice(wide, int(points[0][0]) % 2, int(points[0][1]) % 15)
            is_lattice = {PhasePoint(int(a), int(b)) for a, b in points} == lattice_point_set(first)
            verdict = classify_vn_state(psi, wide, t)
            assert is_lattice != (verdict == NotVN(
                "wrong support geometry", f"support is not the 2x15 lattice shifted to "
                f"({first.shift_q}, {first.shift_k})")), (q, t, verdict)


@functools.cache
def maximally_mixed(M):
    return DensityMatrix(np.eye(M) / M)


def float_steps(x, n):
    """x moved n floats up, or -n floats down."""
    for _ in range(abs(n)):
        x = float(np.nextafter(x, math.inf if n > 0 else -math.inf))
    return x


@st.composite
def lattice_magnitudes(draw):
    """(split, m): magnitudes on a lattice of split, on both sides of x = 1/sqrt(M), some
    a few floats from x or from x -+ the magnitude tolerance, some subnormal, 0 or inf,
    and some repeated."""
    split = draw(st.sampled_from(CLASSIFY_SPLITS))
    x, tol = 1 / math.sqrt(split.M), default_tolerance(split.M)
    steps = st.integers(-3, 3)
    value = st.one_of(
        st.builds(lambda n: float_steps(x, n), steps),
        st.builds(lambda sign, n: float_steps(x + sign * tol, n), st.sampled_from([-1, 1]), steps),
        st.floats(0, 2 * x),
        st.floats(0, 1e-307),
        st.just(math.inf),
    )
    m = draw(st.lists(value, min_size=1, max_size=8)) * draw(st.integers(1, 3))
    return split, np.array(draw(st.permutations(m)))


@settings(max_examples=200, deadline=None)
@given(lattice_magnitudes())
def test_the_deviation_is_read_from_the_extreme_magnitudes_bit_for_bit(case):
    split, m = case
    x = 1 / math.sqrt(split.M)
    want = float(np.abs(m - x).max())
    got = max(float(m.max()) - x, x - float(m.min()))
    assert np.float64(got).tobytes() == np.float64(want).tobytes()
    # fed these lattice magnitudes, classify judges them by the reference deviation
    rho = maximally_mixed(split.M)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lattice, "_dense_support",
                   lambda rho, t, M1, M2: (split.M, (0, 0), lambda: (1.0, m)))
        verdict = classify_vn_state(rho, split)
    if want < default_tolerance(split.M):
        assert verdict == VNLattice(split, 0, 0)
    else:
        assert verdict == NotVN("non-uniform magnitude",
                                f"max deviation from 1/sqrt(M) is {want:.3e}")


# ------------------------------------------ tiled and streamed dense path --

HERMITIAN_DIMS = [2, 3, lattice._TILE - 1, lattice._TILE, lattice._TILE + 1,
                  2 * lattice._TILE + 5, 330]


@st.composite
def perturbed_hermitian(draw):
    """A Hermitian matrix plus roundoff-level noise, with one entry moved in the
    upper or lower triangle, on the diagonal, or in the last partial tile."""
    M = draw(st.sampled_from(HERMITIAN_DIMS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    g = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    noise = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    arr = (g + g.conj().T) / 2 + 10.0 ** draw(st.floats(-17, -12)) * noise
    where = draw(st.sampled_from(["upper", "lower", "diagonal", "last tile"]))
    if where == "last tile":
        low = (M - 1) // lattice._TILE * lattice._TILE
        i, j = draw(st.integers(low, M - 1)), draw(st.integers(low, M - 1))
    elif where == "diagonal":
        i = j = draw(st.integers(0, M - 1))
    else:
        i = draw(st.integers(0, M - 2))
        j = draw(st.integers(i + 1, M - 1))
        if where == "lower":
            i, j = j, i
    arr[i, j] += 10.0 ** draw(st.floats(-15, 0)) * np.exp(2j * np.pi * rng.random())
    return arr


@settings(max_examples=100, deadline=None)
@given(perturbed_hermitian())
def test_tiled_hermitian_residual_is_the_whole_matrix_residual(arr):
    assert lattice._hermitian_residual(arr) == float(np.max(np.abs(arr - arr.conj().T)))


@pytest.mark.parametrize("at", ["diagonal tile", "mirrored tile", "upper tile"])
def test_non_finite_is_reported_before_non_hermitian(at):
    M = 2 * lattice._TILE + 5
    arr = np.eye(M, dtype=complex) / M
    arr[0, 1] = 0.5  # non-Hermitian, in the first tile pair read
    q, k = {"diagonal tile": (M - 1, M - 2), "mirrored tile": (M - 1, 0),
            "upper tile": (0, M - 1)}[at]
    arr[q, k] = np.nan  # non-finite, in a tile pair read later
    with pytest.raises(ValueError, match="entries must be finite"):
        DensityMatrix(arr)
    arr[q, k] = 0.0
    with pytest.raises(ValueError, match=r"not Hermitian \(residual 5\.000e-01\)"):
        DensityMatrix(arr)


def test_from_state_is_the_outer_product_over_the_norm():
    rng = np.random.default_rng(7)
    psi = StateVector(rng.normal(size=330) + 1j * rng.normal(size=330))
    v = psi.amplitudes
    want = np.outer(v, v.conj()) / float(np.sum(np.abs(v) ** 2))
    assert np.array_equal(DensityMatrix.from_state(psi).matrix, want)
    assert np.array_equal(DensityMatrix(want).matrix, want)


def test_from_state_multiplies_by_the_reciprocal_norm_bit_for_bit():
    # a PLS has exact zeros, so a division and a multiply could differ in the sign of a zero
    v = build_pls(make_split(30, 5), 2, 3).amplitudes * 1.5
    n2 = float(np.sum(np.abs(v) ** 2))
    got = DensityMatrix.from_state(StateVector(v)).matrix
    assert got.tobytes() == (np.outer(v, v.conj()) * (1 / n2)).tobytes()


def point_terms(M, weights):
    """P + P^H with P = X F^H, X holding {(q, k): weight}: adds each weight to the
    mixed element (q, k) and at most sum|weight|/M to every mixed element."""
    X = np.zeros((M, M), dtype=np.complex128)
    for (q, k), w in weights.items():
        X[q, k] = w
    P = X @ fourier_matrix(M).conj().T
    return P + P.conj().T


def dense_case(base, *terms):
    """base (a pure state or a matrix) plus terms, at unit trace."""
    if isinstance(base, StateVector):
        base = np.outer(base.amplitudes, base.amplitudes.conj())
    rho = base + sum(terms)
    return DensityMatrix(rho / np.trace(rho).real)


def relocated_lattice(split, rows):
    """Weight 1e-2 (random phases, so the spread adds incoherently) on the (0, 0)
    lattice of split, with the points of its rows q < rows moved to the
    off-lattice rows M - 1 - q: still M points, the first at or after row rows."""
    M = split.M
    phases = np.exp(2j * np.pi * np.random.default_rng(M).random(M))
    return point_terms(M, {(M - 1 - p.q, p.k) if p.q < rows else (p.q, p.k): 1e-2 * phase
                           for p, phase in zip(sorted(lattice_point_set(VNLattice(split))),
                                               phases)})


def streamed_cases(M):
    """(name, rho, split, threshold, expected reason) at dimension M; each case
    puts what decides its verdict in a later or the last, ragged row block."""
    if not enumerate_splits(M):  # a prime: classify against the splits of M - 1
        split = make_split(M - 1, 10)
        return [
            ("one full row in the last block", dense_case(position_state(M, M - 1)),
             split, None, "wrong count"),
            ("no support", dense_case(position_state(M, 0)), split, 1.0, "wrong count"),
        ]
    wide = max((s for sp in enumerate_splits(M) for s in (sp, sp.swapped())),
               key=lambda s: s.M1)
    narrow = wide.swapped()
    late = build_pls(wide, wide.M1 - 1, 1)  # first support row M1 - 1, a later block
    # a PLS whose lattice holds row M - 1, the last row of the last block
    edge = build_pls(narrow, (M - 1) % narrow.M1, 0)
    corner = mixed_element_matrix(edge)[M - 1, 0]
    return [
        ("first support in a later block", DensityMatrix.from_state(late), wide, None, "vn"),
        ("a PLS read against another split", DensityMatrix.from_state(late), narrow, None,
         "wrong support geometry"),
        # every lattice point from the first support row on is support, but the
        # lattice rows of the first block are not
        ("lattice rows missing before a later first row",
         dense_case(np.eye(M) / M, relocated_lattice(narrow, lattice._block_rows(M) + 1)),
         narrow, 5e-3, "wrong support geometry"),
        ("one off-lattice point in the last block",
         dense_case(edge, point_terms(M, {(M - 2, 1): 1e-6})), narrow, None, "wrong count"),
        # lattice point (M - 1, 0) cancelled and replaced by (M - 2, 1): still M points
        ("a lattice point moved in the last block",
         dense_case(edge, point_terms(M, {(M - 1, 0): -corner, (M - 2, 1): 0.03})),
         narrow, 0.01, "wrong support geometry"),
        ("a lattice magnitude off in the last block",
         dense_case(edge, point_terms(M, {(M - 1, 0): -1e-6 * corner / abs(corner)})),
         narrow, None, "non-uniform magnitude"),
        ("no support", DensityMatrix.from_state(edge), narrow, 1.0, "wrong count"),
    ]


@pytest.mark.parametrize("M", [210, 330, 331, 667])
def test_streamed_dense_verdicts_match_the_whole_matrix(M):
    assert M % lattice._block_rows(M), "the last row block must be ragged"
    for name, rho, split, threshold, reason in streamed_cases(M):
        verdict = classify_vn_state(rho, split, threshold)
        # the whole |mixed_element_matrix(rho)| holds the streamed blocks bit for bit
        assert verdict == reference_classify(rho, split, threshold, mixed_element_matrix), name
        assert (verdict.reason if isinstance(verdict, NotVN) else "vn") == reason, name
        if name == "no support":
            assert verdict.detail == f"support has 0 points, expected {split.M}"
    if enumerate_splits(M):
        wide = max(s.M1 for sp in enumerate_splits(M) for s in (sp, sp.swapped()))
        assert wide - 1 >= lattice._block_rows(M), "the first support row must sit in a later block"


# ------------------------------------------------ eigen, kernel, phases --

def reference_eigen_residuals(basis):
    M = basis.M
    cl = clock(M, basis.M1)
    tr = translate(M, basis.M1 % M)
    worst = 0.0
    for label, vec in basis.items():
        want = omega_power(basis.M1, label.q1) * vec.amplitudes
        worst = max(worst, float(np.linalg.norm(apply(cl, vec).amplitudes - want)))
        want = omega_power(basis.M2, label.k2) * vec.amplitudes
        worst = max(worst, float(np.linalg.norm(apply(tr, vec).amplitudes - want)))
    return worst


def reference_momentum_eigen_residuals(basis):
    """reference_eigen_residuals on the momentum amplitudes of a momentum comb, its
    coefficients on their points: op = (s, a, b) acts there as F^H op F, the monomial
    |k> -> omega_M**(s*k + a*s + b) |k + a>."""
    M = basis.M
    _, points, coefficients = basis._comb
    worst = 0.0
    for op, n, exponent in ((clock(M, basis.M1), basis.M1, lambda label: label.q1),
                            (translate(M, basis.M1 % M), basis.M2, lambda label: label.k2)):
        s, a, b = op.shift, op.phase_slope, op.phase_offset
        conjugate = MonomialOperator(M, -a, s, a * s + b)
        for label in basis.labels():
            phi = np.zeros(M, dtype=np.complex128)
            phi[points[label.k2]] = coefficients[label.k2, label.q1]
            want = omega_power(n, exponent(label)) * phi
            got = apply(conjugate, StateVector(phi)).amplitudes
            worst = max(worst, float(np.linalg.norm(got - want)))
    return worst


def dense_eigen_deviations(basis, cl, tr):
    """Each vector's residual norms under cl and tr, from their dense matrices, in
    (label, relation) order."""
    M, A = basis.M, basis.as_matrix()
    q1, k2 = np.divmod(np.arange(M), basis.M2)
    return np.stack([np.linalg.norm(op.matrix() @ A - A * omega_power(n, e), axis=0)
                     for op, n, e in ((cl, basis.M1, q1), (tr, basis.M2, k2))], axis=1).ravel()


def reference_eigen_record(basis, tol):
    """The status and note of basis.eigen from the dense matrices of both operators; a
    NaN counts as largest and a tie goes to the first (label, relation)."""
    M = basis.M
    dev = dense_eigen_deviations(basis, clock(M, basis.M1), translate(M, basis.M1 % M))
    i = int(np.argmax(np.isnan(dev))) if np.isnan(dev).any() else int(np.argmax(dev))
    if dev[i] <= tol:
        return "pass", ""
    (label, relation) = divmod(i, 2)
    return "fail", (f"worst at (q1={label // basis.M2}, k2={label % basis.M2}), "
                    f"{('clock', 'translate')[relation]} relation")


def reference_compare_cross_phases(basis_a, basis_b, tol):
    M = basis_a.M
    claimed = CROSS_PHASE_FORMS[(basis_a.kind, basis_b.kind)]
    g = overlap_matrix(basis_a, basis_b)
    mask = np.eye(M, dtype=bool)
    diag = np.diag(g)
    max_mod_err = max(float(np.max(np.abs(g[~mask]))),
                      float(np.max(np.abs(np.abs(diag) - 1.0))))
    max_residual = 0.0
    mismatches = []
    for i, label in enumerate(basis_a.labels()):
        n, residual = phase_exponent(diag[i], M)
        max_residual = max(max_residual, residual)
        want = claimed(basis_a.M1, basis_a.M2, label.q1, label.k2) % M
        if n != want:
            mismatches.append(PhaseDiscrepancy(label, n, want))
    if max_mod_err >= tol or max_residual >= PHASE_EXPONENT_RESIDUAL_TOL:
        status = "fail"
    elif mismatches:
        status = "discrepancy"
    else:
        status = "pass"
    return OverlapComparison(basis_a.kind, basis_b.kind, status, max_mod_err, max_residual,
                             tuple(mismatches))


def reference_conjugate_basis(basis):
    amps = np.zeros((basis.M2, basis.M1, basis.M), dtype=np.complex128)
    for label, vec in basis.items():
        amps[label.k2, label.q1] = conjugate_state(vec).amplitudes
    return amps


def reference_check_shift_relations(checks, M, tol):
    u, v = clock(M, M), translate(M, 1)
    dev = 0.0
    for k in range(M):
        got = apply(u, momentum_state(M, k)).amplitudes
        want = momentum_state(M, (k + 1) % M).amplitudes
        dev = max(dev, float(np.max(np.abs(got - want))))
    suite._add(checks, "operators.shift.momentum-raise",
               "clock(M,M) maps |k> to |k+1>", dev, 0.0, tol)
    bad = 0
    for q in range(M):
        got = apply(v, position_state(M, q)).amplitudes
        want = position_state(M, (q - 1) % M).amplitudes
        bad += int(not np.array_equal(got, want))
    suite._add(checks, "operators.shift.position-lower",
               "translate(M,1) maps |q> to |q-1> exactly", bad, 0, 0)


def reference_check_kernel(checks, split, d, tol):
    M1, M2 = split.M1, split.M2
    grid = crt_grid(split)
    brute = np.conj(fourier_matrix(split.M))[grid[:, :, None, None], grid]  # <k|q>
    swapped = split.swapped()
    kernel1 = np.array([[factor_kernel(split, k1, q1) for k1 in range(M1)] for q1 in range(M1)])
    kernel2 = np.array([[factor_kernel(swapped, k2, q2) for k2 in range(M2)] for q2 in range(M2)])
    with_inv = kernel1[:, None, :, None] * kernel2[None, :, None, :]
    q1, q2, k1, k2 = np.ix_(np.arange(M1), np.arange(M2), np.arange(M1), np.arange(M2))
    plain = (np.exp(-2j * np.pi * (q1 * k1 * split.L1 + q2 * k2 * split.L2) / split.M)
             / math.sqrt(split.M))
    dev_inv = float(np.max(np.abs(brute - with_inv)))
    dev_plain = float(np.max(np.abs(brute - plain)))
    suite._add(checks, f"kernel.product[{d}]",
               "<k|q> factorizes into the two single-factor kernels under CRT labels",
               dev_inv, 0.0, tol)
    matches = [name for name, dev in
               [("with-inverse-factors", dev_inv), ("inverse-free", dev_plain)]
               if dev < tol]
    suite._add(checks, f"kernel.label-form[{d}]",
               "which factorized kernel form matches brute force",
               dev_inv, 0.0, tol,
               note=f"matching forms: {matches or ['none']}; "
                    f"inverse-free form max deviation {dev_plain:.3e}",
               status="pass" if "with-inverse-factors" in matches else "fail")


def all_bases(M, M1):
    """The four kinds at one orientation; E kinds only when gcd(M1, M/M1) > 1 or M1 is
    1 or M."""
    kinds = BasisKind if math.gcd(M1, M // M1) == 1 and 1 < M1 < M else (BasisKind.E_POS,
                                                                          BasisKind.E_MOM)
    return {kind: build_basis(kind, M, M1) for kind in kinds}


def corrupted(basis):
    """basis with one entry of one vector re-phased and its last nonzero entry swapped with
    the next in another (a move where that one is zero; one vector at M = 2)."""
    amps = amplitudes(basis).copy()
    v = amps.reshape(basis.M, basis.M)[1]
    v[np.flatnonzero(v)[0]] *= np.exp(0.5j)
    w = amps.reshape(basis.M, basis.M)[-1]
    j = np.flatnonzero(w)[-1]
    w[[j, (j + 1) % basis.M]] = w[[(j + 1) % basis.M, j]]
    return RepBasis(basis.kind, basis.M1, basis.M2, amps)


SPLITS_30_210 = [s for M in (30, 210) for split in enumerate_splits(M)
                 for s in (split, split.swapped())]
# E kinds at the degenerate divisors 1 and M; at 3x385 and 385x3 one class holds more
# coefficients than the scratch budget
EIGEN_CASES = [(15, 3), (15, 5)] + [(s.M, s.M1) for s in SPLITS_30_210] + [
    (12, 2), (12, 6), (330, 2), (12, 1), (12, 12), (2, 1), (2, 2), (1155, 3), (1155, 385)]


@pytest.mark.parametrize("M, M1", EIGEN_CASES)
def test_eigen_residuals_match_reference(M, M1):
    for basis in all_bases(M, M1).values():
        got, position = eigen_residuals(basis), reference_eigen_residuals(basis)
        if SIDE[basis.kind] == "momentum":
            # measured on the coefficients, in momentum: a few units of roundoff away
            assert got == pytest.approx(reference_momentum_eigen_residuals(basis),
                                        rel=1e-12, abs=0)
            assert abs(got - position) <= 4 * 2.0 ** -53 * math.sqrt(M)  # 4 u sqrt(M)
        else:
            assert got == pytest.approx(position, rel=1e-12, abs=0)
        bad = corrupted(basis)
        got = eigen_residuals(bad)
        assert got == pytest.approx(reference_eigen_residuals(bad), rel=1e-12, abs=0)
        assert got > default_tolerance(M)


def corrupted_comb(basis, corruption):
    """basis with one coefficient of a vector in its last class negated, re-phased by
    1e-6 rad or NaN; still a comb on its classes."""
    side, points, coefficients = basis._comb
    coefficients = np.array(coefficients)
    c, v = coefficients.shape[0] - 1, coefficients.shape[1] // 2
    coefficients[c, v, 1] = {"negated": -1, "re-phased": np.exp(1e-6j),
                             "nan": np.nan}[corruption] * coefficients[c, v, 1]
    return reps._comb_basis(basis.kind, side, points, coefficients)


@pytest.mark.parametrize("corruption", ["negated", "re-phased", "nan"])
@pytest.mark.parametrize("M, M1", [(15, 3), (210, 14), (667, 23)])
def test_corrupted_combs_give_the_references_eigen_record(M, M1, corruption):
    tol = default_tolerance(M)
    for basis in all_bases(M, M1).values():
        bad = corrupted_comb(basis, corruption)
        assert bad._comb[1] is basis._comb[1]  # the claim holds: the points still tile
        value, note = reps._eigen_deviations(bad)
        assert (("pass", "") if value <= tol else ("fail", note)) == \
            reference_eigen_record(bad, tol) != ("pass", "")


@pytest.mark.parametrize("M, M1", [(15, 3), (667, 23)])
@pytest.mark.parametrize("name, wrong", [
    # shifts momentum kets by M2 + 1, across the momentum classes: those combs read rows
    ("clock", lambda M, d: MonomialOperator(M, phase_slope=M // d + 1)),
    # steps by M1 + 1, across the position classes
    ("translate", lambda M, L: translate(M, (L + 1) % M)),
    # (s, a, b) = (M1, 1, 1) keeps the position classes, and (1, M2, 1) the momentum
    # ones (acting there as (-M2, 1, M2 + 1)): each shifts and multiplies, a*s != 0 mod M
    ("clock", lambda M, d: MonomialOperator(M, d, 1, 1)),
    ("clock", lambda M, d: MonomialOperator(M, 1, M // d, 1)),
], ids=["clock-off-by-one", "translate-off-by-one", "position-shift-and-phase",
        "momentum-shift-and-phase"])
def test_any_relation_operator_gives_the_dense_residual(M, M1, name, wrong, monkeypatch):
    monkeypatch.setattr(reps, name, wrong)
    rng = np.random.default_rng(M)
    for basis in all_bases(M, M1).values():
        # random coefficients too: a vector not orthogonal to its image shows a phase error
        side, points, coefficients = basis._comb
        scrambled = reps._comb_basis(basis.kind, side, points, rng.normal(
            size=coefficients.shape) + 1j * rng.normal(size=coefficients.shape))
        for b in (basis, scrambled):
            want = dense_eigen_deviations(b, reps.clock(M, M1), reps.translate(M, M1 % M))
            assert eigen_residuals(b) == pytest.approx(float(np.max(want)), rel=1e-12)


@pytest.mark.parametrize("split", SPLITS_30_210, ids=lambda s: f"{s.M}:{s.describe()}")
def test_factor_kernel_arrays_match_scalar_calls(split):
    r = np.arange(split.M1)
    table = factor_kernel(split, r, r[:, None])  # [q1, k1]
    assert np.array_equal(table, [[factor_kernel(split, k1, q1) for k1 in r] for q1 in r])
    with pytest.raises(ValueError, match="k1"):
        factor_kernel(split, np.arange(split.M1 + 1), 0)
    with pytest.raises(ValueError, match="q1"):
        factor_kernel(split, r, np.array([[0], [-1]]))


@pytest.mark.parametrize("split", SPLITS_30_210, ids=lambda s: f"{s.M}:{s.describe()}")
def test_compare_cross_phases_matches_reference(split):
    bases = all_bases(split.M, split.M1)
    tol = default_tolerance(split.M)
    for kind_a, kind_b in CROSS_PHASE_FORMS:
        got = compare_cross_phases(bases[kind_a], bases[kind_b], tol=tol)
        assert got == reference_compare_cross_phases(bases[kind_a], bases[kind_b], tol)


@pytest.mark.parametrize("M, M1", [(15, 3), (30, 5), (210, 14), (667, 23), (12, 2)])
def test_conjugate_basis_matches_reference(M, M1):
    for basis in all_bases(M, M1).values():
        conj = conjugate_basis(basis)
        assert (conj.M1, conj.M2, conj.conjugated) == (basis.M2, basis.M1, True)
        assert np.array_equal(amplitudes(conj), reference_conjugate_basis(basis))


def same_records(got, want):
    assert [(c.check_id, c.status, c.note) for c in got] == \
        [(c.check_id, c.status, c.note) for c in want]
    for g, w in zip(got, want):
        if isinstance(w.measured, int):
            assert g.measured == w.measured and isinstance(g.measured, int)
        else:
            assert g.measured == pytest.approx(w.measured, rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("M", [6, 30, 210, 330])  # 330 has the 2xN split 2x165
def test_shift_and_kernel_records_match_reference(M):
    tol = default_tolerance(M)
    got, want = [], []
    suite._check_shift_relations(got, tol, suite._walk_fourier(M))
    reference_check_shift_relations(want, M, tol)
    for split in enumerate_splits(M):
        suite._check_kernel(got, split, split.describe(), tol)
        reference_check_kernel(want, split, split.describe(), tol)
    same_records(got, want)


# ------------------------------------------------- structured products --

PRODUCT_ATOL = 1e-13


def dense_product(basis_a, basis_b):
    return basis_a.as_matrix().conj().T @ basis_b.as_matrix()


def class_of(basis, side):
    """Each vector's class, row-major labels: q1 for position combs, k2 for momentum."""
    q1, k2 = np.divmod(np.arange(basis.M), basis.M2)
    return q1 if side == "position" else k2


SIDE = {BasisKind.C1: "momentum", BasisKind.E_MOM: "momentum",
        BasisKind.C2: "position", BasisKind.E_POS: "position"}


def position_comb(kind, amps, points):
    """The position comb of amps's coefficients at points, class q1 at points[q1]."""
    return reps._comb_basis(kind, "position", points,
                            np.take_along_axis(amps, points[:, None, :], axis=2))


def pls_stack(split):
    """The suite's PLS stack: a position comb over crt_grid."""
    amps = np.reshape([build_pls(split, q01, k02).amplitudes
                       for q01 in range(split.M1) for k02 in range(split.M2)],
                      (split.M1, split.M2, split.M))
    return position_comb(BasisKind.C2, amps, crt_grid(split))


def assert_products_match_dense(bases):
    pairs = [(a, a) for a in bases] + [p for p in suite._PHASE_PAIRS if set(p) <= set(bases)]
    for kind_a, kind_b in pairs:
        a, b = bases[kind_a], bases[kind_b]
        got = overlap_matrix(a, b)
        np.testing.assert_allclose(got, dense_product(a, b), rtol=0, atol=PRODUCT_ATOL)
        if SIDE[kind_a] == SIDE[kind_b]:
            # the block route leaves exact zeros between classes
            side = SIDE[kind_a]
            between = class_of(a, side)[:, None] != class_of(b, side)
            assert not np.any(got[between])
    for kind, basis in bases.items():
        g = dense_product(basis, basis)
        g.flat[::basis.M + 1] -= 1.0
        assert basis.gram_residual() == pytest.approx(float(np.max(np.abs(g))), abs=PRODUCT_ATOL)


PRODUCT_SPLITS = [s for M in (15, 30, 210, 667) for split in enumerate_splits(M)
                  for s in (split, split.swapped())]


@pytest.mark.parametrize("split", PRODUCT_SPLITS, ids=lambda s: f"{s.M}:{s.describe()}")
def test_structured_products_match_dense(split):
    bases = all_bases(split.M, split.M1)
    assert_products_match_dense(bases)
    stack = pls_stack(split)
    np.testing.assert_allclose(overlap_matrix(stack, stack), dense_product(stack, stack),
                               rtol=0, atol=PRODUCT_ATOL)
    # the momentum combs against their former construction from columns of a dense F
    F = fourier_matrix(split.M)
    for basis, index, slope in ((bases[BasisKind.C1], crt_grid(split), split.N1),
                                (bases[BasisKind.E_MOM], np.arange(split.M).reshape(split.M1, split.M2), 1)):
        former = np.tensordot(_phase_table(split.M1, -slope), F.T[index], axes=1)
        np.testing.assert_allclose(amplitudes(basis), former, rtol=1e-12, atol=MOMENTUM_ATOL)


@pytest.mark.parametrize("M, M1", [(12, 2), (12, 6)])
def test_structured_products_of_non_coprime_e_kinds(M, M1):
    assert_products_match_dense(all_bases(M, M1))


@st.composite
def small_coprime_splits(draw):
    M1 = draw(st.integers(2, 20))
    M2 = draw(st.integers(2, 20).filter(lambda m: math.gcd(m, M1) == 1))
    return make_split(M1 * M2, M1)


@settings(max_examples=40, deadline=None)
@given(small_coprime_splits())
def test_structured_products_match_dense_on_random_splits(split):
    assert_products_match_dense(all_bases(split.M, split.M1))


def corrupted_c2(split):
    """C2 of split with one nonzero amplitude off the class of vector (0, 1): no comb on
    C2's classes holds it, so it is a plain basis."""
    basis = build_C2(split)
    amps = amplitudes(basis).copy()
    amps[0, 1, crt_grid(split)[1, 0]] = 0.5
    return RepBasis(BasisKind.C2, split.M1, split.M2, amps)


def test_corrupted_position_comb_falls_back_to_dense():
    split = make_split(15, 3)
    bad = corrupted_c2(split)
    g = dense_product(bad, bad)  # two plain bases: the dense product, bit for bit
    g.flat[::bad.M + 1] -= 1.0
    assert bad.gram_residual() == float(np.max(np.abs(g)))
    # against a comb it is gathered on the comb's side, as either operand
    epos = build_E_pos(15, 3)
    np.testing.assert_allclose(overlap_matrix(bad, epos), dense_product(bad, epos),
                               rtol=0, atol=PRODUCT_ATOL)
    for other in (epos, build_C1(split)):
        np.testing.assert_allclose(overlap_matrix(other, bad), dense_product(other, bad),
                                   rtol=0, atol=PRODUCT_ATOL)
    checks = []
    with pytest.MonkeyPatch.context() as patch:
        real = suite.build_basis
        patch.setattr(suite, "build_basis",
                      lambda kind, M, M1: bad if kind is bad.kind else real(kind, M, M1))
        suite._check_bases(checks, split, "3x5", default_tolerance(15))
    statuses = {c.check_id: c.status for c in checks}
    assert statuses["basis.gram.C2[3x5]"] == "fail"
    assert statuses["basis.gram.C1[3x5]"] == "pass"


@pytest.mark.parametrize("keep_comb", [True, False], ids=["comb", "dense"])
def test_a_nan_amplitude_makes_the_gram_residual_nan(keep_comb):
    # as np.max has it: a NaN entry is the largest, whichever block it sits in
    split = make_split(210, 14)
    basis, grid = build_C2(split), crt_grid(split)
    amps = amplitudes(basis).copy()
    amps[13, 14, grid[13, 0]] = np.nan
    bad = (position_comb(BasisKind.C2, amps, grid) if keep_comb
           else RepBasis(BasisKind.C2, 14, 15, amps))
    assert (len(bad._comb[1]) == 14) == keep_comb  # C2's classes, or one of all points
    assert math.isnan(bad.gram_residual())


@pytest.mark.parametrize("keep_comb", [True, False], ids=["comb", "dense"])
def test_a_nan_amplitude_fails_the_cross_phase_comparison(keep_comb):
    # NaN >= tol is False, so only an error below its tolerance may pass
    split = make_split(15, 3)
    basis = build_C2(split)
    amps = amplitudes(basis).copy()
    amps[1, 2, crt_grid(split)[1, 0]] = np.nan
    bad = (position_comb(BasisKind.C2, amps, crt_grid(split)) if keep_comb
           else RepBasis(BasisKind.C2, 3, 5, amps))
    assert (len(bad._comb[1]) == 3) == keep_comb  # C2's classes, or one of all points
    cmp = compare_cross_phases(build_C1(split), bad)
    assert cmp.status == "fail"
    assert math.isnan(cmp.max_modulus_error)
    assert cmp.worst


def test_comb_with_overlapping_classes_falls_back_to_dense():
    split = make_split(15, 3)
    amps = amplitudes(build_C2(split)).copy()
    amps[1] = amps[0]  # class 1 repeats the vectors and the points of class 0
    points = crt_grid(split).copy()
    points[1] = points[0]
    bad = position_comb(BasisKind.C2, amps, points)
    assert np.array_equal(bad._comb[1], np.arange(15)[None])  # one class of its dense rows
    assert bad.as_matrix().tobytes() == amps.reshape(15, 15).T.tobytes()
    assert np.array_equal(overlap_matrix(bad, bad), dense_product(bad, bad))


def summed_scatter(side, points, coefficients, shape):
    """seed_scatter as a comb denotes it: a point given twice in a class holds the sum of
    its coefficients, added one at a time."""
    out = np.zeros(shape, dtype=np.complex128)
    C, V, _ = coefficients.shape
    view = out.reshape(C, V, -1) if side == "position" else out.transpose(1, 0, 2)
    for (c, v, j), x in np.ndenumerate(coefficients):
        view[c, v, points[c, j]] += x
    return out


def test_a_claim_that_fails_when_made_gives_a_plain_basis():
    # points that are not residue classes: a position class repeated, or a momentum
    # class with a point twice and one missing
    split = make_split(15, 3)
    grid, c1 = crt_grid(split), build_C1(split)
    doubled = grid.copy()
    doubled[1] = grid[0]
    side, c1_points, coefficients = c1._comb
    short = c1_points.copy()
    short[0, 0] = short[0, 1]
    claims = [(BasisKind.C2, "position", doubled, build_C2(split)._comb[2]),
              (BasisKind.C1, "momentum", short, coefficients)]
    for kind, side, points, coefficients in claims:
        bad = reps._comb_basis(kind, side, points, coefficients)
        # one position class of all M points, holding the rows the claim scatters
        assert bad._comb[0] == "position" and np.array_equal(bad._comb[1], np.arange(15)[None])
        want = summed_scatter(side, points, coefficients, (3, 5, 15))
        if side == "momentum":
            np.fft.ifft(want, axis=-1, norm="ortho", out=want)
        assert bad._comb[2].tobytes() == want.reshape(1, 15, 15).tobytes()
        assert np.array_equal(overlap_matrix(bad, bad), dense_product(bad, bad))
        for a, b in ((bad, c1), (c1, bad), (bad, build_E_pos(15, 3))):
            np.testing.assert_allclose(overlap_matrix(a, b), dense_product(a, b),
                                       rtol=0, atol=PRODUCT_ATOL)
    # the comb as written: its class-0 vectors hold both coefficients at the doubled
    # point (the last one alone gives 1/3)
    assert reps._comb_basis(BasisKind.C1, "momentum", short, coefficients).gram_residual() \
        == pytest.approx(2 / 3, rel=1e-12)
    coefficients = build_C2(split)._comb[2]
    good = reps._comb_basis(BasisKind.C2, "position", grid, coefficients)
    # a claim that holds keeps its points and coefficients as given
    assert good._comb[1] is grid and good._comb[2] is coefficients


def test_a_claim_whose_classes_are_not_residue_classes_is_plain():
    # points that tile [0, M), but class q1 (or k2) takes a point of the class before
    split = make_split(15, 3)
    for basis in (build_C2(split), build_C1(split), build_E_pos(15, 3), build_E_mom(15, 3)):
        side, points, coefficients = basis._comb
        rolled = points.copy()
        rolled[:, 0] = np.roll(rolled[:, 0], 1)
        assert np.array_equal(np.sort(rolled, axis=None), np.arange(15))
        bad = reps._comb_basis(basis.kind, side, rolled, coefficients)
        assert bad._comb[0] == "position" and np.array_equal(bad._comb[1], np.arange(15)[None])
        want = summed_scatter(side, rolled, coefficients, (basis.M1, basis.M2, 15))
        if side == "momentum":
            np.fft.ifft(want, axis=-1, norm="ortho", out=want)
        assert bad._comb[2].tobytes() == want.reshape(1, 15, 15).tobytes()


@pytest.mark.parametrize("split", SPLITS_30_210, ids=lambda s: f"{s.M}:{s.describe()}")
def test_every_builders_claim_keeps_its_arrays(split):
    # class c of C holds the residue class c mod C, so no builder's claim is plain
    claims, real = [], reps._comb_basis

    def spy(kind, side, points, coefficients):
        claims.append((kind, side, points, coefficients,
                       real(kind, side, points, coefficients)))
        return claims[-1][-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(reps, "_comb_basis", spy)
        all_bases(split.M, split.M1)
    assert [(kind, side) for kind, side, *_ in claims] == [
        (kind, SIDE[kind]) for kind in BasisKind]
    for kind, side, points, coefficients, basis in claims:
        assert np.all(points % len(points) == np.arange(len(points))[:, None])
        assert basis._comb[1] is points and basis._comb[2] is coefficients


def test_a_claimed_array_cannot_be_written():
    # the dense rows that a failed claim keeps are read-only, like a plain basis's
    split = make_split(15, 3)
    points = crt_grid(split).copy()
    points[1] = points[0]
    bad = reps._comb_basis(BasisKind.C2, "position", points, build_C2(split)._comb[2])
    assert len(bad._comb[1]) == 1
    with pytest.raises(ValueError):
        bad._comb[2][0, 1, points[0, 0]] = 0.5


def test_class_blocks_are_read_through_the_claim():
    split = make_split(15, 3)
    c1, c2 = build_C1(split), build_C2(split)
    emom, epos = build_E_mom(15, 3), build_E_pos(15, 3)
    # each class of the other must hold exactly the points of c's class
    for basis, points in ((epos, c2._comb[1]), (emom, c1._comb[1]), (c1, c1._comb[1])):
        blocks = reps._class_blocks(basis, points)
        want = seed_class_blocks(basis, basis._comb[0], points)  # the scan it replaced
        for c in range(len(points)):
            assert np.array_equal(blocks(c), want[c])
    assert np.shares_memory(reps._class_blocks(c1, c1._comb[1])(1), c1._comb[2])  # no copy
    # points are compared by value: a copy of its own reads the coefficients as well,
    # and two plain bases read each other's
    assert np.shares_memory(reps._class_blocks(c1, c1._comb[1].copy())(1), c1._comb[2])
    amps = amplitudes(c2)
    a, b = (RepBasis(BasisKind.C2, 3, 5, amps.copy()) for _ in range(2))
    assert a._comb[1] is not b._comb[1]
    assert np.shares_memory(reps._class_blocks(b, a._comb[1])(0), b._comb[2])


# ------------------------------------------------- blocked products --

def seed_on_side(basis, side):
    if side == "position":
        return seed_amplitudes(basis)
    if basis._comb and basis._comb[0] == side:
        return seed_scatter(*basis._comb, (basis.M1, basis.M2, basis.M))
    return np.fft.fft(seed_amplitudes(basis), norm="ortho")


def seed_class_blocks(basis, side, points):
    if not np.array_equal(np.sort(points, axis=None), np.arange(basis.M)):
        return None
    if basis._comb[1] is points:
        return basis._comb[2]
    full = seed_on_side(basis, side).transpose((0, 1, 2) if side == "position" else (1, 0, 2))
    full = full.reshape(len(points), -1, basis.M)  # [class, vector, point]
    blocks = [np.take(vectors, pts, axis=1) for vectors, pts in zip(full, points)]
    return blocks if sum(map(np.count_nonzero, blocks)) == np.count_nonzero(full) else None


def seed_whole_product(a, b):
    """oracle: the product formed as one (M, M) array, as it was before it streamed blocks"""
    M = a.M
    c, other = (a, b) if a._comb[1].shape[1] <= b._comb[1].shape[1] else (b, a)
    side, points, _ = c._comb
    kc = seed_class_blocks(c, side, points)
    (C, V), same = c._comb[2].shape[:2], other._comb[0] == side
    ko = kc if other is c else seed_class_blocks(other, side, points) if same else None
    if kc is not None and ko is not None:
        g = np.zeros((C, V, C, V) if side == "position" else (V, C, V, C), np.complex128)
        view = g if side == "position" else g.transpose(1, 0, 3, 2)
        for cls, (block_a, block_b) in enumerate(zip(kc, ko)):
            np.matmul(block_a.conj(), block_b.T, out=view[cls, :, cls, :])
        return g.reshape(M, M)
    if kc is not None:
        gathered = seed_on_side(other, side).reshape(M, M).T[points]
        g = np.empty((C, V, M) if side == "position" else (V, C, M), np.complex128)
        np.matmul(np.conj(kc), gathered, out=g if side == "position" else g.transpose(1, 0, 2))
        g = g.reshape(M, M)
        return g if c is a else np.conjugate(g, out=g).T
    return np.conj(seed_amplitudes(a).reshape(M, M)) @ seed_amplitudes(b).reshape(M, M).T


# at 385 the last block would be a single label without the merge; at 262 a class of
# 131 vectors is larger than the scratch budget, so its rows come in label blocks
BLOCKED_SPLITS = [s for M in (210, 667) for split in enumerate_splits(M)
                  for s in (split, split.swapped())] + [make_split(385, 5), make_split(385, 77),
                                                        make_split(262, 2), make_split(262, 131)]


def test_label_blocks_are_runs_of_sixteen_with_no_lone_last_label():
    for M in range(2, 700):
        blocks = reps._label_blocks(M)
        assert np.array_equal(np.concatenate(blocks), np.arange(M))
        assert all(len(b) % 16 == 0 for b in blocks[:-1]) and len(blocks[-1]) >= 2
    step = len(reps._label_blocks(385)[0])
    assert 385 % step == 1 and len(reps._label_blocks(385)[-1]) == step + 1


@pytest.mark.parametrize("split", BLOCKED_SPLITS, ids=lambda s: f"{s.M}:{s.describe()}")
def test_blocked_products_reassemble_the_whole_product_bit_for_bit(split):
    # the blocks' matmuls and FFTs cover fewer labels than the whole product's;
    # each entry must still come out with the same bytes (BLAS blocking may differ)
    bases = all_bases(split.M, split.M1)
    conj_c2, conj_epos = (conjugate_basis(bases[k]) for k in (BasisKind.C2, BasisKind.E_POS))
    pairs = [(bases[a], bases[b]) for a, b in suite._PHASE_PAIRS]  # gathers and class blocks
    pairs += [(b, a) for a, b in pairs]  # the other orientation of each product
    pairs += [(basis, basis) for basis in bases.values()]  # Grams
    pairs += [(conj_c2, conj_epos), (bases[BasisKind.C2], pls_stack(split))]  # dense; same side
    assert len(list(reps._label_blocks(split.M))) > 1
    for a, b in pairs:
        assert overlap_matrix(a, b).tobytes() == seed_whole_product(a, b).tobytes(), (a, b)


FILL_SPLITS = {M: [s for split in enumerate_splits(M) for s in (split, split.swapped())]
               for M in (6, 15, 211, 330, 667, 2310)}


@st.composite
def state_stacks(draw):
    """(rows, cases): 1 to 64 amplitude rows of one dimension, each a PLS, a
    conjugated PLS, a perturbed PLS or random (211 is prime: random only), and
    per row an oriented split and the thresholds to classify it at. A perturbed
    PLS is classified at one of its products a[q]*b[k] and a float step either side."""
    M = draw(st.sampled_from(sorted(FILL_SPLITS)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cases = [], []
    for _ in range(draw(st.integers(1, 64))):
        kind = "random" if not FILL_SPLITS[M] else \
            draw(st.sampled_from(["pls", "conjugated", "perturbed", "random"]))
        noise = rng.normal(size=M) + 1j * rng.normal(size=M)
        split = FILL_SPLITS[M][rng.integers(len(FILL_SPLITS[M]))] if FILL_SPLITS[M] else None
        thresholds = [None]
        if kind == "random":
            amps = noise
        else:
            amps = build_pls(split, rng.integers(split.M1), rng.integers(split.M2)).amplitudes
            if kind == "conjugated":
                amps = conjugate_state(StateVector(amps)).amplitudes
            elif kind == "perturbed":
                amps = amps + 10.0 ** rng.uniform(-7, -5) * noise
                fresh = StateVector(amps)
                q, k = rng.integers(M, size=2)
                thresholds += around(np.abs(amps[q]) * np.abs(fresh.momentum_amplitudes()[k]))
        rows.append(amps)
        cases.append((rng.choice(FILL_SPLITS[M]) if FILL_SPLITS[M] and rng.random() < 0.5
                      else split, thresholds))
    return np.stack(rows), cases


@settings(max_examples=60, deadline=None)
@given(state_stacks())
def test_filled_momentum_is_each_states_own_dft(stack):
    rows, cases = stack
    states = [StateVector(row) for row in rows]
    assert core._fill_momentum(states).tobytes() == rows.tobytes()  # the stack it transformed
    for row, state, (split, thresholds) in zip(rows, states, cases):
        fresh = StateVector(row)
        momentum = state.momentum_amplitudes()
        assert momentum.tobytes() == fresh.momentum_amplitudes().tobytes()
        assert momentum.tobytes() == (np.fft.fft(row) / math.sqrt(row.size)).tobytes()
        assert not momentum.flags.writeable
        assert state.momentum_amplitudes() is momentum
        assert conjugate_state(state).amplitudes.tobytes() \
            == conjugate_state(fresh).amplitudes.tobytes()
        for t in thresholds if split is not None else ():
            got, want = classify_vn_state(state, split, t), classify_vn_state(fresh, split, t)
            assert got == want and repr(got) == repr(want)
