"""Cross-checks of the whole-array paths against scalar reference loops.

The builders scatter small DFT tables through crt_grid or the Cooley-Tukey
table. classify_vn_state counts a pure state's support through
|psi(q)| * |psi~(k)| and streams a density matrix's |rho @ F| in row blocks
of one row FFT each; the row FFT is checked against the seed's dense rho @ F,
and the streamed verdicts against the whole |mixed_element_matrix(rho)|. The
tiled Hermitian residual of DensityMatrix equals max|rho - rho^H| bit for bit.
The references below evaluate the docstring sums label by label with
crt_compose and omega_power, and classify from the dense complex (M, M)
product with lattice_points and a per-point deviation. Position combs and
PLS do the same arithmetic as their reference and must match exactly;
momentum combs sum M1 terms in another order, so they match to a few units
of float64 roundoff.

Grams and cross-basis overlaps are read from the comb structure of the
bases (a block per class, or a gather over the smaller class); they are
checked against the dense A^H B of the stored amplitudes, and the IFFT-built
momentum combs against their former construction from columns of a dense F.

The suite's batched checks keep their per-vector loops here as references:
eigen_residuals (per-vector apply; norms summed in another order, so within
rtol 1e-12), scalar factor_kernel calls, compare_cross_phases with one
phase_exponent per label, conjugate_basis with one conjugate_state per
vector, and the shift and kernel checks with single states and a dense F.
Kernel tables, comparisons and conjugated bases must match exactly; the
shift and kernel records match in status, integers and notes, and their
float residuals within rtol 1e-12.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecrt import lattice, reps, suite
from phasecrt.core import (
    PHASE_EXPONENT_RESIDUAL_TOL,
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
    lattice_points,
    mixed_element_matrix,
    support,
)
from phasecrt.numtheory import crt_compose, crt_grid, enumerate_splits, make_split
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
from phasecrt.reps import _phase_table, _scatter

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
                           for p, phase in zip(sorted(lattice_points(VNLattice(split))),
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


def reference_compare_cross_phases(basis_a, basis_b, tol):
    M = basis_a.M
    split = basis_a.split or basis_b.split
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
        want = claimed(split, label.q1, label.k2) % M
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
    """The four kinds at one orientation; E kinds only when gcd(M1, M/M1) > 1."""
    kinds = BasisKind if math.gcd(M1, M // M1) == 1 else (BasisKind.E_POS, BasisKind.E_MOM)
    return {kind: build_basis(kind, M, M1) for kind in kinds}


def corrupted(basis):
    """basis with one entry of one vector re-phased and one entry of another moved."""
    amps = amplitudes(basis).copy()
    v = amps[0, 1]
    v[np.flatnonzero(v)[0]] *= np.exp(0.5j)
    w = amps[-1, -1]
    j = np.flatnonzero(w)[-1]
    w[(j + 1) % basis.M] += w[j]
    w[j] = 0
    return RepBasis(basis.kind, basis.M1, basis.M2, amps)


SPLITS_30_210 = [s for M in (30, 210) for split in enumerate_splits(M)
                 for s in (split, split.swapped())]
EIGEN_CASES = [(15, 3), (15, 5)] + [(s.M, s.M1) for s in SPLITS_30_210] + [(12, 2), (12, 6)]


@pytest.mark.parametrize("M, M1", EIGEN_CASES)
def test_eigen_residuals_match_reference(M, M1):
    for basis in all_bases(M, M1).values():
        assert eigen_residuals(basis) == pytest.approx(reference_eigen_residuals(basis),
                                                       rel=1e-12, abs=0)
        bad = corrupted(basis)
        got = eigen_residuals(bad)
        assert got == pytest.approx(reference_eigen_residuals(bad), rel=1e-12, abs=0)
        assert got > default_tolerance(M)


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


@pytest.mark.parametrize("M", [6, 30, 210])
def test_shift_and_kernel_records_match_reference(M):
    tol = default_tolerance(M)
    got, want = [], []
    suite._check_shift_relations(got, M, tol, fourier_matrix(M))
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


def pls_stack(split):
    """The suite's PLS stack: a position comb over crt_grid."""
    amps = np.reshape([build_pls(split, q01, k02).amplitudes
                       for q01 in range(split.M1) for k02 in range(split.M2)],
                      (split.M1, split.M2, split.M))
    stack = RepBasis(BasisKind.C2, split.M1, split.M2, amps)
    stack._comb = ("position", crt_grid(split), None)
    return stack


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
    """C2 of split with one nonzero amplitude off the class of vector (0, 1)."""
    basis = build_C2(split)
    amps = amplitudes(basis).copy()
    amps[0, 1, crt_grid(split)[1, 0]] = 0.5
    bad = RepBasis(BasisKind.C2, split.M1, split.M2, amps)
    bad._comb = basis._comb
    return bad


def test_corrupted_position_comb_falls_back_to_dense():
    split = make_split(15, 3)
    bad = corrupted_c2(split)
    g = dense_product(bad, bad)
    g.flat[::bad.M + 1] -= 1.0
    assert bad.gram_residual() == float(np.max(np.abs(g)))
    epos = build_E_pos(15, 3)
    assert np.array_equal(overlap_matrix(bad, epos), dense_product(bad, epos))
    # as the other operand of a gather the off-class weight is read, not checked
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
    basis = build_C2(make_split(210, 14))
    amps = amplitudes(basis).copy()
    amps[13, 14, crt_grid(basis.split)[13, 0]] = np.nan
    bad = RepBasis(BasisKind.C2, 14, 15, amps)
    bad._comb = basis._comb if keep_comb else None
    assert math.isnan(bad.gram_residual())


def test_comb_with_overlapping_classes_falls_back_to_dense():
    split = make_split(15, 3)
    amps = amplitudes(build_C2(split)).copy()
    amps[1] = amps[0]  # class 1 repeats the vectors and the points of class 0
    points = crt_grid(split).copy()
    points[1] = points[0]
    bad = RepBasis(BasisKind.C2, 3, 5, amps)
    bad._comb = ("position", points, None)
    assert np.array_equal(overlap_matrix(bad, bad), dense_product(bad, bad))


# ------------------------------------------------- blocked products --

def seed_on_side(basis, side):
    if side == "position":
        return basis._amps
    if basis._comb and basis._comb[0] == side:
        return _scatter(*basis._comb, basis._amps.shape)
    return np.fft.fft(basis._amps, norm="ortho")


def seed_class_blocks(basis, side, points):
    if not np.array_equal(np.sort(points, axis=None), np.arange(basis.M)):
        return None
    if basis._comb[1] is points and basis._comb[2] is not None:
        return basis._comb[2]
    full = seed_on_side(basis, side).transpose((0, 1, 2) if side == "position" else (1, 0, 2))
    blocks = [np.take(vectors, pts, axis=1) for vectors, pts in zip(full, points)]
    return blocks if sum(map(np.count_nonzero, blocks)) == np.count_nonzero(full) else None


def seed_whole_product(a, b):
    """oracle: the product formed as one (M, M) array, as it was before it streamed blocks"""
    M = a.M
    if a._comb and b._comb:
        c, other = (a, b) if a._comb[1].shape[1] <= b._comb[1].shape[1] else (b, a)
        side, points, _ = c._comb
        kc = seed_class_blocks(c, side, points)
        same = other._comb[0] == side and (a.M1, a.M2) == (b.M1, b.M2)
        ko = kc if other is c else seed_class_blocks(other, side, points) if same else None
        if kc is not None and ko is not None:
            g = np.zeros((a.M1, a.M2, a.M1, a.M2), dtype=np.complex128)
            view = g if side == "position" else g.transpose(1, 0, 3, 2)
            for cls, (block_a, block_b) in enumerate(zip(kc, ko)):
                np.matmul(block_a.conj(), block_b.T, out=view[cls, :, cls, :])
            return g.reshape(M, M)
        if kc is not None:
            gathered = seed_on_side(other, side).reshape(M, M).T[points]
            g = np.empty((c.M1, c.M2, M), dtype=np.complex128)
            np.matmul(np.conj(kc), gathered, out=g if side == "position" else g.transpose(1, 0, 2))
            g = g.reshape(M, M)
            return g if c is a else np.conjugate(g, out=g).T
    return a.as_matrix().conj().T @ b.as_matrix()


# at 385 the last block would be a single label without the merge
BLOCKED_SPLITS = [s for M in (210, 667) for split in enumerate_splits(M)
                  for s in (split, split.swapped())] + [make_split(385, 5), make_split(385, 77)]


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
