"""Torus-labeled orthonormal bases of the line space and their phase relations.

Four constructions share the label (q1, k2) in [0, M1) x [0, M2). Every
vector is a simultaneous eigenvector of clock(M, M1), eigenvalue
omega_M1**q1, and translate(M, M1), eigenvalue omega_M2**k2:

  C1     sum over momentum kets at CRT-composed labels k1*N1*L1 + k2*N2*L2
  C2     sum over position kets at CRT-composed labels q1*N1*L1 + q2*N2*L2
         (its vectors are the partially localized states)
  E_MOM  sum over momentum kets k2 + k1*M2
  E_POS  sum over position kets q1 + q2*M1

C2 and E_POS are position combs, C1 and E_MOM momentum combs: one small DFT
phase table scattered through an index table (crt_grid, the Good-Thomas map,
for the C kinds; the Cooley-Tukey table for the E kinds); a momentum comb is
the orthonormal inverse FFT of its momentum scatter. Built bases keep that
structure, and a Gram or overlap streams from it in blocks of at most
_BLOCK_BYTES: square blocks of whole classes for two combs of one side and
classes, a gather over the smaller class for a position against a momentum
comb, else (or if its integer checks fail) row blocks of the dense product.
Each reduction drops a block once read; only overlap_matrix forms the whole
(M, M) array. The E kinds exist for any divisor M1 of M, the C kinds need
gcd(M1, M2) = 1. C1 and C2 agree vector for vector; the others up to the
label-dependent phases of CROSS_PHASE_FORMS, checked by compare_cross_phases.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    PHASE_EXPONENT_RESIDUAL_TOL,
    DimensionMismatchError,
    StateVector,
    _apply_rows,
    clock,
    default_tolerance,
    omega_power,
    translate,
)
from .numtheory import CoprimeSplit, NonCoprimeError, crt_grid, make_split


class BasisKind(enum.Enum):
    C1 = "C1"
    C2 = "C2"
    E_MOM = "Emom"
    E_POS = "Epos"

    @property
    def needs_coprime(self) -> bool:
        return self in (BasisKind.C1, BasisKind.C2)


@dataclass(frozen=True)
class TorusLabel:
    q1: int
    k2: int


class RepBasis:
    """M orthonormal vectors labeled by (q1, k2) in [0, M1) x [0, M2)."""

    __slots__ = ("kind", "M1", "M2", "split", "conjugated", "_amps", "_comb")

    def __init__(self, kind: BasisKind, M1: int, M2: int, amps: np.ndarray,
                 conjugated: bool = False):
        amps = np.asarray(amps, dtype=np.complex128).view()  # read-only, not the caller's flags
        if amps.shape != (M1, M2, M1 * M2):
            raise ValueError(f"amplitude block must have shape ({M1}, {M2}, {M1 * M2})")
        amps.setflags(write=False)
        self.kind = kind
        self.M1 = M1
        self.M2 = M2
        try:
            self.split = make_split(M1 * M2, M1)
        except ValueError:  # (M1, M2) is not a coprime split; E kinds allow that
            self.split = None
        self.conjugated = conjugated
        self._amps = amps
        self._comb = None  # a builder's (side, class points, coefficients); see _product

    @property
    def M(self) -> int:
        return self.M1 * self.M2

    def vector(self, q1: int, k2: int) -> StateVector:
        if not 0 <= q1 < self.M1:
            raise ValueError(f"q1={q1} out of range [0, {self.M1})")
        if not 0 <= k2 < self.M2:
            raise ValueError(f"k2={k2} out of range [0, {self.M2})")
        return StateVector(self._amps[q1, k2], normalized=True)

    def labels(self) -> Iterator[TorusLabel]:
        for q1 in range(self.M1):
            for k2 in range(self.M2):
                yield TorusLabel(q1, k2)

    def items(self) -> Iterator[tuple[TorusLabel, StateVector]]:
        for label in self.labels():
            yield label, self.vector(label.q1, label.k2)

    def as_matrix(self) -> np.ndarray:
        """Columns are the basis vectors, labels in row-major (q1, k2) order."""
        return self._amps.reshape(self.M, self.M).T

    def gram_residual(self) -> float:
        return _scan(self, self, modulus=False)[1]

    def __repr__(self) -> str:
        tag = ", conjugated" if self.conjugated else ""
        return f"RepBasis({self.kind.value}, M1={self.M1}, M2={self.M2}{tag})"


def _phase_table(n: int, slope: int) -> np.ndarray:
    """table[a, b] = omega_n**(slope*a*b) / sqrt(n): a small DFT matrix."""
    r = np.arange(n)
    return omega_power(n, slope * np.outer(r, r)) / math.sqrt(n)


def _scatter(side: str, points: np.ndarray, coefficients: np.ndarray, shape) -> np.ndarray:
    """(M1, M2, M) amplitudes, coefficients[c, v, j] at points[c, j] for vector v
    of class c; classes run along q1 in position and along k2 in momentum."""
    out = np.zeros(shape, dtype=np.complex128)
    view = out if side == "position" else out.transpose(1, 0, 2)
    C, V, _ = coefficients.shape
    view[np.arange(C)[:, None, None], np.arange(V)[:, None], points[:, None, :]] = coefficients
    return out


def _comb(kind: BasisKind, side: str, index: np.ndarray, slope: int) -> RepBasis:
    """position: vector(q1,k2) = (1/sqrt(M2)) sum_q2 omega_M2**(slope*k2*q2) |q = index[q1, q2]>
    momentum: vector(q1,k2) = (1/sqrt(M1)) sum_k1 omega_M1**(-slope*k1*q1) |k = index[k1, k2]>"""
    M1, M2 = index.shape
    points = index if side == "position" else index.T  # a row per class
    C, S = points.shape
    coefficients = np.broadcast_to(_phase_table(S, slope if side == "position" else -slope),
                                   (C, S, S))
    amps = _scatter(side, points, coefficients, (M1, M2, M1 * M2))
    if side == "momentum":  # <q|k> = omega_M**(q*k) / sqrt(M): the orthonormal inverse DFT
        np.fft.ifft(amps, axis=-1, norm="ortho", out=amps)
    basis = RepBasis(kind, M1, M2, amps)
    # a position comb's amplitudes are its coefficients
    basis._comb = (side, points, coefficients if side == "momentum" else None)
    return basis


def build_C1(split: CoprimeSplit) -> RepBasis:
    """vector(q1,k2) = (1/sqrt(M1)) sum_k1 omega_M1**(-k1*q1*N1) |k1*N1*L1 + k2*N2*L2>."""
    return _comb(BasisKind.C1, "momentum", crt_grid(split), split.N1)


def build_C2(split: CoprimeSplit) -> RepBasis:
    """vector(q1,k2) = (1/sqrt(M2)) sum_q2 omega_M2**(k2*q2*N2) |q1*N1*L1 + q2*N2*L2>."""
    return _comb(BasisKind.C2, "position", crt_grid(split), split.N2)


def build_pls(split: CoprimeSplit, q01: int, k02: int) -> StateVector:
    """The partially localized state: sharp at q = q01 mod M1, pure phase across q2.

    Identical to build_C2(split).vector(q01, k02); built directly to avoid
    constructing the whole basis.
    """
    if not 0 <= q01 < split.M1:
        raise ValueError(f"q01={q01} out of range [0, {split.M1})")
    if not 0 <= k02 < split.M2:
        raise ValueError(f"k02={k02} out of range [0, {split.M2})")
    amps = np.zeros(split.M, dtype=np.complex128)
    q2 = np.arange(split.M2)
    row = (q01 * split.N1 * split.L1 + q2 * split.N2 * split.L2) % split.M  # crt_grid(split)[q01]
    amps[row] = omega_power(split.M2, split.N2 * k02 * q2)
    return StateVector(amps / math.sqrt(split.M2), normalized=True)


def _check_divisor(M: int, M1: int) -> int:
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    if M1 < 1 or M % M1 != 0:
        raise ValueError(f"{M1} does not divide {M}")
    return M // M1


def build_E_pos(M: int, M1: int) -> RepBasis:
    """vector(q1,k2) = (1/sqrt(M2)) sum_q2 omega_M2**(k2*q2) |q1 + q2*M1>.

    Defined for any divisor M1 of M; no coprimality needed.
    """
    M2 = _check_divisor(M, M1)
    # Cooley-Tukey table index[q1, q2] = q1 + q2*M1
    return _comb(BasisKind.E_POS, "position", np.arange(M).reshape(M2, M1).T, 1)


def build_E_mom(M: int, M1: int) -> RepBasis:
    """vector(q1,k2) = (1/sqrt(M1)) sum_k1 omega_M1**(-k1*q1) |k2 + k1*M2>.

    Defined for any divisor M1 of M; no coprimality needed.
    """
    M2 = _check_divisor(M, M1)
    # Cooley-Tukey table index[k1, k2] = k2 + k1*M2
    return _comb(BasisKind.E_MOM, "momentum", np.arange(M).reshape(M1, M2), 1)


def build_basis(kind: BasisKind, M: int, M1: int) -> RepBasis:
    """Dispatch on kind; C kinds require a coprime split."""
    if kind.needs_coprime:
        try:
            split = make_split(M, M1)
        except NonCoprimeError:
            raise NonCoprimeError(
                f"{kind.value} requires gcd(M1, M2) = 1; "
                f"gcd({M1}, {M // M1 if M1 and M % M1 == 0 else '?'}) != 1") from None
        return build_C1(split) if kind is BasisKind.C1 else build_C2(split)
    if kind is BasisKind.E_POS:
        return build_E_pos(M, M1)
    return build_E_mom(M, M1)


def conjugate_state(state: StateVector) -> StateVector:
    """Swap position and momentum roles.

    The result's position amplitudes are the complex-conjugated momentum
    amplitudes of the input, which makes the map an exact involution: applying
    it twice returns the original state.
    """
    return StateVector(np.conj(state.momentum_amplitudes()), normalized=state.normalized)


def conjugate_basis(basis: RepBasis) -> RepBasis:
    """Conjugate every vector and relabel: orientation (M1, M2) -> (M2, M1),
    vector (q1, k2) -> (k2, q1)."""
    amps = np.conj(np.fft.fft(basis._amps, axis=-1) / math.sqrt(basis.M))
    return RepBasis(basis.kind, basis.M2, basis.M1, amps.transpose(1, 0, 2).copy(),
                    conjugated=not basis.conjugated)


def factor_kernel(split: CoprimeSplit, k1, q1) -> complex | np.ndarray:
    """<k1|q1> = omega_M1**(-q1*k1*N1) / sqrt(M1) for the first factor.

    Labels are integers or broadcasting integer arrays in [0, M1). The second
    factor's kernel is factor_kernel(split.swapped(), k2, q2), and the product
    of the two equals <k|q> under CRT-composed labels.
    """
    k1, q1 = np.asarray(k1), np.asarray(q1)
    for name, labels in (("k1", k1), ("q1", q1)):
        bad = labels[(labels < 0) | (labels >= split.M1)]
        if bad.size:
            raise ValueError(f"{name}={bad.flat[0]} out of range [0, {split.M1})")
    # numpy divides scalars and arrays alike (Python's complex division rounds otherwise)
    return np.asarray(omega_power(split.M1, -q1 * k1 * split.N1)) / math.sqrt(split.M1)


def overlap_matrix(basis_a: RepBasis, basis_b: RepBasis) -> np.ndarray:
    """<a(row)|b(col)> for all label pairs, labels in row-major (q1, k2) order."""
    if basis_a.M != basis_b.M:
        raise DimensionMismatchError(f"dims differ: {basis_a.M} vs {basis_b.M}")
    g = np.zeros((basis_a.M, basis_a.M), dtype=np.complex128)
    for rows, cols, block in _product(basis_a, basis_b):
        g[np.ix_(rows, cols)] = block
    return g


# Scratch budget, in bytes, of one block of a product instead of its (M, M) array.
_BLOCK_BYTES = 1 << 18


def _label_blocks(M: int) -> list[np.ndarray]:
    """Runs of a multiple of 16 labels, the last of two or more, so that a block's matmul
    gives the whole product's bytes: BLAS tiles labels in small multiples, one alone apart."""
    step = 16 * max(1, _BLOCK_BYTES // (16 * 16 * M))
    return np.split(np.arange(M), range(step, M - 1, step))


def _on_side(basis: RepBasis, side: str, labels: np.ndarray) -> np.ndarray:
    """(labels, M) amplitudes over positions (labels a run, so a view) or momenta;
    a momentum comb's momenta are the coefficients it was built from."""
    if side == "position":
        return basis._amps.reshape(basis.M, basis.M)[labels[0]:labels[-1] + 1]
    if basis._comb and basis._comb[0] == side:  # each label scattered as a class of its own
        (_, pts, coef), (q1, k2) = basis._comb, np.divmod(labels, basis.M2)
        return _scatter("position", pts[k2], coef[k2, q1, None], (len(labels), 1, basis.M))[:, 0]
    return np.fft.fft(basis._amps.reshape(basis.M, basis.M)[labels], norm="ortho")


def _class_blocks(basis: RepBasis, side: str, points: np.ndarray) -> np.ndarray | list | None:
    """The basis' amplitudes on side at points[c], class c by class; None unless
    the points tile [0, M) and hold every nonzero (exact integer checks)."""
    if not np.array_equal(np.sort(points, axis=None), np.arange(basis.M)):
        return None
    if basis._comb[1] is points and basis._comb[2] is not None:
        return basis._comb[2]  # a momentum comb's own coefficients
    grid = np.arange(basis.M).reshape(basis.M1, basis.M2)
    grid = grid if side == "position" else grid.T  # a row of labels per class
    (C, V), blocks = grid.shape, []
    step = max(1, _BLOCK_BYTES // (16 * V * basis.M))  # classes of vectors per block
    for classes in np.split(np.arange(C), range(step, C, step)):
        vectors = _on_side(basis, side, grid[classes].ravel()).reshape(-1, V, basis.M)
        taken = [np.take(v, pts, axis=1) for v, pts in zip(vectors, points[classes])]
        if sum(map(np.count_nonzero, taken)) != np.count_nonzero(vectors):
            return None
        blocks.extend(taken)
    return blocks


def _product(a: RepBasis, b: RepBasis) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """a^H b as blocks g[ix_(rows, cols)] over ascending labels, exact zeros outside
    them. Of two combs, c has the smaller class. With the other on c's side and
    classes: square blocks of whole classes; else c's classes gather a block of the
    other's labels on c's side (M * class size work each); else dense row blocks."""
    M, every = a.M, np.arange(a.M)
    if a._comb and b._comb:
        c, other = (a, b) if a._comb[1].shape[1] <= b._comb[1].shape[1] else (b, a)
        side, points, _ = c._comb
        kc = _class_blocks(c, side, points)
        same = other._comb[0] == side and (a.M1, a.M2) == (b.M1, b.M2)
        ko = kc if other is c else _class_blocks(other, side, points) if same else None
        if kc is not None and ko is not None:
            # n classes of V vectors per square block, exact zeros between classes
            grid, V = np.arange(M).reshape(a.M1, a.M2), len(kc[0])
            step = max(1, math.isqrt(_BLOCK_BYTES // 16) // V)
            for classes in np.split(np.arange(len(kc)), range(step, len(kc), step)):
                n = len(classes)
                g = np.zeros((n, V, n, V) if side == "position" else (V, n, V, n), np.complex128)
                view = g if side == "position" else g.transpose(1, 0, 3, 2)
                for k, cls in enumerate(classes):
                    np.matmul(kc[cls].conj(), ko[cls].T, out=view[k, :, k, :])
                labels = (grid[classes] if side == "position" else grid[:, classes]).ravel()
                yield labels, labels, g.reshape(n * V, n * V)
            return
        if kc is not None:
            kc = np.conj(kc)
            for labels in _label_blocks(M):
                gathered = _on_side(other, side, labels).T[points]  # [class, point, label]
                g = np.empty((c.M1, c.M2, len(labels)), np.complex128)
                np.matmul(kc, gathered, out=g if side == "position" else g.swapaxes(0, 1))
                g = g.reshape(M, -1)
                yield (every, labels, g) if c is a else (labels, every, np.conjugate(g, out=g).T)
            return
    for labels in _label_blocks(M):
        yield labels, every, np.conj(a._amps.reshape(M, M)[labels]) @ b.as_matrix()


def _scan(a: RepBasis, b: RepBasis, modulus: bool) -> tuple[np.ndarray, float, str]:
    """a^H b reduced block by block: its diagonal, the largest (a NaN first) of |g| off it
    and |g - 1| (or ||g| - 1|) on it, and the first label pair, row-major, where that sits."""
    diag, worst, at = np.empty(a.M, dtype=np.complex128), -1.0, (0, 0)
    for rows, cols, block in _product(a, b):
        j = np.searchsorted(cols, rows)
        i = np.flatnonzero(cols.take(j, mode="clip") == rows)  # rows whose label is a column's
        diag[rows[i]] = d = block[i, j[i]]
        dev = np.abs(block)
        dev[i, j[i]] = np.abs((np.abs(d) if modulus else d) - 1.0)
        y, x = divmod(int(np.argmax(dev)), dev.shape[1])
        value, where = float(dev[y, x]), (int(rows[y]), int(cols[x]))
        if value > worst or value == worst and where < at or value != value and worst == worst:
            worst, at = value, where
    (q1, k2), (r1, r2) = divmod(at[0], a.M2), divmod(at[1], b.M2)
    return diag, worst, f"worst at (q1={q1}, k2={k2}) x (q1={r1}, k2={r2})"


# Claimed closed forms for the diagonal phase of each cross-basis overlap,
# as integer exponents of omega_M. Off-diagonal entries vanish for all pairs.
# The brute-force overlap is always the truth source; compare_cross_phases
# records a discrepancy wherever a measured exponent differs from these.
CROSS_PHASE_FORMS = {
    (BasisKind.C1, BasisKind.C2): lambda split, q1, k2: 0,
    (BasisKind.C1, BasisKind.E_MOM): lambda split, q1, k2: k2 * q1 * split.N1 * split.M2,
    (BasisKind.C2, BasisKind.E_POS): lambda split, q1, k2: -k2 * q1 * split.N2 * split.M1,
    (BasisKind.E_MOM, BasisKind.E_POS): lambda split, q1, k2: k2 * q1,
}


@dataclass(frozen=True)
class PhaseDiscrepancy:
    label: TorusLabel
    measured_exponent: int
    claimed_exponent: int


@dataclass(frozen=True)
class OverlapComparison:
    """Outcome of checking a cross-basis overlap table against its closed form.

    status is "pass" when the delta-times-phase structure holds and every
    diagonal exponent matches the claimed form; "discrepancy" when the
    structure holds but some exponents differ (they are then listed); "fail"
    when the structure itself is broken; worst then names the label pair of
    the largest modulus error.
    """

    kind_a: BasisKind
    kind_b: BasisKind
    status: str
    max_modulus_error: float
    max_exponent_residual: float
    discrepancies: tuple[PhaseDiscrepancy, ...]
    worst: str = ""


def compare_cross_phases(
    basis_a: RepBasis,
    basis_b: RepBasis,
    tol: float | None = None,
    overlap: tuple[np.ndarray, float, str] | None = None,
) -> OverlapComparison:
    """Check <a'|b> = delta*delta*phase against the claimed exponent table;
    overlap is _scan(basis_a, basis_b, modulus=True) when the caller made it."""
    key = (basis_a.kind, basis_b.kind)
    if key not in CROSS_PHASE_FORMS:
        raise ValueError(f"no claimed closed form for pair {key}")
    if basis_a.M1 != basis_b.M1 or basis_a.M2 != basis_b.M2:
        raise ValueError("bases must share the same (M1, M2) orientation")
    split = basis_a.split or basis_b.split
    if split is None:
        raise ValueError("comparison needs a coprime split for the claimed form")
    M = basis_a.M
    if tol is None:
        tol = default_tolerance(M)
    diag, max_mod_err, worst = overlap or _scan(basis_a, basis_b, modulus=True)

    # phase_exponent, for every diagonal entry at once
    x = np.angle(diag) * M / (2.0 * np.pi)
    n = np.round(x)
    max_residual = float(np.max(np.abs(x - n)))
    measured = n.astype(np.int64) % M
    q1, k2 = np.divmod(np.arange(M), basis_a.M2)  # labels in row-major (q1, k2) order
    claimed = np.broadcast_to(CROSS_PHASE_FORMS[key](split, q1, k2), (M,)) % M
    mismatches = tuple(
        PhaseDiscrepancy(TorusLabel(int(q1[i]), int(k2[i])), int(measured[i]), int(claimed[i]))
        for i in np.flatnonzero(measured != claimed))

    if max_mod_err >= tol or max_residual >= PHASE_EXPONENT_RESIDUAL_TOL:
        status = "fail"
    elif mismatches:
        status = "discrepancy"
    else:
        status = "pass"
    return OverlapComparison(basis_a.kind, basis_b.kind, status, max_mod_err, max_residual,
                             mismatches, worst if status == "fail" else "")


def _eigen_deviations(basis: RepBasis) -> np.ndarray:
    """Residual norm of each vector under each eigen-relation, shape (2, M1, M2):
    [0] the clock relation, [1] the translate relation."""
    M, M1, M2 = basis.M, basis.M1, basis.M2
    cl = clock(M, M1)
    tr = translate(M, M1 % M)
    tr_eigenvalues = omega_power(M2, np.arange(M2))[:, None]
    dev = np.empty((2, M1, M2))
    for q1 in range(M1):  # one (M2, M) block of vectors at a time
        block = basis._amps[q1]
        dev[0, q1] = np.linalg.norm(_apply_rows(cl, block) - omega_power(M1, q1) * block, axis=-1)
        dev[1, q1] = np.linalg.norm(_apply_rows(tr, block) - tr_eigenvalues * block, axis=-1)
    return dev


def eigen_residuals(basis: RepBasis) -> float:
    """Max residual of both defining eigen-relations over all basis vectors.

    Relations: clock(M, M1) v = omega_M1**q1 v and
    translate(M, M1) v = omega_M2**k2 v (the step size M1 equals L2 = M/M2).
    """
    return float(_eigen_deviations(basis).max())


def _eigen_worst(basis: RepBasis) -> str:
    """The vector with the largest eigen-relation residual, and the relation."""
    dev = _eigen_deviations(basis)
    relation, q1, k2 = np.unravel_index(int(dev.argmax()), dev.shape)
    return f"worst at (q1={q1}, k2={k2}), {('clock', 'translate')[relation]} relation"
