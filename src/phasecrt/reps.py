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
phase table on the classes of an index table (crt_grid, the Good-Thomas map,
for the C kinds; the Cooley-Tukey table for the E kinds). Every basis is
only such a claim: its side, each class's points and the coefficients there,
M * class size numbers, not M**2. Its labels come from the coefficients' shape
(C classes of V vectors): c*V + v in position, v*C + c in momentum. Amplitudes
given to RepBasis are the position comb of one class holding all M points;
_comb_basis checks every other claim where it is made (class c of C holds the
residue class c mod C of [0, M)) and makes one that fails the one-class comb of
its dense rows. Dense rows are read on demand, a block of labels at a time
(_rows): the coefficients scattered onto their points, and on the momentum side
taken through the inverse of core._dft. A Gram or overlap streams in blocks of
at most _SCRATCH_BYTES: square blocks of whole classes for two combs of one side
and class count, else a gather over the smaller class. The eigen relations act
on blocks of coefficients, in momentum through each operator's Fourier conjugate
(where clock shifts and translate multiplies), and a shift keeps the classes
when C divides it. Each reduction drops a block once read; only overlap_matrix,
as_matrix, conjugate_basis and the dense rows of a claim that fails (or whose
classes a shift does not keep) form a whole (M, M) array. The E kinds exist for
any divisor M1 of M, the C kinds need gcd(M1, M2) = 1. C1 and C2 agree vector
for vector; the others up to the label-dependent phases of CROSS_PHASE_FORMS,
checked by compare_cross_phases.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .core import (
    PHASE_EXPONENT_RESIDUAL_TOL,
    _SCRATCH_BYTES,
    DimensionMismatchError,
    StateVector,
    _dft,
    _fourier_conjugate,
    clock,
    default_tolerance,
    omega_power,
    phase_exponent,
    translate,
)
from .numtheory import (CoprimeSplit, NonCoprimeError, _cofactor, _integer, _labels, crt_compose,
                        crt_grid, make_split, mod_inverse)


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

    __slots__ = ("kind", "M1", "M2", "conjugated", "_comb")

    def __init__(self, kind: BasisKind, M1: int, M2: int, amps: np.ndarray,
                 conjugated: bool = False):
        M = int(M1) * int(M2) if _integer(M1) and _integer(M2) else M1 * M2  # no wrap
        M1, M2 = _cofactor(M, M2), _cofactor(M, M1)  # ints, or refused; a factor 1 is an E kind's
        amps = np.asarray(amps, dtype=np.complex128).view()  # read-only, not the caller's
        if amps.shape != (M1, M2, M):
            raise ValueError(f"amplitude block must have shape ({M1}, {M2}, {M})")
        amps.setflags(write=False)
        self.kind, self.M1, self.M2, self.conjugated = kind, M1, M2, conjugated
        # a checked (side, class points, coefficients); see _comb_basis. Amplitudes are
        # the position comb of one class that holds all M points
        self._comb = ("position", np.arange(M)[None], amps.reshape(1, M, M))

    @property
    def M(self) -> int:
        return self.M1 * self.M2

    def vector(self, q1: int, k2: int) -> StateVector:
        q1 = _labels("q1", q1, self.M1, scalar=True)
        k2 = _labels("k2", k2, self.M2, scalar=True)
        return StateVector(_rows(self, np.array([q1 * self.M2 + k2]))[0])

    def labels(self) -> Iterator[TorusLabel]:
        for q1 in range(self.M1):
            for k2 in range(self.M2):
                yield TorusLabel(q1, k2)

    def items(self) -> Iterator[tuple[TorusLabel, StateVector]]:
        for label in self.labels():
            yield label, self.vector(label.q1, label.k2)

    def as_matrix(self) -> np.ndarray:
        """Columns are the basis vectors, labels in row-major (q1, k2) order."""
        return _rows(self, np.arange(self.M)).T

    def gram_residual(self) -> float:
        return _scan(self, self, modulus=False)[1]

    def __repr__(self) -> str:
        tag = ", conjugated" if self.conjugated else ""
        return f"RepBasis({self.kind.value}, M1={self.M1}, M2={self.M2}{tag})"


def _phase_table(n: int, slope: int) -> np.ndarray:
    """table[a, b] = omega_n**(slope*a*b) / sqrt(n): a small DFT matrix."""
    r = np.arange(n)
    return omega_power(n, slope * np.outer(r, r)) / math.sqrt(n)


def _comb(kind: BasisKind, side: str, index: np.ndarray, slope: int) -> RepBasis:
    """position: vector(q1,k2) = (1/sqrt(M2)) sum_q2 omega_M2**(slope*k2*q2) |q = index[q1, q2]>
    momentum: vector(q1,k2) = (1/sqrt(M1)) sum_k1 omega_M1**(-slope*k1*q1) |k = index[k1, k2]>"""
    points = index if side == "position" else index.T  # a row per class
    C, S = points.shape
    coefficients = np.broadcast_to(_phase_table(S, slope if side == "position" else -slope),
                                   (C, S, S))
    return _comb_basis(kind, side, points, coefficients)


def _comb_basis(kind: BasisKind, side: str, points: np.ndarray,
                coefficients: np.ndarray) -> RepBasis:
    """The comb on side whose vector v of class c is coefficients[c, v, j] at points[c, j];
    labels run c*V + v in position and v*C + c in momentum, for C classes of V vectors.
    The claim is checked here, in exact integers: class c holds exactly the points
    p = c mod C of [0, M), its residue class, so two combs of one side and class count
    share their classes. A claim that fails is the one-class comb of its dense rows, so
    every check reads what was built."""
    C, V, _ = coefficients.shape
    basis = RepBasis.__new__(RepBasis)  # RepBasis itself takes amplitudes only
    basis.kind, basis.conjugated, basis._comb = kind, False, (side, points, coefficients)
    basis.M1, basis.M2 = (C, V) if side == "position" else (V, C)
    return basis if np.array_equal(np.sort(points, axis=1), np.arange(basis.M).reshape(-1, C).T) \
        else _plain(basis)


def _plain(basis: RepBasis) -> RepBasis:
    """The one-class comb of basis' dense rows, where a point given twice in a class
    holds the sum of its coefficients."""
    amps = _rows(basis, np.arange(basis.M), scatter=np.add.at)
    return RepBasis(basis.kind, basis.M1, basis.M2, amps.reshape(basis.M1, basis.M2, basis.M))


def _rows(basis: RepBasis, labels: np.ndarray, scatter=np.ndarray.__setitem__) -> np.ndarray:
    """The dense amplitudes of the vectors at a run of labels, row-major (q1, k2): the
    comb's coefficients scattered onto their class points (assigned, or added by _plain's
    np.add.at), through the inverse DFT on the momentum side."""
    side, points, coefficients = basis._comb
    C, V, _ = coefficients.shape
    c, v = np.divmod(labels, V) if side == "position" else np.divmod(labels, C)[::-1]
    out = np.zeros((len(labels), basis.M), dtype=np.complex128)
    scatter(out, (np.arange(len(labels))[:, None], points[c]), coefficients[c, v])
    return _dft(out, inverse=True, out=out) if side == "momentum" else out


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
    q01 = _labels("q01", q01, split.M1, scalar=True)
    k02 = _labels("k02", k02, split.M2, scalar=True)
    amps = np.zeros(split.M, dtype=np.complex128)
    q2 = np.arange(split.M2)
    row = crt_compose(split, q01, q2)  # crt_grid(split)[q01]
    amps[row] = omega_power(split.M2, split.N2 * k02 * q2) / math.sqrt(split.M2)
    return StateVector(amps)


def build_E_pos(M: int, M1: int) -> RepBasis:
    """vector(q1,k2) = (1/sqrt(M2)) sum_q2 omega_M2**(k2*q2) |q1 + q2*M1>.

    Defined for any divisor M1 of M; no coprimality needed.
    """
    M2 = _cofactor(M, M1)  # Cooley-Tukey table index[q1, q2] = q1 + q2*M1
    return _comb(BasisKind.E_POS, "position", np.arange(M, dtype=np.intp).reshape(M2, M1).T, 1)


def build_E_mom(M: int, M1: int) -> RepBasis:
    """vector(q1,k2) = (1/sqrt(M1)) sum_k1 omega_M1**(-k1*q1) |k2 + k1*M2>.

    Defined for any divisor M1 of M; no coprimality needed.
    """
    M2 = _cofactor(M, M1)  # Cooley-Tukey table index[k1, k2] = k2 + k1*M2
    return _comb(BasisKind.E_MOM, "momentum", np.arange(M, dtype=np.intp).reshape(M1, M2), 1)


def build_basis(kind: BasisKind, M: int, M1: int) -> RepBasis:
    """Dispatch on kind; C kinds require a coprime split."""
    if kind.needs_coprime:
        try:
            split = make_split(M, M1)
        except NonCoprimeError as exc:
            raise NonCoprimeError(f"{kind.value} requires gcd(M1, M2) = 1; {exc}") from None
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
    return StateVector(np.conj(state.momentum_amplitudes()))


def conjugate_basis(basis: RepBasis) -> RepBasis:
    """Conjugate every vector and relabel: orientation (M1, M2) -> (M2, M1),
    vector (q1, k2) -> (k2, q1)."""
    amps = _rows(basis, np.arange(basis.M)).reshape(basis.M1, basis.M2, basis.M)
    amps = np.conj(_dft(amps))
    return RepBasis(basis.kind, basis.M2, basis.M1, amps.transpose(1, 0, 2).copy(),
                    conjugated=not basis.conjugated)


def factor_kernel(split: CoprimeSplit, k1, q1) -> complex | np.ndarray:
    """<k1|q1> = omega_M1**(-q1*k1*N1) / sqrt(M1) for the first factor.

    Labels are integers or broadcasting integer arrays in [0, M1). The second
    factor's kernel is factor_kernel(split.swapped(), k2, q2), and the product
    of the two equals <k|q> under CRT-composed labels.
    """
    k1, q1 = _labels("k1", k1, split.M1), _labels("q1", q1, split.M1)
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


def _label_blocks(M: int, temporaries: int = 1) -> list[np.ndarray]:
    """Runs of a multiple of 16 labels, the last of two or more, so that a block's matmul
    gives the whole product's bytes: BLAS tiles labels in small multiples, one alone apart.
    A block's temporaries of M complex entries a label share _SCRATCH_BYTES."""
    step = 16 * max(1, _SCRATCH_BYTES // (16 * 16 * M * temporaries))
    return np.split(np.arange(M), range(step, M - 1, step))


def _class_blocks(basis: RepBasis, points: np.ndarray):
    """Class c's (V, S) block on demand: the comb's coefficients of class c at points[c]
    (permuted into points' order unless they are its own, compared by value). points are
    those of a comb on basis' side with its class count: _comb_basis made both claims
    residue classes, so class c of each holds the same points."""
    _, own, coefficients = basis._comb
    if np.array_equal(own, points):
        return coefficients.__getitem__
    at = np.argsort(own, axis=None) % own.shape[1]  # each point's place in its class of own
    return lambda c: coefficients[c][:, at[points[c]]]


def _product(a: RepBasis, b: RepBasis) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """a^H b as blocks g[ix_(rows, cols)] over ascending labels, exact zeros outside
    them. Of the two combs, c has the smaller class. With the other on c's side with as
    many classes, so the same ones (see _comb_basis): square blocks of whole classes,
    each class's blocks read in turn; else c's classes gather a block of the other's
    labels on c's side (M * class size work each)."""
    M, every = a.M, np.arange(a.M)
    c, other = (a, b) if a._comb[1].shape[1] <= b._comb[1].shape[1] else (b, a)
    side, points, coefficients = c._comb
    C, V, _ = coefficients.shape
    if other._comb[0] == side and len(other._comb[1]) == C:  # classes of one size: c is a
        # n classes of V vectors per square block, exact zeros between classes
        kc, ko = _class_blocks(c, points), _class_blocks(other, points)
        grid = np.arange(M).reshape((C, V) if side == "position" else (V, C))  # the labels
        step = max(1, math.isqrt(_SCRATCH_BYTES // 16) // V)
        for classes in np.split(np.arange(C), range(step, C, step)):
            n = len(classes)
            labels = (grid[classes] if side == "position" else grid[:, classes]).ravel()
            if n == 1 and V * V * 16 > _SCRATCH_BYTES:  # a class's rows in label blocks
                kb = ko(classes[0]).T
                for r in _label_blocks(V):
                    yield labels[r], labels, kc(classes[0])[r].conj() @ kb
                del kb  # before the next class's is read
                continue
            g = np.zeros((n, V, n, V) if side == "position" else (V, n, V, n), np.complex128)
            view = g if side == "position" else g.transpose(1, 0, 3, 2)
            for k, cls in enumerate(classes):
                np.matmul(kc(cls).conj(), ko(cls).T, out=view[k, :, k, :])
            yield labels, labels, g.reshape(n * V, n * V)
        return
    kc = np.conj(coefficients)
    for labels in _label_blocks(M):
        run = _rows(other, labels)
        run = run if side == "position" else _dft(run)
        g = np.empty((C, V, len(labels)) if side == "position" else (V, C, len(labels)),
                     np.complex128)
        np.matmul(kc, run.T[points], out=g if side == "position" else g.swapaxes(0, 1))
        g = g.reshape(M, -1)
        yield (every, labels, g) if c is a else (labels, every, np.conjugate(g, out=g).T)


def _worst(found, dev, rows, cols):
    """The larger of found, a running (value, (row, col)) or None, and the largest entry
    of the block dev at labels (rows[y], cols[x]); a NaN counts as largest and a tie
    goes to the first label pair in row-major order."""
    y, x = divmod(int(np.argmax(dev)), dev.shape[1])  # argmax takes the first NaN
    value, at = float(dev[y, x]), (int(rows[y]), int(cols[x]))
    rank = lambda v: (v != v, 0.0 if v != v else v)  # a NaN above every number
    if found is None or rank(value) > rank(found[0]) or rank(value) == rank(found[0]) \
            and at < found[1]:
        return value, at
    return found


def _scan(a: RepBasis, b: RepBasis, modulus: bool) -> tuple[np.ndarray, float, str]:
    """a^H b reduced block by block: its diagonal, the _worst of |g| off it and
    |g - 1| (or ||g| - 1|) on it, and the label pair where that sits."""
    diag, found = np.empty(a.M, dtype=np.complex128), None
    for rows, cols, block in _product(a, b):
        j = np.searchsorted(cols, rows)
        i = np.flatnonzero(cols.take(j, mode="clip") == rows)  # rows whose label is a column's
        diag[rows[i]] = d = block[i, j[i]]
        dev = np.abs(block)
        dev[i, j[i]] = np.abs((np.abs(d) if modulus else d) - 1.0)
        found = _worst(found, dev, rows, cols)
    return diag, found[0], _pair(a, b, *found[1])


def _pair(a: RepBasis, b: RepBasis, i: int, j: int) -> str:
    """The location of a's label i against b's label j, labels in row-major (q1, k2) order."""
    (q1, k2), (r1, r2) = divmod(i, a.M2), divmod(j, b.M2)
    return f"worst at (q1={q1}, k2={k2}) x (q1={r1}, k2={r2})"


# Claimed closed forms for the diagonal phase of each cross-basis overlap of the
# factorization (M1, M2), as integer exponents of omega_M. Off-diagonal entries vanish
# for all pairs. Only the C-E forms read an inverse co-factor (N1 = M2^-1 mod M1,
# N2 = M1^-1 mod M2, as in CoprimeSplit), so the E pair is compared at any factorization.
# The brute-force overlap is always the truth source; compare_cross_phases
# records a discrepancy wherever a measured exponent differs from these.
CROSS_PHASE_FORMS = {
    (BasisKind.C1, BasisKind.C2): lambda M1, M2, q1, k2: 0,
    (BasisKind.C1, BasisKind.E_MOM): lambda M1, M2, q1, k2: k2 * q1 * mod_inverse(M2, M1) * M2,
    (BasisKind.C2, BasisKind.E_POS): lambda M1, M2, q1, k2: -k2 * q1 * mod_inverse(M1, M2) * M1,
    (BasisKind.E_MOM, BasisKind.E_POS): lambda M1, M2, q1, k2: k2 * q1,
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
    when the structure itself is broken. A fail's worst names the label pair
    of the largest modulus error when it exceeds tol, else (only phases miss a
    root) the diagonal pair of the largest exponent residual.
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
    M = basis_a.M
    if tol is None:
        tol = default_tolerance(M)
    diag, max_mod_err, worst = overlap or _scan(basis_a, basis_b, modulus=True)

    measured, residual = phase_exponent(diag, M)
    max_residual, (_, at) = _worst(None, residual[None], (0,), np.arange(M))
    q1, k2 = np.divmod(np.arange(M), basis_a.M2)  # labels in row-major (q1, k2) order
    claimed = np.broadcast_to(CROSS_PHASE_FORMS[key](basis_a.M1, basis_a.M2, q1, k2), (M,)) % M
    mismatches = tuple(  # a NaN phase has no exponent to list
        PhaseDiscrepancy(TorusLabel(int(q1[i]), int(k2[i])), int(measured[i]), int(claimed[i]))
        for i in np.flatnonzero((measured != claimed) & (residual == residual)))

    if not max_mod_err <= tol:  # a NaN error passes no tolerance
        status = "fail"
    elif not max_residual < PHASE_EXPONENT_RESIDUAL_TOL:  # a phase off every root
        status, worst = "fail", _pair(basis_a, basis_b, at, at)
    elif mismatches:
        status = "discrepancy"
    else:
        status = "pass"
    return OverlapComparison(basis_a.kind, basis_b.kind, status, max_mod_err, max_residual,
                             mismatches, worst if status == "fail" else "")


def _eigen_deviations(basis: RepBasis) -> tuple[float, str]:
    """The _worst residual norm of a vector under its two eigen-relations, and the label
    and relation (clock, then translate) where it sits. Each relation (s, a, b) acts on a
    comb's coefficients, in momentum as F^H op F: the one at class point p, times
    omega_M**(a*p + b), moves to p - s, in its class when C classes divide s (a claim's
    classes are residue classes, see _comb_basis). A comb whose classes a shift does not
    keep is read as the one class of its dense rows, which every shift keeps. A block
    holds whole classes, or a run of the vectors of one too large alone."""
    M, M1, M2 = basis.M, basis.M1, basis.M2
    side, points, coefficients = basis._comb
    ops = [clock(M, M1), translate(M, M1 % M)]
    acting = [_fourier_conjugate(op) for op in ops] if side == "momentum" else ops
    if any(op.shift % len(points) for op in acting):
        (side, points, coefficients), acting = _plain(basis)._comb, ops
    (C, V, S), found = coefficients.shape, None
    at = np.argsort(points, axis=None) % S  # each point's place in its class
    moves = [(at[(points + op.shift) % M],  # where the coefficient each point takes sits
              omega_power(M, op.phase_slope * (points + op.shift) + op.phase_offset))
             for op in acting]
    labels = np.arange(M).reshape(C, V) if side == "position" else np.arange(M).reshape(V, C).T
    eigenvalues = omega_power(M1, labels // M2), omega_power(M2, labels % M2)  # [class, vector]
    step = _SCRATCH_BYTES // (16 * 4 * V * S)  # whole classes, 4 temporaries an entry
    runs = [(c, c + step, 0, V) for c in range(0, C, step)] if step else [
        (c, c + 1, r[0], r[-1] + 1) for c in range(C) for r in _label_blocks(V, temporaries=4)]
    for c0, c1, v0, v1 in runs:
        block = coefficients[c0:c1, v0:v1]
        dev = np.empty(block.shape[:2] + (2,))
        for k, ((src, phase), eigenvalue) in enumerate(zip(moves, eigenvalues)):
            moved = np.take_along_axis(block, src[c0:c1, None], axis=2)
            np.multiply(phase[c0:c1, None], moved, out=moved)
            moved -= eigenvalue[c0:c1, v0:v1, None] * block
            dev[..., k] = np.linalg.norm(moved, axis=-1)
        run = labels[c0:c1, v0:v1]
        if side == "momentum":  # labels run along the vectors, then the classes
            dev, run = dev.swapaxes(0, 1), run.T
        found = _worst(found, dev.reshape(-1, 2), run.ravel(), (0, 1))
    (q1, k2), relation = divmod(found[1][0], M2), ("clock", "translate")[found[1][1]]
    return found[0], f"worst at (q1={q1}, k2={k2}), {relation} relation"


def eigen_residuals(basis: RepBasis) -> float:
    """Max residual of both defining eigen-relations over all basis vectors.

    Relations: clock(M, M1) v = omega_M1**q1 v and
    translate(M, M1) v = omega_M2**k2 v (the step size M1 equals L2 = M/M2).
    """
    return _eigen_deviations(basis)[0]
