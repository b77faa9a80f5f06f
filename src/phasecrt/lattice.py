"""Phase-space lattices, mixed-representation matrix elements, classification.

The phase space is the M x M grid of (q, k) labels; each point stands for a
cell of area 2*pi/M (hbar = 1). A lattice for split (M1, M2) has q-spacing M1
and k-spacing M2, optionally shifted, and always holds exactly M points. A
state sits over such a lattice when |<q|rho|k>| = 1/sqrt(M) on every lattice
point and vanishes elsewhere; that state then covers total area 2*pi exactly.

The mixed-element, support and classification functions take a StateVector
or a DensityMatrix and nothing else, so every matrix input has passed the
DensityMatrix checks. For a pure state |<q|psi><psi|k>| = |psi(q)| * |psi~(k)|,
so classifying a StateVector needs one FFT and no (M, M) array; a
DensityMatrix is read through rho @ F as one row FFT, O(M^2 log M), no F.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import StateVector, default_tolerance, norm_tolerance
from .numtheory import CoprimeSplit


@dataclass(frozen=True, order=True)
class PhasePoint:
    q: int
    k: int


@dataclass(frozen=True)
class VNLattice:
    split: CoprimeSplit
    shift_q: int = 0
    shift_k: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.shift_q < self.split.M1:
            raise ValueError(f"shift_q={self.shift_q} out of range [0, {self.split.M1})")
        if not 0 <= self.shift_k < self.split.M2:
            raise ValueError(f"shift_k={self.shift_k} out of range [0, {self.split.M2})")


def lattice_points(lattice: VNLattice) -> frozenset[PhasePoint]:
    """The M points (shift_q + n*M1 mod M, shift_k + m*M2 mod M)."""
    s = lattice.split
    return frozenset(
        PhasePoint((lattice.shift_q + n * s.M1) % s.M, (lattice.shift_k + m * s.M2) % s.M)
        for n in range(s.M2)
        for m in range(s.M1)
    )


class DensityMatrix:
    """Hermitian unit-trace M x M matrix; positivity is not checked."""

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        arr = np.array(matrix, dtype=np.complex128)
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] < 2:
            raise ValueError("matrix must be square with dim >= 2")
        if not np.all(np.isfinite(arr)):
            raise ValueError("matrix entries must be finite")
        M = arr.shape[0]
        herm = float(np.max(np.abs(arr - arr.conj().T)))
        if herm >= norm_tolerance(M):
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = complex(np.trace(arr))
        if abs(tr - 1.0) >= norm_tolerance(M):
            raise ValueError(f"trace is {tr}, expected 1")
        arr.setflags(write=False)
        self.matrix = arr

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        v = state.amplitudes
        n2 = float(np.sum(np.abs(v) ** 2))
        return cls(np.outer(v, v.conj()) / n2)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def mixed_element_matrix(rho: StateVector | DensityMatrix) -> np.ndarray:
    """<q|rho|k> for all (q, k); rows position, columns momentum; rho @ F is a row ifft."""
    if isinstance(rho, StateVector):
        return np.outer(rho.amplitudes, np.conj(rho.momentum_amplitudes()))
    if isinstance(rho, DensityMatrix):
        return np.fft.ifft(rho.matrix, axis=1, norm="ortho")
    raise ValueError(f"expected a StateVector or DensityMatrix, got {type(rho).__name__}")


def default_support_threshold(M: int) -> float:
    """An order below the smallest legitimate magnitude 1/sqrt(M), far above noise."""
    return 1e-6 / math.sqrt(M)


def _support_threshold(M: int, threshold: float | None) -> float:
    """The one threshold rule: None means default_support_threshold(M); any
    other value must be finite and positive."""
    t = default_support_threshold(M) if threshold is None else threshold
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    return t


def _pure_magnitudes_and_support(psi: StateVector, t: float):
    """|<q|psi><psi|k>| = a[q]*b[k] (a = |psi|, b = |psi~|) without an (M, M) array:
    a[q]*x is monotone in x, so one sort of b counts the pairs a[q]*b[k] > t exactly.
    The block reads the complex entries of mixed_element_matrix(psi), as the dense path."""
    v, vk = psi.amplitudes, psi.momentum_amplitudes()
    a, b = np.abs(v), np.abs(vk)
    M = a.size
    bs = np.sort(b)
    with np.errstate(divide="ignore", over="ignore"):
        start = np.searchsorted(bs, t / a, side="right")
    while True:  # t / a is rounded: step each row to the exact start of a*bs > t
        down = (start > 0) & (a * bs[np.maximum(start - 1, 0)] > t)
        up = (start < M) & (a * bs[np.minimum(start, M - 1)] <= t)
        if not (down.any() or up.any()):
            break
        start += up.astype(np.intp) - down
    q = int(np.argmax(a * bs[-1] > t))  # the first row with support, then its first k
    return (M, t, int(np.sum(M - start)), (q, int(np.argmax(a[q] * b > t))),
            lambda rows, cols: np.abs(np.outer(v[rows], np.conj(vk[cols]))))


def _magnitudes_and_support(rho, threshold: float | None):
    """(dim, t, support count, first row-major support point, block) for |<q|rho|k>| > t,
    where block(rows, cols) reads the magnitudes at two label slices."""
    if isinstance(rho, StateVector):
        return _pure_magnitudes_and_support(rho, _support_threshold(rho.dim, threshold))
    if not isinstance(rho, DensityMatrix):
        raise ValueError(f"expected a StateVector or DensityMatrix, got {type(rho).__name__}")
    t = _support_threshold(rho.dim, threshold)
    mm = np.abs(mixed_element_matrix(rho))  # |rho @ F| by one row FFT, no F
    mask = mm > t
    first = divmod(int(np.argmax(mask)), mm.shape[1])
    return mm.shape[0], t, int(np.count_nonzero(mask)), first, lambda rows, cols: mm[rows, cols]


def support(
    rho: StateVector | DensityMatrix, threshold: float | None = None
) -> tuple[PhasePoint, ...]:
    """Phase points where |<q|rho|k>| exceeds threshold, row-major in (q, k)."""
    _, t, _, _, block = _magnitudes_and_support(rho, threshold)
    qs, ks = np.nonzero(block(slice(None), slice(None)) > t)
    return tuple(PhasePoint(int(q), int(k)) for q, k in zip(qs, ks))


@dataclass(frozen=True)
class NotVN:
    """Negative classification outcome; a value, not an error."""

    reason: str
    detail: str = ""


def classify_vn_state(
    rho: StateVector | DensityMatrix, split: CoprimeSplit, threshold: float | None = None
) -> VNLattice | NotVN:
    """The shifted lattice carrying rho, or NotVN with the violated condition.

    A positive answer requires the support to equal one shifted lattice of the
    given split exactly, with every on-support magnitude within tolerance of
    1/sqrt(M). A StateVector's support is counted from |psi(q)| * |psi~(k)| by
    one sort (O(M log M)); a DensityMatrix's is read from |rho @ F| by one row FFT.
    """
    M = split.M
    dim, t, count, (first_q, first_k), block = _magnitudes_and_support(rho, threshold)
    if count != M:
        return NotVN("wrong count", f"support has {count} points, expected {M}")
    lattice = VNLattice(split, first_q % split.M1, first_k % split.M2)
    on_lattice = block(slice(lattice.shift_q, None, split.M1),
                       slice(lattice.shift_k, None, split.M2))
    # M points above t, all of them on the lattice: the support is the lattice
    if dim != M or not np.all(on_lattice > t):
        return NotVN(
            "wrong support geometry",
            f"support is not the {split.describe()} lattice shifted to "
            f"({lattice.shift_q}, {lattice.shift_k})",
        )
    dev = float(np.max(np.abs(on_lattice - 1.0 / math.sqrt(M))))
    if dev >= default_tolerance(M):
        return NotVN("non-uniform magnitude", f"max deviation from 1/sqrt(M) is {dev:.3e}")
    return lattice
