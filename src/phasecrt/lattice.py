"""Phase-space lattices, mixed-representation matrix elements, classification.

The phase space is the M x M grid of (q, k) labels; each point stands for a
cell of area 2*pi/M (hbar = 1). A lattice for split (M1, M2) has q-spacing M1
and k-spacing M2, optionally shifted, and always holds exactly M points. A
state sits over such a lattice when |<q|rho|k>| = 1/sqrt(M) on every lattice
point and vanishes elsewhere. A state's area is its support count times
2*pi/M, so it is exactly 2*pi unless the classifier finds a support of other
than M points (NotVN "wrong count").

The mixed-element, support and classification functions take a StateVector
or a DensityMatrix and nothing else, so every matrix input has passed the
DensityMatrix checks. support() thresholds |mixed_element_matrix(rho)|. For a
pure state |<q|psi><psi|k>| = |psi(q)| * |psi~(k)|, so classifying a
StateVector needs one FFT and no (M, M) array: its support is counted on its
bounding rectangle (at most M products, as for every VN verdict) or else on
one sort. The classifier streams a DensityMatrix: |rho @ F| is read one row
block at a time, each block a row FFT (O(M^2 log M) in all, no F) into buffers
allocated once per verdict, and only the lattice magnitudes are kept, so
rho.matrix is the only (M, M) array of a dense verdict. DensityMatrix checks
its Hermitian residual over tiles and reads finiteness only where a residual is
not finite; from_state keeps the outer product it builds without a copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import _SCRATCH_BYTES, StateVector, _complex_array, _dft, default_tolerance, norm_tolerance
from .numtheory import CoprimeSplit, _dimension, _labels


@dataclass(frozen=True, order=True)
class PhasePoint:
    q: int
    k: int


@dataclass(frozen=True)
class VNLattice:
    split: CoprimeSplit
    shift_q: int = 0
    shift_k: int = 0

    def __post_init__(self) -> None:  # the label rule's ints, which do not wrap
        M1, M2 = self.split.M1, self.split.M2
        object.__setattr__(self, "shift_q", _labels("shift_q", self.shift_q, M1, scalar=True))
        object.__setattr__(self, "shift_k", _labels("shift_k", self.shift_k, M2, scalar=True))


# Every ufunc of a Hermitian-check tile pair reads and writes contiguous scratch: on a
# strided operand numpy would allocate a buffer of its own. A tile pair: two complex
# tiles and one float residual tile
_TILE = math.isqrt(_SCRATCH_BYTES // (2 * 16 + 8))


def _block_rows(M: int) -> int:
    """Rows of one classifier block: its complex inverse DFT, float magnitudes and
    bool support take 25 bytes an entry."""
    return min(M, max(1, _SCRATCH_BYTES // ((16 + 8 + 1) * M)))


def _hermitian_residual(arr: np.ndarray) -> float:
    """max|arr - arr^H| bit for bit, read over square tiles of the upper triangle.

    |a_ij - conj(a_ji)| is symmetric under transposition, so each pair of mirrored
    tiles is read once: tile (i, j) and the transpose of tile (j, i) are copied side
    by side into flat scratch. Only a non-finite tile residual reads arr for
    finiteness: a ValueError if an entry, wherever it sits, is not finite, else the
    residual is past the floats, inf. Run it with overflow and invalid warnings off.
    """
    M = arr.shape[0]
    side = min(M, _TILE)
    pair, mag = np.empty(2 * side * side, dtype=np.complex128), np.empty(side * side)
    herm = 0.0
    for i in range(0, M, side):
        for j in range(i, M, side):
            a = arr[i:i + side, j:j + side]
            n = a.size
            ours, theirs = pair[:n], pair[n:2 * n]
            np.copyto(ours.reshape(a.shape), a)
            np.copyto(theirs.reshape(a.shape), arr[j:j + side, i:i + side].T)
            np.subtract(ours, np.conjugate(theirs, out=theirs), out=theirs)
            h = float(np.maximum.reduce(np.abs(theirs, out=mag[:n])))
            if not math.isfinite(h):  # max() would drop a NaN
                if not np.isfinite(arr).all():
                    raise ValueError("matrix entries must be finite")
                return math.inf
            herm = max(herm, h)
    return herm


class DensityMatrix:
    """Hermitian unit-trace M x M matrix; positivity is not checked.

    DensityMatrix(matrix) validates a copy of matrix; from_state validates the
    outer product it builds and keeps it without a copy.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix):
        self._adopt(_complex_array("matrix entries", matrix))

    @classmethod
    def from_state(cls, state: StateVector) -> "DensityMatrix":
        v = state.amplitudes
        with np.errstate(over="ignore"):
            n2 = float(np.sum(np.abs(v) ** 2))
        if not (n2 and math.isfinite(n2) and math.isfinite(1 / n2)):  # 0 for a tiny state too
            why = f"a squared norm of {n2}" if v.any() else "the zero vector"
            raise ValueError(f"cannot build a density matrix from {why}")
        m = np.outer(v, v.conj())
        m *= 1 / n2  # equals np.outer(...) / n2 up to the sign of a zero part
        rho = cls.__new__(cls)
        rho._adopt(m)
        return rho

    @np.errstate(over="ignore", invalid="ignore")  # a sum past the floats is inf
    def _adopt(self, arr: np.ndarray) -> None:
        """Validate arr and keep it, read-only, as the matrix: a non-finite
        entry is reported before a non-Hermitian one, that before the trace."""
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
            raise ValueError("matrix must be square")
        M = _dimension(arr.shape[0])
        herm = _hermitian_residual(arr)
        if herm >= norm_tolerance(M):
            raise ValueError(f"matrix is not Hermitian (residual {herm:.3e})")
        tr = complex(np.trace(arr))
        if not abs(tr - 1.0) < norm_tolerance(M):  # a NaN trace fails too
            raise ValueError(f"trace is {tr}, expected 1")
        arr.setflags(write=False)
        self.matrix = arr

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _dim(rho) -> int:
    """rho's dimension; a bare array would skip the DensityMatrix checks."""
    if not isinstance(rho, (StateVector, DensityMatrix)):
        raise ValueError(f"expected a StateVector or DensityMatrix, got {type(rho).__name__}")
    return rho.dim


def mixed_element_matrix(rho: StateVector | DensityMatrix) -> np.ndarray:
    """<q|rho|k> for all (q, k); rows position, columns momentum; rho @ F = inverse row DFT."""
    _dim(rho)
    if isinstance(rho, StateVector):
        return np.outer(rho.amplitudes, np.conj(rho.momentum_amplitudes()))
    return _dft(rho.matrix, inverse=True)


def default_support_threshold(M: int) -> float:
    """An order below the smallest legitimate magnitude 1/sqrt(M), far above noise."""
    return 1e-6 / math.sqrt(_dimension(M))


def _support_threshold(M: int, threshold: float | None) -> float:
    """The one threshold rule: None means default_support_threshold(M); any
    other value must be finite and positive."""
    t = default_support_threshold(M) if threshold is None else threshold
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"threshold must be finite and positive, got {threshold}")
    return t


def _pure_support(psi: StateVector, t: float, M1: int, M2: int):
    """(count, first row-major point, lattice) of |<q|psi><psi|k>| > t, where lattice()
    reads the least counted product and the magnitudes on the (M1, M2) lattice through
    the first point; classify reads the point only at count M, where it is exact. The
    count takes |<q|psi><psi|k>| as a[q]*b[k] (a = |psi|, b = |psi~|), no (M, M) array.
    A rounded product is monotone in each factor, so the support has exactly the rows
    a[q]*max(b) > t and the columns b[k]*max(a) > t, and a lattice's least product is
    that of its least factors, so none overflows if 2*max(a)*max(b) (2 for the sum in a
    complex product) does not. A bounding rectangle of at most M products (every
    lattice's: M2 rows by M1 columns) is compared in one broadcast, a larger one counted
    on one sort of b. The magnitudes, |mixed_element_matrix(psi)|, round apart from
    the products, so the products alone decide the geometry."""
    v, vk = psi.amplitudes, psi.momentum_amplitudes()
    a, b = np.abs(v), np.abs(vk)
    a_max, b_max = a.max(), b.max()
    if math.isfinite(2.0 * float(a_max) * float(b_max)):  # once, on Python floats
        return _product_support(v, vk, a, b, a_max, b_max, t, M1, M2)
    quiet = np.errstate(over="ignore", invalid="ignore")  # an overflowed product is inf
    count, first, read_lattice = quiet(_product_support)(v, vk, a, b, a_max, b_max, t, M1, M2)
    return count, first, quiet(read_lattice)


def _product_support(v, vk, a, b, a_max, b_max, t, M1, M2):
    (rows,), (cols,) = (a * b_max > t).nonzero(), (b * a_max > t).nonzero()
    if rows.size * cols.size > a.size:
        q = int(rows[0])
        count, k = _sort_count(a[rows], b, t), int((a[q] * b > t).argmax())
    else:  # M points in at most M products fill the rectangle: its corner comes first
        count = int(np.count_nonzero(np.multiply.outer(a[rows], b[cols]) > t))
        q, k = (int(rows[0]), int(cols[0])) if count else (0, 0)
    r, c = slice(q % M1, None, M1), slice(k % M2, None, M2)  # the lattice's rows, columns
    return count, (q, k), lambda: (a[r].min() * b[c].min(), np.abs(np.multiply.outer(v[r], vk[c].conj())))


def _sort_count(a: np.ndarray, b: np.ndarray, t: float) -> int:
    """The pairs a[i]*b[k] > t for positive a, exactly, on one sort of b."""
    bs, M = np.sort(b), b.size
    start = bs.searchsorted(t / a, side="right")
    while True:  # t / a is rounded: step each row to the exact start of a*bs > t
        down = (start > 0) & (a * bs.take(start - 1, mode="clip") > t)
        up = (start < M) & (a * bs.take(start, mode="clip") <= t)
        if not (down.any() or up.any()):
            return int((M - start).sum())
        start += up.astype(np.intp) - down


@np.errstate(over="ignore", invalid="ignore")
def _dense_support(rho: DensityMatrix, t: float, M1: int, M2: int):
    """(count, first row-major point, lattice) of |rho @ F| > t, as _pure_support.

    |rho @ F| is read one row block at a time, each block the rows' inverse DFT (bit for
    bit the rows of mixed_element_matrix(rho)) in buffers allocated once per verdict;
    only the magnitudes on the lattice through the first support point are kept.
    Lattice rows before the first support row hold no support; they are kept as 0,
    which fails the lattice test as their true magnitudes would. A magnitude past the
    floats is inf and counted, a NaN one is not, and neither warns.
    """
    m = rho.matrix
    M = m.shape[0]
    rows = _block_rows(M)
    z, mags, hits = (np.empty((rows, M), dtype=d) for d in (np.complex128, np.float64, bool))
    count, first, on_lattice = 0, (0, 0), None
    for i in range(0, M, rows):
        n = min(rows, M - i)
        mag = np.abs(_dft(m[i:i + n], inverse=True, out=z[:n]), out=mags[:n])
        hit = np.greater(mag, t, out=hits[:n])
        count += int(np.count_nonzero(hit))
        if on_lattice is None:
            if not hit.any():
                continue
            first = divmod(i * M + int(hit.argmax()), M)
            sq, sk = first[0] % M1, first[1] % M2
            on_lattice = np.zeros((len(range(sq, M, M1)), len(range(sk, M, M2))))
        r = (sq - i) % M1  # the block's first lattice row, lattice row j of rho
        j, block = (i + r - sq) // M1, mag[r::M1, sk::M2]
        on_lattice[j:j + len(block)] = block
    return count, first, lambda: (on_lattice.min(), on_lattice)


def support(
    rho: StateVector | DensityMatrix, threshold: float | None = None
) -> tuple[PhasePoint, ...]:
    """Phase points where |<q|rho|k>| exceeds threshold, row-major in (q, k)."""
    t = _support_threshold(_dim(rho), threshold)
    qs, ks = np.nonzero(np.abs(mixed_element_matrix(rho)) > t)
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
    1/sqrt(M). A StateVector's support is counted from |psi(q)| * |psi~(k)| on its
    bounding rectangle (every VN verdict's holds M products), else on one sort; a
    DensityMatrix's is read from |rho @ F| one row block at a time (a row FFT into
    reused scratch), so rho.matrix is the only (M, M) array the verdict touches.
    """
    M, M1, M2 = split.M, split.M1, split.M2
    t = _support_threshold(_dim(rho), threshold)
    read = _pure_support if isinstance(rho, StateVector) else _dense_support
    count, (first_q, first_k), read_lattice = read(rho, t, M1, M2)
    if count != M:
        return NotVN("wrong count", f"support has {count} points, expected {M}")
    shift_q, shift_k = first_q % M1, first_k % M2
    least, on_lattice = read_lattice()
    # M points above t, all of them on the lattice: the support is the lattice
    if rho.dim != M or not least > t:
        return NotVN(
            "wrong support geometry",
            f"support is not the {split.describe()} lattice shifted to ({shift_q}, {shift_k})",
        )
    x = 1.0 / math.sqrt(M)  # dev is max|m - x| bit for bit: rounding is monotone and symmetric
    dev = max(float(on_lattice.max()) - x, x - float(on_lattice.min()))
    if not dev < default_tolerance(M):  # a NaN magnitude fails too
        return NotVN("non-uniform magnitude", f"max deviation from 1/sqrt(M) is {dev:.3e}")
    return VNLattice(split, shift_q, shift_k)
