"""States and structured unitaries of an M-dimensional space.

Conventions, fixed once for the whole package (c = hbar = 1):

* omega_M = exp(2j*pi/M); the momentum label k stands for p = 2*pi*k/M.
* Fourier kernel <q|k> = omega_M**(q*k) / sqrt(M); <k|q> is its conjugate.
  Every entry of F is formed by _fourier_entries, every transform is _dft, and
  _fourier_conjugate follows from the two.

Every operator is monomial: |q> -> omega_M**(a*q + b) |q - s>, with
(s, a, b) kept as exact integers mod M, so operator identities are integer
statements; floats enter only through one cached table of the M roots per M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .numtheory import _cofactor, _dimension, _integer, _labels

# Root-of-unity exponents are found by rounding arg*M/(2*pi) to an integer;
# the rounding residual must stay below this.
PHASE_EXPONENT_RESIDUAL_TOL = 1e-6

# Scratch budget, in bytes, of one block that stands in for an (M, M) array:
# a block of a basis product, a Hermitian-check tile pair, a classifier row block.
_SCRATCH_BYTES = 1 << 18


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


def default_tolerance(M: int) -> float:
    """Amplitude comparison tolerance, scaled for roundoff in M-term sums."""
    return 1e-9 * math.sqrt(_dimension(M))


def norm_tolerance(M: int) -> float:
    """Tolerance on the Hermitian and trace residuals of a DensityMatrix."""
    return 1e-12 * _dimension(M)


@functools.lru_cache(maxsize=32)
def _roots(M: int) -> np.ndarray:
    """The read-only table exp(2j*pi*e/M) for e in [0, M)."""
    roots = np.exp((2j * np.pi / M) * np.arange(M))
    roots.setflags(write=False)
    return roots


def omega_power(M: int, exponent) -> complex | np.ndarray:
    """exp(2j*pi*e/M) for integer e, read bit for bit from the root table at e mod M;
    the order M is an integer >= 1 (order 1 is a 1-point table)."""
    if not _integer(M) or M < 1:  # before _roots' cache, which takes 15.0 for 15
        raise ValueError(f"an order must be an integer >= 1, got {M!r}")
    M, e = int(M), np.asarray(exponent)
    if not np.issubdtype(e.dtype, np.integer):
        raise ValueError(f"exponent must be an integer, got dtype {e.dtype}")
    out = _roots(M)[e % M]
    return complex(out) if e.ndim == 0 else out


def phase_exponent(z, M: int):
    """Nearest integer n with z/|z| = omega_M**n and the residual, per entry (NaN: n = 0)."""
    M = _dimension(M)
    x = np.angle(z) * M / (2.0 * np.pi)
    n = np.round(x)
    e = np.nan_to_num(n).astype(np.int64) % M
    return (int(e) if np.ndim(z) == 0 else e), abs(x - n)


def _complex_array(name: str, values) -> np.ndarray:
    """values as a new complex array; an entry that is not a number is a ValueError."""
    try:
        return np.array(values, dtype=np.complex128)
    except TypeError as e:  # numpy's "must be real number, not dict"
        raise ValueError(f"{name} must be numbers: {e}") from None


class StateVector:
    """A length-M complex amplitude vector over the position basis."""

    __slots__ = ("amplitudes", "_momentum")

    def __init__(self, amplitudes):
        arr = _complex_array("amplitudes", amplitudes)
        if arr.ndim != 1:
            raise ValueError("amplitudes must be a 1-D sequence")
        _dimension(arr.size)
        if not np.isfinite(arr).all():
            raise ValueError("amplitudes must all be finite")
        arr.setflags(write=False)
        self.amplitudes = arr
        self._momentum = None

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def momentum_amplitudes(self) -> np.ndarray:
        """<k|psi> for every k, i.e. the unitary DFT in the package convention.

        A state is immutable, so the DFT is taken on the first call only: every
        call returns that same read-only array.
        """
        if self._momentum is None:
            _fill_momentum([self])
        return self._momentum

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim})"


def _dft(x: np.ndarray, inverse: bool = False, out: np.ndarray | None = None) -> np.ndarray:
    """The unitary DFT along the last axis: position amplitudes to momentum ones,
    <k|x> = sum_q omega_M**(-q*k) x[q] / sqrt(M), or back if inverse. The one
    transform of the package: numpy's fft has the kernel omega_M**(-q*k) = <k|q>."""
    return (np.fft.ifft if inverse else np.fft.fft)(x, axis=-1, norm="ortho", out=out)


def _fill_momentum(states: list[StateVector]) -> np.ndarray:
    """Give fresh states of one dimension their DFTs, taken as one batched FFT, and
    return the stack of their amplitudes that it transformed: a state keeps its row
    of the frozen result. A row FFT does a lone FFT's arithmetic, so the row's bytes
    do not depend on the stack (momentum_amplitudes fills a lone state)."""
    stack = np.stack([state.amplitudes for state in states])
    rows = _dft(stack)
    rows.setflags(write=False)
    for state, row in zip(states, rows):
        state._momentum = row
    return stack


def position_state(M: int, q0: int) -> StateVector:
    """Delta state at position q0."""
    _labels("q0", q0, _dimension(M), scalar=True)
    amps = np.zeros(M, dtype=np.complex128)
    amps[q0] = 1.0
    return StateVector(amps)


def momentum_state(M: int, k0: int) -> StateVector:
    """Plane wave with <q|k0> = omega_M**(q*k0) / sqrt(M): row k0 of the symmetric F."""
    M = _dimension(M)
    return StateVector(_fourier_entries(M, _labels("k0", k0, M, scalar=True), np.arange(M)))


def fourier_matrix(M: int) -> np.ndarray:
    """F[q, k] = <q|k>; the columns are the momentum states."""
    M = _dimension(M)
    return _fourier_entries(M, np.arange(M), np.arange(M))


def _fourier_entries(M: int, rows, cols) -> np.ndarray:
    """F[rows][:, cols] of fourier_matrix(M), the one place F's entries are formed, so every
    reader gets the same bytes; F is symmetric, so row k is also the momentum ket |k>."""
    F = omega_power(M, np.multiply.outer(rows, cols))
    return np.divide(F, math.sqrt(M), out=F)  # in place: F and its exponents at the peak


@dataclass(frozen=True)
class MonomialOperator:
    """Exact unitary |q> -> omega**(phase_slope*q + phase_offset) |q - shift>.

    All three integers live mod dim. Composition and powers (power(-1) is the
    inverse) stay in this class, so operator identities reduce to integer
    comparisons.
    """

    dim: int
    shift: int = 0
    phase_slope: int = 0
    phase_offset: int = 0

    def __post_init__(self) -> None:
        if not all(map(_integer, (self.dim, self.shift, self.phase_slope, self.phase_offset))):
            raise ValueError(f"an operator holds integers only, got {self!r}")
        object.__setattr__(self, "dim", _dimension(self.dim))
        for name in ("shift", "phase_slope", "phase_offset"):  # ints, which do not wrap
            object.__setattr__(self, name, int(getattr(self, name)) % self.dim)

    def is_identity(self) -> bool:
        return self.shift == 0 and self.phase_slope == 0 and self.phase_offset == 0

    def power(self, n: int) -> "MonomialOperator":
        """n-th power in closed form, for every integer n: offset picks up a triangular
        cross term (n*(n - 1) is even for negative n too)."""
        s, a, b = self.shift, self.phase_slope, self.phase_offset
        return MonomialOperator(self.dim, n * s, n * a, n * b - a * s * (n * (n - 1) // 2))

    def __pow__(self, n: int) -> "MonomialOperator":
        return self.power(n)

    def matrix(self) -> np.ndarray:
        M = self.dim
        q = np.arange(M)
        mat = np.zeros((M, M), dtype=np.complex128)
        mat[(q - self.shift) % M, q] = omega_power(M, self.phase_slope * q + self.phase_offset)
        return mat


def clock(M: int, d: int) -> MonomialOperator:
    """Diagonal unitary exp(2j*pi*x/d) = omega_M**(q*(M/d)) on |q>; d must divide M."""
    return MonomialOperator(M, shift=0, phase_slope=_cofactor(M, d))


def translate(M: int, L: int) -> MonomialOperator:
    """Cyclic step exp(i*p*L): |q> -> |q - L>."""
    _labels("L", L, _dimension(M), scalar=True)
    return MonomialOperator(M, shift=L)


def compose(left: MonomialOperator, right: MonomialOperator) -> MonomialOperator:
    """Operator product left*right (right acts first), exact in the exponents."""
    if left.dim != right.dim:
        raise DimensionMismatchError(f"dims differ: {left.dim} vs {right.dim}")
    return MonomialOperator(
        left.dim,
        left.shift + right.shift,
        left.phase_slope + right.phase_slope,
        left.phase_offset + right.phase_offset - left.phase_slope * right.shift,
    )


def _fourier_conjugate(op: MonomialOperator) -> MonomialOperator:
    """F^H op F, op on momentum amplitudes: |k> -> omega**(s*k + a*s + b) |k + a>."""
    s, a, b = op.shift, op.phase_slope, op.phase_offset
    return MonomialOperator(op.dim, -a, s, a * s + b)


def equal_up_to_global_phase(a: MonomialOperator, b: MonomialOperator) -> bool:
    """True when a = omega**n * b for some integer n (offsets may differ)."""
    return a.dim == b.dim and a.shift == b.shift and a.phase_slope == b.phase_slope


def global_phase_exponent(a: MonomialOperator, b: MonomialOperator) -> int:
    """The n with a = omega**n * b; error if they differ beyond a global phase."""
    if not equal_up_to_global_phase(a, b):
        raise ValueError("operators differ by more than a global phase")
    return (a.phase_offset - b.phase_offset) % a.dim


def operator_order(op: MonomialOperator) -> int:
    """Smallest n >= 1 with op**n the exact identity; it divides 2*dim."""
    # op**(2*dim) = 1: its cross term a*s*dim*(2*dim - 1) vanishes mod dim
    two_dim = 2 * op.dim
    return next(n for n in range(1, two_dim + 1)
                if two_dim % n == 0 and op.power(n).is_identity())


def apply(op: MonomialOperator, state: StateVector) -> StateVector:
    """op acting on state by exact index/phase arithmetic."""
    if op.dim != state.dim:
        raise DimensionMismatchError(f"dims differ: {op.dim} vs {state.dim}")
    return StateVector(_apply_rows(op, state.amplitudes))


def _apply_rows(op: MonomialOperator, amps: np.ndarray) -> np.ndarray:
    """op on each row of amps (positions last): phase times amplitude, rolled to q - shift."""
    phases = omega_power(op.dim, op.phase_slope * np.arange(op.dim) + op.phase_offset)
    return np.roll(phases * amps, -op.shift, axis=-1)
