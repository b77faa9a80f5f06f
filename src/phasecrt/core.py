"""States and structured unitaries of an M-dimensional space.

Conventions, fixed once for the whole package (c = hbar = 1):

* omega_M = exp(2j*pi/M); the momentum label k stands for p = 2*pi*k/M.
* Fourier kernel <q|k> = omega_M**(FOURIER_SIGN*q*k) / sqrt(M) with
  FOURIER_SIGN = +1, so <k|q> is its complex conjugate.

Every operator is monomial: |q> -> omega_M**(a*q + b) |q - s>, with
(s, a, b) kept as exact integers mod M, so operator identities are integer
statements; floats enter only through one cached table of the M roots per M.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

FOURIER_SIGN = +1

# Root-of-unity exponents are found by rounding arg*M/(2*pi) to an integer;
# the rounding residual must stay below this.
PHASE_EXPONENT_RESIDUAL_TOL = 1e-6


class DimensionMismatchError(ValueError):
    """Operands live in spaces of different dimension."""


def default_tolerance(M: int) -> float:
    """Amplitude comparison tolerance, scaled for roundoff in M-term sums."""
    return 1e-9 * math.sqrt(M)


def norm_tolerance(M: int) -> float:
    """Tolerance on |sum |a_q|^2 - 1| for states flagged normalized."""
    return 1e-12 * M


@functools.lru_cache(maxsize=32)
def _roots(M: int) -> np.ndarray:
    """The read-only table exp(2j*pi*e/M) for e in [0, M)."""
    roots = np.exp((2j * np.pi / M) * np.arange(M))
    roots.setflags(write=False)
    return roots


def omega_power(M: int, exponent) -> complex | np.ndarray:
    """exp(2j*pi*e/M) for integer e, read bit for bit from the root table at e mod M."""
    e = np.asarray(exponent)
    if not np.issubdtype(e.dtype, np.integer):
        raise ValueError(f"exponent must be an integer, got dtype {e.dtype}")
    out = _roots(M)[e % M]
    return complex(out) if e.ndim == 0 else out


def phase_exponent(z: complex, M: int) -> tuple[int, float]:
    """Nearest integer n with z/|z| = omega_M**n, plus the rounding residual."""
    x = np.angle(z) * M / (2.0 * np.pi)
    n = int(round(x))
    return n % M, abs(x - n)


class StateVector:
    """A length-M complex amplitude vector over the position basis."""

    __slots__ = ("amplitudes", "normalized")

    def __init__(self, amplitudes, normalized: bool = False):
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.ndim != 1 or arr.size < 2:
            raise ValueError("amplitudes must be a 1-D sequence of length >= 2")
        if not np.isfinite(arr).all():
            raise ValueError("amplitudes must all be finite")
        if normalized:
            dev = abs(float((np.abs(arr) ** 2).sum()) - 1.0)
            if dev >= norm_tolerance(arr.size):
                raise ValueError(f"norm deviates from 1 by {dev:.3e}")
        arr.setflags(write=False)
        self.amplitudes = arr
        self.normalized = normalized

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def normalize(self) -> "StateVector":
        n = self.norm()
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return StateVector(self.amplitudes / n, normalized=True)

    def momentum_amplitudes(self) -> np.ndarray:
        """<k|psi> for every k, i.e. the unitary DFT in the package convention."""
        return np.fft.fft(self.amplitudes) / math.sqrt(self.dim)

    def __repr__(self) -> str:
        return f"StateVector(dim={self.dim}, normalized={self.normalized})"


def _check_label(M: int, value: int, name: str) -> None:
    if not 0 <= value < M:
        raise ValueError(f"{name}={value} out of range [0, {M})")


def position_state(M: int, q0: int) -> StateVector:
    """Delta state at position q0."""
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    _check_label(M, q0, "q0")
    amps = np.zeros(M, dtype=np.complex128)
    amps[q0] = 1.0
    return StateVector(amps, normalized=True)


def momentum_state(M: int, k0: int) -> StateVector:
    """Plane wave with <q|k0> = omega_M**(q*k0) / sqrt(M)."""
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    _check_label(M, k0, "k0")
    amps = omega_power(M, FOURIER_SIGN * k0 * np.arange(M)) / math.sqrt(M)
    return StateVector(amps, normalized=True)


def fourier_matrix(M: int) -> np.ndarray:
    """F[q, k] = <q|k>; the columns are the momentum states."""
    F = omega_power(M, np.outer(np.arange(M), FOURIER_SIGN * np.arange(M)))
    return np.divide(F, math.sqrt(M), out=F)  # in place: F and its exponents at the peak


@dataclass(frozen=True)
class MonomialOperator:
    """Exact unitary |q> -> omega**(phase_slope*q + phase_offset) |q - shift>.

    All three integers live mod dim. Composition, powers and inverses stay in
    this class, so operator identities reduce to integer comparisons.
    """

    dim: int
    shift: int = 0
    phase_slope: int = 0
    phase_offset: int = 0

    def __post_init__(self) -> None:
        if self.dim < 2:
            raise ValueError(f"need dim >= 2, got {self.dim}")
        object.__setattr__(self, "shift", self.shift % self.dim)
        object.__setattr__(self, "phase_slope", self.phase_slope % self.dim)
        object.__setattr__(self, "phase_offset", self.phase_offset % self.dim)

    def is_identity(self) -> bool:
        return self.shift == 0 and self.phase_slope == 0 and self.phase_offset == 0

    def inverse(self) -> "MonomialOperator":
        s, a, b = self.shift, self.phase_slope, self.phase_offset
        return MonomialOperator(self.dim, -s, -a, -(b + a * s))

    def power(self, n: int) -> "MonomialOperator":
        """n-th power in closed form: offset picks up a triangular cross term."""
        if n < 0:
            return self.inverse().power(-n)
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
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    if d < 1 or M % d != 0:
        raise ValueError(f"{d} does not divide {M}")
    return MonomialOperator(M, shift=0, phase_slope=M // d)


def translate(M: int, L: int) -> MonomialOperator:
    """Cyclic step exp(i*p*L): |q> -> |q - L>."""
    if M < 2:
        raise ValueError(f"need M >= 2, got {M}")
    _check_label(M, L, "L")
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
    return StateVector(_apply_rows(op, state.amplitudes), normalized=state.normalized)


def _apply_rows(op: MonomialOperator, amps: np.ndarray) -> np.ndarray:
    """op on each row of amps (positions last): phase times amplitude, rolled to q - shift."""
    phases = omega_power(op.dim, op.phase_slope * np.arange(op.dim) + op.phase_offset)
    return np.roll(phases * amps, -op.shift, axis=-1)
