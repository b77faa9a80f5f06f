"""Exact integer machinery: factorization, coprime splits, CRT label maps.

Everything here is exact integer arithmetic on plain Python ints or integer arrays.
The integer rules of the package live here alone: one dimension rule (_dimension),
one label rule (_labels), one divisor rule (_cofactor), one split rule
(CoprimeSplit, which derives everything else from (M, M1)) and one CRT formula
(crt_compose, which crt_grid and reps.build_pls call). The input rules refuse a
bool and any non-integer and hand on plain ints (integer label arrays as int64),
so no later product wraps in a narrow or unsigned dtype.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class NotInvertibleError(ValueError):
    """No modular inverse exists (gcd of argument and modulus is not 1)."""


class NonCoprimeError(ValueError):
    """The two factors of a requested split share a prime."""


class TrivialSplitError(ValueError):
    """Split with M1 in {1, M}; the torus degenerates and inverses are undefined."""


@dataclass(frozen=True)
class PrimeFactorization:
    """M as a product of prime powers, primes strictly increasing."""

    M: int
    factors: tuple[tuple[int, int], ...]

    @property
    def num_primes(self) -> int:
        return len(self.factors)


def factorize(M: int) -> PrimeFactorization:
    """Factor a dimension M by trial division. Deterministic; M is desk scale."""
    M = _dimension(M)
    factors = []
    n = M
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return PrimeFactorization(M, tuple(factors))


def chi(M: int) -> int:
    """Number of conjugate representation pairs: 2**(N-1), N = distinct primes of M."""
    return 2 ** (factorize(M).num_primes - 1)


def mod_inverse(a: int, m: int) -> int:
    """The x in [1, m) with a*x = 1 (mod m), for an integer a and a modulus m >= 2."""
    m = _dimension(m)
    if not _integer(a):
        raise ValueError(f"cannot invert {a!r} mod {m}: not an integer")
    try:
        return pow(int(a), -1, int(m))  # numpy integers too
    except ValueError as exc:
        raise NotInvertibleError(f"{a} has no inverse mod {m} (gcd != 1)") from exc


@dataclass(frozen=True)
class CoprimeSplit:
    """A coprime factorization M = M1*M2 with its CRT reconstruction data.

    A split is its (M, M1); the rest is derived: M2 = M/M1, L1 = M/M1 = M2,
    L2 = M/M2 = M1, N1 = L1^{-1} mod M1 and N2 = L2^{-1} mod M2, so
    q = q1*N1*L1 + q2*N2*L2 (mod M) solves q = q1 (mod M1), q = q2 (mod M2).
    The split rule lives here: M1 divides M (_cofactor), M1 is not 1 or M, and
    gcd(M1, M2) = 1. Every field is a Python int.
    """

    M: int
    M1: int
    M2: int = field(init=False)
    L1: int = field(init=False)
    L2: int = field(init=False)
    N1: int = field(init=False)
    N2: int = field(init=False)

    def __post_init__(self) -> None:
        M2 = _cofactor(self.M, self.M1)
        M, M1, M2 = int(self.M), int(self.M1), int(M2)
        if M1 in (1, M):
            raise TrivialSplitError(f"M1={M1} gives a trivial split of {M}")
        if math.gcd(M1, M2) != 1:
            raise NonCoprimeError(f"gcd({M1}, {M2}) = {math.gcd(M1, M2)} != 1")
        for name, value in zip(("M", "M1", "M2", "L1", "L2", "N1", "N2"),
                               (M, M1, M2, M2, M1, mod_inverse(M2, M1), mod_inverse(M1, M2))):
            object.__setattr__(self, name, value)

    def swapped(self) -> "CoprimeSplit":
        """The same factorization with the two factors in the other order."""
        return CoprimeSplit(self.M, self.M2)

    def describe(self) -> str:
        return f"{self.M1}x{self.M2}"


def make_split(M: int, M1: int) -> CoprimeSplit:
    """Split M into coprime factors (M1, M/M1) with the inverses populated."""
    return CoprimeSplit(M, M1)


def enumerate_splits(M: int) -> list[CoprimeSplit]:
    """All coprime bipartitions of M, canonicalized to M1 < M2, ascending in M1.

    Each is a divisor M1 < M/M1 with gcd(M1, M/M1) = 1, found by trial division, not
    by factorize, which chi reads. There are 2**(N-1) - 1 for N distinct primes; none
    when M is a prime power. The opposite orientation of any split is make_split(M, M2).
    """
    M = _dimension(M)
    return [make_split(M, d) for d in range(2, math.isqrt(M) + 1)
            if M % d == 0 and math.gcd(d, M // d) == 1]


def _integer(x) -> bool:
    """x is a Python or numpy integer, and not a bool."""
    return type(x) is int or isinstance(x, np.integer)


def _dimension(M) -> int:
    """int(M), if M is a dimension: a Python or numpy integer (not a bool) >= 2."""
    if not _integer(M) or M < 2:
        raise ValueError(f"a dimension must be an integer >= 2, got {M!r}")
    return int(M)


def _cofactor(M: int, d: int) -> int:
    """The int M // d for an integer divisor d of a dimension M: every factorization's rule."""
    M = _dimension(M)
    if not _integer(d) or d < 1 or M % int(d) != 0:
        raise ValueError(f"{d} does not divide {M}")
    return M // int(d)


def _labels(name: str, labels, n: int, scalar: bool = False) -> int | np.ndarray:
    """An int label or, unless scalar, integer labels as int64, each checked to lie in [0, n).
    A scalar label is one int: an array, even of one element, is refused."""
    if type(labels) is not int and isinstance(labels, np.integer):
        labels = int(labels)  # so no later product wraps in a narrow dtype
    if type(labels) is int:  # hot: a Python int is returned as it is
        bad = () if 0 <= labels < n else (labels,)
    else:
        labels = np.asarray(labels)
        if scalar or labels.dtype.kind not in "iu":  # numpy's signed and unsigned integers
            raise ValueError(f"{name} must be {'an integer' if scalar else 'integers'}, "
                             f"got {labels!r}")
        bad = labels[(labels < 0) | (labels >= n)].ravel()
        labels = labels.astype(np.int64, copy=False)
    if len(bad):
        raise ValueError(f"{name}={bad[0]} out of range [0, {n})")
    return labels


def crt_compose(split: CoprimeSplit, q1, q2) -> int | np.ndarray:
    """Lift torus labels (q1, q2), ints or broadcasting integer arrays, to q in [0, M)."""
    q1, q2 = _labels("q1", q1, split.M1), _labels("q2", q2, split.M2)
    return (q1 * split.N1 * split.L1 + q2 * split.N2 * split.L2) % split.M


def crt_decompose(split: CoprimeSplit, q) -> tuple[int | np.ndarray, int | np.ndarray]:
    """Project line labels (an int or an integer array) onto (q mod M1, q mod M2)."""
    q = _labels("q", q, split.M)
    return q % split.M1, q % split.M2


def crt_grid(split: CoprimeSplit) -> np.ndarray:
    """(M1, M2) table grid[q1, q2] = crt_compose(split, q1, q2): the Good-Thomas index map."""
    return crt_compose(split, np.arange(split.M1, dtype=np.intp)[:, None],
                       np.arange(split.M2, dtype=np.intp))
