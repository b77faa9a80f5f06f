"""The Donoho-Stark uncertainty principle as the oracle of classify_vn_state.

A nonzero state of dimension M has |supp psi| * |supp psi~| >= M, with equality
exactly for a modulated, phased indicator of a coset q0 + d*Z_M of a divisor d of M
(Donoho and Stark 1989). Such a state has M/d position points of modulus sqrt(d/M)
and, for the modulation omega_M**(k0*q), the d momentum points k0 + (M/d)*Z_M of
modulus 1/sqrt(d): each of its M products |psi(q)| * |psi~(k)| is 1/sqrt(M), so it
covers area exactly 2*pi. Its support is the lattice of spacings d and M/d through
(q0, k0). So the theorem, not the classifier, predicts every verdict:
- the pure support count is exactly M;
- the state sits over the lattice of the oriented split (d, M/d), shifted to
  (q0 mod d, k0 mod M/d), when that split exists (1 < d < M, gcd(d, M/d) = 1);
- every other oriented split of M finds M points off its lattice;
- a state whose count falls below M sits over no lattice ("wrong count").
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from phasecrt.core import StateVector
from phasecrt.lattice import NotVN, VNLattice, classify_vn_state, default_support_threshold
from phasecrt.numtheory import enumerate_splits

# with and without coprime splits, and with divisors d that share a prime with M/d
DIMS = [4, 6, 8, 12, 15, 18, 20, 30, 36, 60, 105, 210]


def oriented_splits(M):
    return [s for split in enumerate_splits(M) for s in (split, split.swapped())]


def products(psi):
    """|psi(q)| * |psi~(k)| for every (q, k): the pure support's magnitudes."""
    return np.outer(np.abs(psi.amplitudes), np.abs(psi.momentum_amplitudes()))


@st.composite
def coset_states(draw):
    """(d, q0, k0, psi): the unit indicator of q0 + d*Z_M, modulated by
    omega_M**(k0*q) and turned by a global phase."""
    M = draw(st.sampled_from(DIMS))
    d = draw(st.sampled_from([d for d in range(1, M + 1) if M % d == 0]))
    q0, k0 = draw(st.integers(0, M - 1)), draw(st.integers(0, M - 1))
    phase = draw(st.floats(0, 2 * math.pi))
    q = np.arange(M)
    amps = np.where(q % d == q0 % d, np.exp(1j * (phase + 2 * np.pi * k0 * q / M)), 0)
    return d, q0, k0, StateVector(amps * math.sqrt(d / M))


@settings(max_examples=150, deadline=None)
@given(coset_states())
def test_a_coset_state_sits_over_exactly_its_predicted_lattice(case):
    d, q0, k0, psi = case
    M = psi.dim
    assert np.count_nonzero(products(psi) > default_support_threshold(M)) == M
    for split in oriented_splits(M):
        verdict = classify_vn_state(psi, split)
        if split.M1 == d:  # the split (d, M/d) exists: gcd(d, M/d) = 1 and 1 < d < M
            assert verdict == VNLattice(split, q0 % d, k0 % (M // d))
        else:  # M points, so the count holds; they lie off this split's lattices
            assert isinstance(verdict, NotVN) and verdict.reason == "wrong support geometry"
    exists = 1 < d < M and math.gcd(d, M // d) == 1
    assert exists == any(s.M1 == d for s in oriented_splits(M))


@settings(max_examples=100, deadline=None)
@given(coset_states(), st.sampled_from(["at", "above"]))
def test_a_coset_state_below_its_products_has_a_wrong_count(case, where):
    # every support product is 1/sqrt(M) up to rounding: a threshold at their largest
    # (or a float step above it) counts fewer than M of them
    _, _, _, psi = case
    M, p = psi.dim, products(psi)
    t = p.max() if where == "at" else np.nextafter(p.max(), np.inf)
    count = int(np.count_nonzero(p > t))
    assert count < M
    for split in oriented_splits(M):
        assert classify_vn_state(psi, split, t) == NotVN(
            "wrong count", f"support has {count} points, expected {M}")


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(DIMS), st.integers(0, 2**32 - 1), st.data())
def test_a_random_state_counted_below_m_has_a_wrong_count(M, seed, data):
    # random support and amplitudes; the threshold at the rank-r product, r < M, counts
    # at most r products, so no lattice of M points can be the support
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=M) + 1j * rng.normal(size=M)
    amps[rng.random(M) < data.draw(st.floats(0, 0.9))] = 0
    psi = StateVector(amps)
    ranked = np.sort(products(psi), axis=None)[::-1]
    t = ranked[data.draw(st.integers(0, M - 1))]
    if not t > 0:
        return
    count = int(np.count_nonzero(products(psi) > t))
    assert count < M
    for split in oriented_splits(M):
        assert classify_vn_state(psi, split, t) == NotVN(
            "wrong count", f"support has {count} points, expected {M}")
