"""Seeded classify requests whose expected verdicts are fixed by construction.

The generator uses numpy only, not phasecrt: the program under test receives
nothing but the state files written here. Each request names a state file, an
oriented split (M1, M2) of M, whether the state is classified as a density
matrix, and the verdict a correct classifier must return:

  pls              partially localized state (q01, k02)      -> vN (q01, k02)
  pls_conj         its position/momentum conjugate, classified
                   against the swapped split                 -> vN (k02, q01)
  wrong_geometry   a PLS of a split with another M1          -> NotVN wrong support geometry
  perturbed_vn     PLS plus one spike at 0.1x the threshold  -> vN (q01, k02)
  perturbed_count  PLS plus one spike at 10x the threshold   -> NotVN wrong count
  dense            PLS read from file, classified as a DensityMatrix -> vN (q01, k02)
  random           full-support state, every |<q|rho|k>| at least 10x the
                   threshold, so all M*M points are support  -> NotVN wrong count

Requests come in blocks holding exactly spec.STREAM_BLOCK of each class, in a
seeded order, so every block carries the same mix.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from spec import STREAM_BLOCK


def support_threshold(M: int) -> float:
    """phasecrt's default support threshold, restated so the generator stays independent."""
    return 1e-6 / math.sqrt(M)


def oriented_splits(M: int) -> list[tuple[int, int]]:
    """Every coprime (M1, M2) with M1*M2 = M and 1 < M1 < M, both orientations."""
    return [(m1, M // m1) for m1 in range(2, M)
            if M % m1 == 0 and math.gcd(m1, M // m1) == 1]


def momentum(amps: np.ndarray) -> np.ndarray:
    """<k|psi> in the package convention (unitary DFT, negative exponent)."""
    return np.fft.fft(amps) / math.sqrt(amps.size)


def pls(M: int, M1: int, M2: int, q01: int, k02: int) -> np.ndarray:
    """Sharp at q = q01 mod M1, phase omega_M2**(k02*q2*N2) across the CRT labels q2."""
    N1, N2 = pow(M2, -1, M1), pow(M1, -1, M2)
    amps = np.zeros(M, dtype=np.complex128)
    for q2 in range(M2):
        q = (q01 * N1 * M2 + q2 * N2 * M1) % M
        amps[q] = np.exp(2j * np.pi * k02 * q2 * N2 / M2)
    return amps / math.sqrt(M2)


def perturbed(amps: np.ndarray, M1: int, M2: int, q01: int, k02: int,
              level: float, rng: np.random.Generator) -> np.ndarray:
    """Add one spike off the PLS support so its new points read level x threshold.

    The spike goes in position (new points: one row of M1) when M2 >= M1,
    else in momentum (one column of M2). Its spread onto the existing support
    reads level/max(M1, M2) x threshold, below threshold for every split of
    330 even at level 10.
    """
    M = amps.size
    thr = support_threshold(M)
    phase = np.exp(2j * np.pi * rng.random())
    if M2 >= M1:
        q_x = int(rng.choice([q for q in range(M) if q % M1 != q01]))
        out = amps.copy()
        out[q_x] += level * thr * math.sqrt(M1) * phase
        return out
    k_x = int(rng.choice([k for k in range(M) if k % M2 != k02]))
    wave = np.exp(2j * np.pi * k_x * np.arange(M) / M) / math.sqrt(M)
    return amps + level * thr * math.sqrt(M2) * phase * wave


def random_full_support(M: int, rng: np.random.Generator) -> np.ndarray:
    """Random state with min|psi(q)| * min|psi~(k)| >= 10x threshold."""
    thr = support_threshold(M)
    while True:
        amps = rng.uniform(0.5, 1.5, M) * np.exp(2j * np.pi * rng.random(M))
        amps /= np.linalg.norm(amps)
        if np.min(np.abs(amps)) * np.min(np.abs(momentum(amps))) >= 10 * thr:
            return amps


def _vn(q: int, k: int) -> dict:
    return {"type": "VN", "shift": [q, k]}


def _not_vn(reason: str) -> dict:
    return {"type": "NotVN", "reason": reason}


def _request(cls: str, M: int, splits, rng) -> dict:
    M1, M2 = splits[rng.integers(len(splits))]
    q01, k02 = int(rng.integers(M1)), int(rng.integers(M2))
    base = pls(M, M1, M2, q01, k02)
    dense = False
    if cls == "pls":
        amps, expected = base, _vn(q01, k02)
    elif cls == "dense":
        amps, expected, dense = base, _vn(q01, k02), True
    elif cls == "pls_conj":
        amps, expected = np.conj(momentum(base)), _vn(k02, q01)
        M1, M2 = M2, M1
    elif cls == "wrong_geometry":
        others = [s for s in splits if s[0] != M1]
        o1, o2 = others[rng.integers(len(others))]
        amps = pls(M, o1, o2, int(rng.integers(o1)), int(rng.integers(o2)))
        expected = _not_vn("wrong support geometry")
    elif cls == "perturbed_vn":
        amps, expected = perturbed(base, M1, M2, q01, k02, 0.1, rng), _vn(q01, k02)
    elif cls == "perturbed_count":
        amps = perturbed(base, M1, M2, q01, k02, 10.0, rng)
        expected = _not_vn("wrong count")
    elif cls == "random":
        amps, expected = random_full_support(M, rng), _not_vn("wrong count")
    else:
        raise ValueError(f"unknown request class {cls!r}")
    return {"cls": cls, "M": M, "M1": int(M1), "dense": dense,
            "expected": expected, "amps": amps}


def generate(seed: int, M: int, blocks: int) -> list[dict]:
    """`blocks` blocks of requests; the same seed gives the same list."""
    rng = np.random.default_rng(seed)
    splits = oriented_splits(M)
    if len({m1 for m1, _ in splits}) < 2:
        raise ValueError(f"M={M} needs at least one coprime split")
    deck = [cls for cls, n in STREAM_BLOCK.items() for _ in range(n)]
    out = []
    for _ in range(blocks):
        for i in rng.permutation(len(deck)):
            out.append(_request(deck[i], M, splits, rng))
    return out


def write(requests: list[dict], directory: Path) -> list[dict]:
    """Write one state file per request (phasecrt's state schema); return the
    requests with the amplitudes replaced by the file name."""
    directory.mkdir(parents=True, exist_ok=True)
    listed = []
    for i, req in enumerate(requests):
        name = f"state-{i:04d}.json"
        doc = {"dim": int(req["amps"].size),
               "amplitudes": [[float(a.real), float(a.imag)] for a in req["amps"]],
               "meta": {}}
        (directory / name).write_text(json.dumps(doc, indent=1) + "\n")
        listed.append({k: v for k, v in req.items() if k != "amps"} | {"file": name})
    return listed
