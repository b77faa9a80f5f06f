"""Flat JSON files for states and basis bundles.

State schema: {"dim": int, "amplitudes": [[re, im], ...], "meta": {...}}.
A bundle is {"dim", "kind", "M1", "M2", "conjugated", "meta", "states": [...]}
where each entry carries its (q1, k2) label next to the state fields.
`phasecrt basis` writes bundles; the package does not read them back.
Floats are written with repr precision, so parse/serialize round-trips are
bit-faithful for finite values.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .core import StateVector
from .numtheory import _dimension
from .reps import RepBasis


class StateFileError(ValueError):
    """Malformed state-file content."""


def state_to_dict(state: StateVector, meta: dict | None = None) -> dict:
    return {
        "dim": state.dim,
        "amplitudes": [[float(a.real), float(a.imag)] for a in state.amplitudes],
        "meta": dict(meta or {}),
    }


def state_from_dict(doc: dict) -> tuple[StateVector, dict]:
    if not isinstance(doc, dict):
        raise StateFileError("state document must be a JSON object")
    try:
        dim = _dimension(doc["dim"])  # a bool or a float is malformed, not truncated
        pairs = doc["amplitudes"]
    except (KeyError, TypeError, ValueError) as exc:
        raise StateFileError(f"missing or malformed field: {exc}") from exc
    if not isinstance(pairs, list) or len(pairs) != dim:
        raise StateFileError(f"expected {dim} amplitude pairs, got {len(pairs) if isinstance(pairs, list) else type(pairs).__name__}")
    try:
        amps = np.array([complex(re, im) for re, im in pairs
                         if type(re) is not bool and type(im) is not bool], dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # Overflow: an int past any float
        raise StateFileError(f"amplitudes must be [re, im] pairs: {exc}") from exc
    if len(amps) != dim:  # complex() reads a JSON true as 1, so bool pairs were dropped above
        raise StateFileError("amplitudes must be numbers, not booleans")
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise StateFileError("meta must be an object")
    try:
        state = StateVector(amps)
    except ValueError as exc:
        raise StateFileError(str(exc)) from exc
    return state, meta


def save_state(path: str | Path, state: StateVector, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(state_to_dict(state, meta), indent=1) + "\n")


def load_state(path: str | Path) -> tuple[StateVector, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, ValueError) as exc:  # ValueError: not UTF-8, or not JSON
        raise StateFileError(f"cannot read state file {path}: {exc}") from exc
    return state_from_dict(doc)


def basis_to_dict(basis: RepBasis, meta: dict | None = None) -> dict:
    states = []
    for label, vec in basis.items():
        entry = state_to_dict(vec)
        del entry["meta"]
        entry["q1"] = label.q1
        entry["k2"] = label.k2
        states.append(entry)
    return {
        "dim": basis.M,
        "kind": basis.kind.value,
        "M1": basis.M1,
        "M2": basis.M2,
        "conjugated": basis.conjugated,
        "meta": dict(meta or {}),
        "states": states,
    }


def save_basis(path: str | Path, basis: RepBasis, meta: dict | None = None) -> None:
    Path(path).write_text(json.dumps(basis_to_dict(basis, meta), indent=1) + "\n")

