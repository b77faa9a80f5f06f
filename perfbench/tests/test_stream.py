"""The classify-stream generator: determinism, mix, and expected verdicts
against phasecrt's dense brute-force path."""

import collections

import numpy as np
import pytest

import phasecrt as pc
import stream
from phasecrt.statefile import load_state
from spec import STREAM_BLOCK


def _verdict(v):
    if isinstance(v, pc.VNLattice):
        return {"type": "VN", "shift": [v.shift_q, v.shift_k]}
    return {"type": "NotVN", "reason": v.reason}


def test_same_seed_same_requests():
    a = stream.generate(7, 330, 2)
    b = stream.generate(7, 330, 2)
    assert [(r["cls"], r["M1"], r["dense"], r["expected"]) for r in a] == \
           [(r["cls"], r["M1"], r["dense"], r["expected"]) for r in b]
    assert all(np.array_equal(x["amps"], y["amps"]) for x, y in zip(a, b))
    c = stream.generate(8, 330, 2)
    assert [r["expected"] for r in a] != [r["expected"] for r in c]


def test_every_block_holds_the_fixed_mix():
    reqs = stream.generate(3, 330, 4)
    size = sum(STREAM_BLOCK.values())
    assert len(reqs) == 4 * size
    for b in range(4):
        counts = collections.Counter(r["cls"] for r in reqs[b * size:(b + 1) * size])
        assert counts == collections.Counter(STREAM_BLOCK)


@pytest.mark.parametrize("M", [30, 42, 66])
@pytest.mark.parametrize("seed", [0, 1])
def test_expected_verdicts_match_dense_brute_force(M, seed):
    for req in stream.generate(seed, M, 3):
        state = pc.StateVector(req["amps"])
        split = pc.make_split(M, req["M1"])
        dense = pc.classify_vn_state(pc.DensityMatrix.from_state(state), split)
        assert _verdict(dense) == req["expected"], req["cls"]
        assert _verdict(pc.classify_vn_state(state, split)) == req["expected"], req["cls"]


def test_written_files_load_bit_for_bit(tmp_path):
    reqs = stream.generate(5, 42, 1)
    listed = stream.write(reqs, tmp_path)
    for req, entry in zip(reqs, listed):
        state, _ = load_state(tmp_path / entry["file"])
        assert np.array_equal(state.amplitudes, req["amps"])
        assert "amps" not in entry and entry["expected"] == req["expected"]


def test_oriented_splits_match_the_package():
    for M in (30, 330, 667):
        want = sorted((s.M1, s.M2) for split in pc.enumerate_splits(M)
                      for s in (split, split.swapped()))
        assert sorted(stream.oriented_splits(M)) == want
