import json

import numpy as np
import pytest

from phasecrt.core import StateVector
from phasecrt.reps import BasisKind, build_basis, build_E_pos
from phasecrt.statefile import (
    StateFileError,
    basis_to_dict,
    load_state,
    save_basis,
    save_state,
    state_from_dict,
    state_to_dict,
)


def random_state(rng, M=11):
    return StateVector(rng.normal(size=M) + 1j * rng.normal(size=M))


def bundle_vectors(doc):
    """{(q1, k2): amplitudes} of a written bundle, parsed straight from its JSON lists."""
    return {(e["q1"], e["k2"]): np.array([complex(re, im) for re, im in e["amplitudes"]])
            for e in doc["states"]}


class TestStateRoundTrip:
    def test_bit_faithful(self, tmp_path):
        rng = np.random.default_rng(31)
        state = random_state(rng)
        path = tmp_path / "state.json"
        save_state(path, state, meta={"kind": "random", "seed": 31})
        loaded, meta = load_state(path)
        assert np.array_equal(loaded.amplitudes, state.amplitudes)
        assert meta == {"kind": "random", "seed": 31}

    def test_double_round_trip_is_stable(self, tmp_path):
        rng = np.random.default_rng(5)
        state = random_state(rng)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_state(p1, state)
        loaded, _ = load_state(p1)
        save_state(p2, loaded)
        assert p1.read_text() == p2.read_text()

    def test_schema_fields(self):
        doc = state_to_dict(StateVector([1.0, 2j]))
        assert set(doc) == {"dim", "amplitudes", "meta"}
        assert doc["dim"] == 2
        assert doc["amplitudes"] == [[1.0, 0.0], [0.0, 2.0]]


class TestStateErrors:
    def test_missing_field(self):
        with pytest.raises(StateFileError):
            state_from_dict({"amplitudes": [[1, 0], [0, 0]]})

    def test_length_mismatch(self):
        with pytest.raises(StateFileError):
            state_from_dict({"dim": 3, "amplitudes": [[1, 0], [0, 0]]})

    def test_bad_pairs(self):
        with pytest.raises(StateFileError):
            state_from_dict({"dim": 2, "amplitudes": [[1], [0]]})
        with pytest.raises(StateFileError):
            state_from_dict({"dim": 2, "amplitudes": [["x", 0], [0, 0]]})
        # complex() would read these as the state [1, 0]
        with pytest.raises(StateFileError):
            state_from_dict({"dim": 2, "amplitudes": [[True, 0], [0, False]]})
        with pytest.raises(StateFileError):
            state_from_dict(json.loads('{"dim": 2, "amplitudes": [[1, 0], [0, false]]}'))

    def test_amplitude_past_any_float(self, tmp_path):
        """An integer too large for a float is malformed content, not an OverflowError."""
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 2, "amplitudes": [[1%s, 0], [0, 0]]}' % ("0" * 400))
        with pytest.raises(StateFileError, match="amplitudes must be"):
            load_state(path)

    def test_float_dim(self):
        with pytest.raises(StateFileError):
            state_from_dict({"dim": 2.9, "amplitudes": [[1, 0], [0, 0]]})

    @pytest.mark.parametrize("dim", ["1", "true", "2.0"])
    def test_dim_that_is_not_a_dimension(self, dim):
        """dim passes numtheory's dimension rule: an integer >= 2, not a bool or a float."""
        amplitudes = "[[1, 0]]" if dim != "2.0" else "[[1, 0], [0, 0]]"
        with pytest.raises(StateFileError, match="dimension must be an integer >= 2"):
            state_from_dict(json.loads(f'{{"dim": {dim}, "amplitudes": {amplitudes}}}'))

    def test_bad_meta(self):
        with pytest.raises(StateFileError):
            state_from_dict({"dim": 2, "amplitudes": [[1, 0], [0, 0]], "meta": 3})

    def test_not_an_object(self):
        with pytest.raises(StateFileError):
            state_from_dict([1, 2, 3])

    def test_unreadable_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(StateFileError):
            load_state(path)
        with pytest.raises(StateFileError):
            load_state(tmp_path / "missing.json")

    def test_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(bytes.fromhex("fffe00626164"))
        with pytest.raises(StateFileError, match="cannot read state file"):
            load_state(path)


class TestBasisBundle:
    def test_round_trip(self, tmp_path):
        # E kinds allow a non-coprime (M1, M2), so 12 = 2x6 has no split
        for kind, M, M1 in ((BasisKind.C2, 15, 3), (BasisKind.E_POS, 12, 2)):
            basis = build_basis(kind, M, M1)
            path = tmp_path / "bundle.json"
            save_basis(path, basis, meta={"note": "test"})
            doc = json.loads(path.read_text())
            assert (doc["kind"], doc["dim"], doc["M1"], doc["M2"]) == (kind.value, M, M1, M // M1)
            assert doc["conjugated"] is False and doc["meta"] == {"note": "test"}
            vectors = bundle_vectors(doc)
            assert len(doc["states"]) == len(vectors) == M
            for label in basis.labels():
                assert np.array_equal(vectors[label.q1, label.k2],
                                      basis.vector(label.q1, label.k2).amplitudes)

    def test_bundle_schema(self):
        doc = basis_to_dict(build_E_pos(6, 2))
        assert doc["dim"] == 6 and doc["kind"] == "Epos"
        assert len(doc["states"]) == 6
        assert {"q1", "k2", "dim", "amplitudes"} <= set(doc["states"][0])

    def test_json_is_valid(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_basis(path, build_E_pos(4, 2))
        json.loads(path.read_text())
