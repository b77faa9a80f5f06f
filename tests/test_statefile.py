import json

import numpy as np
import pytest

from phasecrt.core import StateVector
from phasecrt.numtheory import make_split
from phasecrt.reps import build_C1, build_C2, build_E_pos, compare_cross_phases
from phasecrt.statefile import (
    StateFileError,
    basis_from_dict,
    basis_to_dict,
    load_basis,
    load_state,
    save_basis,
    save_state,
    state_from_dict,
    state_to_dict,
)


def random_state(rng, M=11):
    return StateVector(rng.normal(size=M) + 1j * rng.normal(size=M))


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

    def test_float_dim(self):
        with pytest.raises(StateFileError):
            state_from_dict({"dim": 2.9, "amplitudes": [[1, 0], [0, 0]]})

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


class TestBasisBundle:
    def test_round_trip(self, tmp_path):
        basis = build_C2(make_split(15, 3))
        path = tmp_path / "bundle.json"
        save_basis(path, basis, meta={"note": "test"})
        loaded = load_basis(path)
        assert loaded.kind == basis.kind
        assert (loaded.M1, loaded.M2) == (basis.M1, basis.M2)
        for label in basis.labels():
            assert np.array_equal(loaded.vector(label.q1, label.k2).amplitudes,
                                  basis.vector(label.q1, label.k2).amplitudes)

    def test_bundle_schema(self):
        doc = basis_to_dict(build_E_pos(6, 2))
        assert doc["dim"] == 6 and doc["kind"] == "Epos"
        assert len(doc["states"]) == 6
        assert {"q1", "k2", "dim", "amplitudes"} <= set(doc["states"][0])

    def test_bundle_rejects_missing_state(self):
        doc = basis_to_dict(build_E_pos(6, 2))
        doc["states"].pop()
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    def test_bundle_rejects_repeated_label(self):
        doc = basis_to_dict(build_E_pos(6, 2))
        doc["states"][1]["q1"] = doc["states"][0]["q1"]
        doc["states"][1]["k2"] = doc["states"][0]["k2"]
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    def test_loaded_bundles_keep_their_split(self, tmp_path):
        split = make_split(15, 3)
        for name, basis in (("c1", build_C1(split)), ("c2", build_C2(split))):
            save_basis(tmp_path / f"{name}.json", basis)
        c1, c2 = load_basis(tmp_path / "c1.json"), load_basis(tmp_path / "c2.json")
        assert c1.split == split
        assert compare_cross_phases(c1, c2).status == "pass"

    def test_bundle_rejects_state_of_wrong_dim(self):
        doc = basis_to_dict(build_E_pos(6, 2))
        short = state_to_dict(StateVector([1.0, 0.0, 0.0, 0.0]))
        doc["states"][0].update(dim=short["dim"], amplitudes=short["amplitudes"])
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    def test_bundle_rejects_top_level_dim_mismatch(self):
        doc = basis_to_dict(build_C2(make_split(15, 3)))
        doc["dim"] = 99
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    def test_bundle_rejects_state_without_label(self):
        doc = basis_to_dict(build_E_pos(6, 2))
        del doc["states"][2]["q1"]
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    def test_bundle_rejects_non_list_states(self):
        doc = basis_to_dict(build_E_pos(6, 2))
        doc["states"] = 5
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    @pytest.mark.parametrize("field", ["dim", "M1", "M2"])
    def test_bundle_rejects_float_size(self, field):
        doc = basis_to_dict(build_E_pos(6, 2))
        doc[field] += 0.9  # int() would truncate it back to the right value
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    @pytest.mark.parametrize("field", ["q1", "k2"])
    @pytest.mark.parametrize("value", [1.9, True])
    def test_bundle_rejects_non_integer_label(self, field, value):
        # int() reads both as the label 1 that the entry already has
        doc = basis_to_dict(build_E_pos(6, 2))
        next(e for e in doc["states"] if e[field] == 1)[field] = value
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    @pytest.mark.parametrize("value", ["false", 0])
    def test_bundle_rejects_non_boolean_conjugated(self, value):
        doc = basis_to_dict(build_E_pos(6, 2))
        doc["conjugated"] = value
        with pytest.raises(StateFileError):
            basis_from_dict(doc)

    def test_json_is_valid(self, tmp_path):
        path = tmp_path / "bundle.json"
        save_basis(path, build_E_pos(4, 2))
        json.loads(path.read_text())
