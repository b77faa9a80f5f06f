import json

import numpy as np
import pytest

from phasecrt import cli
from phasecrt.cli import main
from phasecrt.core import StateVector
from phasecrt.numtheory import make_split
from phasecrt.reps import BasisKind, build_basis, build_pls, conjugate_basis
from phasecrt.statefile import save_state
from test_mutations import ROWS


BAD_THRESHOLDS = ["nan", "inf", "0", "-1"]


def assert_bundle(path, kind, M, M1, conjugated=False):
    """The written bundle holds build_basis(kind, M, M1), conjugated if asked, bit for bit."""
    basis = build_basis(kind, M, M1)
    if conjugated:
        basis = conjugate_basis(basis)
    doc = json.loads(path.read_text())
    assert (doc["kind"], doc["M1"], doc["M2"]) == (kind.value, basis.M1, basis.M2)
    assert doc["conjugated"] is conjugated and len(doc["states"]) == M
    for entry in doc["states"]:
        amps = np.array([complex(re, im) for re, im in entry["amplitudes"]])
        assert np.array_equal(amps, basis.vector(entry["q1"], entry["k2"]).amplitudes)
    assert len({(e["q1"], e["k2"]) for e in doc["states"]}) == M
    return doc


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestFactor:
    def test_fifteen(self, capsys):
        code, out, _ = run(capsys, "factor", "15")
        assert code == 0
        assert out == "15 = 3·5, chi = 2\n"

    def test_thirty(self, capsys):
        code, out, _ = run(capsys, "factor", "30")
        assert code == 0 and "chi = 4" in out

    def test_prime(self, capsys):
        code, out, _ = run(capsys, "factor", "7")
        assert code == 0 and out == "7 = 7, chi = 1\n"

    def test_prime_power_exponent(self, capsys):
        code, out, _ = run(capsys, "factor", "12")
        assert code == 0 and out == "12 = 2^2·3, chi = 2\n"

    @pytest.mark.parametrize("arg", ["1", "0", "x"])
    def test_bad_dimension_is_usage_error(self, capsys, tmp_path, arg):
        """Every command that takes M refuses it through the package's dimension rule
        (argparse refuses a non-integer), with exit code 2."""
        for argv in (["factor", arg], ["splits", arg], ["crt", arg, "1", "--decompose", "0"],
                     ["basis", arg, "1", "Epos", "--out", str(tmp_path / "b.json")],
                     ["map", arg, "1", "0", "0"]):
            code, _, err = run(capsys, *argv)
            assert code == 2, argv
            if arg != "x":
                assert "dimension must be an integer >= 2" in err, argv
        assert not any(tmp_path.iterdir())


class TestSplits:
    def test_lists_splits(self, capsys):
        code, out, _ = run(capsys, "splits", "30")
        assert code == 0
        assert out.splitlines() == [
            "M1=2 M2=15 L1=15 L2=2 N1=1 N2=8",
            "M1=3 M2=10 L1=10 L2=3 N1=1 N2=7",
            "M1=5 M2=6 L1=6 L2=5 N1=1 N2=5",
        ]

    def test_prime_power(self, capsys):
        code, out, _ = run(capsys, "splits", "8")
        assert code == 0 and "prime power" in out


class TestCrt:
    def test_compose(self, capsys):
        code, out, _ = run(capsys, "crt", "15", "3", "--compose", "2", "4")
        assert code == 0 and out == "14\n"

    def test_decompose(self, capsys):
        code, out, _ = run(capsys, "crt", "15", "3", "--decompose", "14")
        assert code == 0 and out == "2 4\n"

    def test_non_coprime_split_is_usage_error(self, capsys):
        code, _, err = run(capsys, "crt", "12", "2", "--compose", "0", "0")
        assert code == 2 and "gcd" in err

    def test_out_of_range_label(self, capsys):
        code, _, err = run(capsys, "crt", "15", "3", "--compose", "3", "0")
        assert code == 2


class TestBasis:
    def test_writes_bundle_and_prints_residual(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "basis", "15", "3", "C2")
        assert code == 0
        assert "wrote 15 states to basis_M15_M13_C2.json" in out
        residual = float(out.splitlines()[-1].split("=")[1])
        assert residual < 1e-9
        assert_bundle(tmp_path / "basis_M15_M13_C2.json", BasisKind.C2, 15, 3)

    def test_non_coprime_c_kind_is_usage_error(self, capsys):
        code, _, err = run(capsys, "basis", "4", "2", "C1")
        assert code == 2
        assert "gcd(M1, M2) = 1" in err

    def test_e_kind_allows_non_coprime(self, capsys, tmp_path):
        out_path = tmp_path / "e.json"
        code, out, _ = run(capsys, "basis", "4", "2", "Epos", "--out", str(out_path))
        assert code == 0
        assert_bundle(out_path, BasisKind.E_POS, 4, 2)

    def test_conjugate_flag(self, capsys, tmp_path):
        out_path = tmp_path / "c2c.json"
        code, out, _ = run(capsys, "basis", "15", "3", "C2", "--conjugate",
                           "--out", str(out_path))
        assert code == 0
        doc = assert_bundle(out_path, BasisKind.C2, 15, 3, conjugated=True)
        assert (doc["M1"], doc["M2"]) == (5, 3)

    def test_unknown_kind_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "basis", "15", "3", "Q9")
        assert code == 2


class TestMap:
    def test_origin_map_grid(self, capsys):
        code, out, _ = run(capsys, "map", "15", "3", "0", "0")
        assert code == 0
        lines = out.splitlines()
        rows = [l for l in lines if l.startswith("k=")]
        assert len(rows) == 15
        grid = {}
        for row in rows:
            head, cells = row.rsplit(" ", 1)
            assert len(cells) == 15
            grid[int(head[2:])] = cells
        for k in range(15):
            for q in range(15):
                want = "#" if (q % 3 == 0 and k % 5 == 0) else "."
                assert grid[k][q] == want
        assert "cell area = 2*pi/15" in out

    def test_shifted_map(self, capsys):
        code, out, _ = run(capsys, "map", "15", "3", "1", "2")
        assert code == 0
        rows = {int(l.rsplit(" ", 1)[0][2:]): l.rsplit(" ", 1)[1]
                for l in out.splitlines() if l.startswith("k=")}
        for k in range(15):
            for q in range(15):
                want = "#" if (q % 3 == 1 and k % 5 == 2) else "."
                assert rows[k][q] == want

    def test_csv_format_and_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "map.csv"
        code, out, _ = run(capsys, "map", "15", "3", "0", "0",
                           "--format", "csv", "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert lines[0] == "q,k,magnitude"
        assert len(lines) == 1 + 15 * 15
        q, k, mag = lines[1].split(",")
        assert (q, k) == ("0", "0")
        assert float(mag) == pytest.approx(1 / 15**0.5)

    def test_csv_to_stdout_and_file_is_formatted_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = cli._map_csv
        monkeypatch.setattr(cli, "_map_csv", lambda mm: calls.append(1) or real(mm))
        out_path = tmp_path / "map.csv"
        code, out, _ = run(capsys, "map", "15", "3", "1", "2",
                           "--format", "csv", "--out", str(out_path))
        assert code == 0 and len(calls) == 1
        text = out_path.read_text()
        assert out == text + f"wrote magnitudes to {out_path}\n"
        assert len(text.splitlines()) == 1 + 15 * 15

    def test_grid_with_out_file_formats_csv_once(self, capsys, tmp_path, monkeypatch):
        calls = []
        real = cli._map_csv
        monkeypatch.setattr(cli, "_map_csv", lambda mm: calls.append(1) or real(mm))
        out_path = tmp_path / "map.csv"
        code, out, _ = run(capsys, "map", "15", "3", "0", "0", "--out", str(out_path))
        assert code == 0 and len(calls) == 1
        assert "q,k,magnitude" not in out
        assert out_path.read_text().startswith("q,k,magnitude\n")

    def test_label_out_of_range(self, capsys):
        code, _, _ = run(capsys, "map", "15", "3", "3", "0")
        assert code == 2

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS)
    def test_bad_threshold_is_usage_error(self, capsys, threshold):
        code, out, err = run(capsys, "map", "15", "3", "0", "0", f"--threshold={threshold}")
        assert code == 2 and out == "" and "threshold" in err


class TestSuiteCommand:
    def test_pass_exit_zero(self, capsys):
        code, out, _ = run(capsys, "suite", "15")
        assert code == 0
        assert "RESULT: PASS" in out

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "suite", "6,15", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert [r["M"] for r in doc["reports"]] == [6, 15]

    def test_json_deterministic_modulo_duration(self, capsys):
        _, out1, _ = run(capsys, "suite", "15", "--format", "json")
        _, out2, _ = run(capsys, "suite", "15", "--format", "json")
        doc1, doc2 = json.loads(out1), json.loads(out2)
        for doc in (doc1, doc2):
            for report in doc["reports"]:
                report.pop("duration_seconds")
        assert json.dumps(doc1, sort_keys=False) == json.dumps(doc2, sort_keys=False)

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run(capsys, "suite", "7", "--format", "json", "--out", str(path))
        assert code == 0
        assert json.loads(path.read_text())["passed"] is True

    def test_six_dimension_run_passes_quickly(self, capsys):
        import time

        t0 = time.perf_counter()
        code, out, _ = run(capsys, "suite", "6,10,12,15,21,35")
        assert code == 0
        assert "RESULT: PASS" in out
        assert time.perf_counter() - t0 < 30

    def test_bad_list_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "suite", "15,x")
        assert code == 2
        code, _, _ = run(capsys, "suite", "1")
        assert code == 2

    def test_tolerance_env_override(self, capsys, monkeypatch):
        # an absurdly tight tolerance makes float checks fail -> exit 1
        monkeypatch.setenv("PHASECRT_TOLERANCE", "1e-30")
        code, out, _ = run(capsys, "suite", "15")
        assert code == 1
        assert "RESULT: FAIL" in out

    def test_a_builder_fault_is_a_failed_suite_with_its_report(self, capsys, monkeypatch,
                                                               tmp_path):
        # a PLS builder that misses the unit norm fails records; it is not an error
        module, name, replacement, _ = ROWS["PLS normalized by sqrt(M1)"]
        monkeypatch.setattr(module, name, replacement)
        path = tmp_path / "report.json"
        code, _, err = run(capsys, "suite", "15", "--format", "json", "--out", str(path))
        assert code == 1 and err == ""
        doc = json.loads(path.read_text())
        assert doc["passed"] is False
        assert [c["id"] for c in doc["reports"][0]["checks"] if c["status"] == "fail"] == [
            "pls.orthonormal[3x5]", "pls.lattice-bijection[3x5]", "conjugate.duality[3x5]"]

    def test_bad_tolerance_env(self, capsys, monkeypatch):
        monkeypatch.setenv("PHASECRT_TOLERANCE", "tight")
        code, _, err = run(capsys, "suite", "15")
        assert code == 2 and "PHASECRT_TOLERANCE" in err

    @pytest.mark.parametrize("args", [("factor", "15"), ("splits", "30")],
                             ids=["factor", "splits"])
    def test_only_suite_reads_the_tolerance_env(self, capsys, monkeypatch, args):
        monkeypatch.setenv("PHASECRT_TOLERANCE", "tight")
        assert run(capsys, *args)[0] == 0

    @pytest.mark.parametrize("value", ["inf", "nan", "-1"])
    def test_tolerance_env_must_be_finite_and_non_negative(self, capsys, monkeypatch, value):
        monkeypatch.setenv("PHASECRT_TOLERANCE", value)
        code, out, err = run(capsys, "suite", "6")
        assert code == 2 and out == "" and "tolerance" in err


class TestClassify:
    def test_pls_file(self, capsys, tmp_path):
        path = tmp_path / "pls.json"
        save_state(path, build_pls(make_split(15, 3), 1, 2))
        code, out, _ = run(capsys, "classify", str(path), "3")
        assert code == 0
        assert out == "vN lattice, shift (1,2)\n"

    def test_random_state_not_vn(self, capsys, tmp_path):
        rng = np.random.default_rng(17)
        raw = rng.normal(size=15) + 1j * rng.normal(size=15)
        path = tmp_path / "rand.json"
        save_state(path, StateVector(raw / np.linalg.norm(raw)))
        code, out, _ = run(capsys, "classify", str(path), "3")
        assert code == 0
        assert out.startswith("NotVN:")

    def test_momentum_state_not_vn(self, capsys, tmp_path):
        from phasecrt.core import momentum_state

        path = tmp_path / "mom.json"
        save_state(path, momentum_state(15, 4))
        code, out, _ = run(capsys, "classify", str(path), "3")
        assert code == 0 and out.startswith("NotVN:")

    @pytest.mark.parametrize("threshold", BAD_THRESHOLDS)
    def test_bad_threshold_is_usage_error(self, capsys, tmp_path, threshold):
        path = tmp_path / "pls.json"
        save_state(path, build_pls(make_split(15, 3), 1, 2))
        code, out, err = run(capsys, "classify", str(path), "3", f"--threshold={threshold}")
        assert code == 2 and out == "" and "threshold" in err

    def test_malformed_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run(capsys, "classify", str(path), "3")
        assert code == 2

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, "classify", str(tmp_path / "none.json"), "3")
        assert code == 2

    def test_file_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(bytes.fromhex("fffe00626164"))
        code, out, err = run(capsys, "classify", str(path), "3")
        assert code == 2 and out == "" and "cannot read state file" in err

    def test_amplitude_past_any_float_is_a_file_error(self, capsys, tmp_path):
        path = tmp_path / "huge.json"
        path.write_text('{"dim": 15, "amplitudes": [[1%s, 0]%s]}' % ("0" * 400, ", [0, 0]" * 14))
        code, out, err = run(capsys, "classify", str(path), "3")
        assert code == 2 and out == "" and err.startswith("error: ")


class TestUnwritableOut:
    @pytest.mark.parametrize("argv", [["suite", "7"], ["basis", "15", "3", "C2"],
                                      ["map", "15", "3", "0", "0"]],
                             ids=["suite", "basis", "map"])
    def test_is_an_error_not_a_failed_check(self, capsys, tmp_path, argv):
        out = tmp_path / "missing" / "out"
        code, _, err = run(capsys, *argv, "--out", str(out))
        assert code == 2
        assert err.startswith("error: ") and str(out) in err
        assert not out.exists()


class TestParser:
    def test_no_command_is_usage_error(self, capsys):
        assert run(capsys, )[0] == 2

    def test_unknown_command(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2
