"""Tracer patching, BENCHMARK.json, and the run.py contract."""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import phasecrt
import phasecrt.cli
import run
import spec
from tracer import Tracer, functions_read_by

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture
def tracer():
    t = Tracer(spec.AGGREGATE_ONLY, spec.TRACED_METHODS)
    original = phasecrt.reps.build_pls
    t.install("phasecrt")
    yield t
    t.uninstall()
    assert phasecrt.reps.build_pls is original
    assert phasecrt.suite.build_pls is original


def test_tracer_patches_every_namespace_that_imported_a_function(tracer):
    assert phasecrt.suite.build_pls is phasecrt.reps.build_pls
    assert phasecrt.build_pls is phasecrt.reps.build_pls
    assert hasattr(phasecrt.reps.build_pls, "__wrapped__")
    assert phasecrt.cli.run_suites is phasecrt.suite.run_suites


def test_traced_suite_records_spans_and_hot_aggregates(tracer):
    phasecrt.cli.main(["suite", "15", "--format", "json", "--out", "/dev/null"])
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "suite.run_suite", "reps.build_pls", "lattice.classify_vn_state",
            "core.fft", "reps.gram_residual"} <= names
    assert not names & set(spec.AGGREGATE_ONLY)
    by_index = tracer.spans
    pls = next(s for s in by_index if s[0] == "reps.build_pls")
    chain = []
    parent = pls[1]
    while parent >= 0:
        chain.append(by_index[parent][0])
        parent = by_index[parent][1]
    assert chain[-1] == "cli.main" and "suite.run_suite" in chain

    layers = tracer.summary(units=1)
    assert layers["numtheory.crt_compose.calls"] > 0
    assert layers["reps.factor_kernel.calls"] == 15 * 15 * 2
    assert layers["suite.checks"] == len(phasecrt.run_suite(15).checks)
    assert layers["lattice.vn_ratio"] == 1.0
    assert layers["core.fourier_matrix.bytes"] == 16 * 15 * 15 * layers["core.fourier_matrix.calls"]
    assert 0 < layers["suite.self_s"] < layers["suite.run_suite.s"]
    assert layers["cli.main.s"] >= layers["suite.run_suite.s"]


def test_reset_clears_spans_and_aggregates(tracer):
    phasecrt.run_suite(6)
    tracer.reset()
    assert tracer.spans == []
    assert tracer.summary(1).get("numtheory.crt_compose.calls", 0) == 0


def test_tracer_refuses_a_metric_with_nothing_to_trace():
    original = phasecrt.reps.build_pls
    t = Tracer(spec.AGGREGATE_ONLY, spec.TRACED_METHODS)
    with pytest.raises(LookupError, match="reps.build_plz"):
        t.install("phasecrt", required={"reps.build_pls", "reps.build_plz"})
    assert phasecrt.suite.build_pls is original
    methods = {**spec.TRACED_METHODS, ("core", "StateVector", "no_such_method"): "core.nope"}
    with pytest.raises(LookupError, match="core.nope"):
        Tracer(spec.AGGREGATE_ONLY, methods).install("phasecrt")
    assert phasecrt.suite.build_pls is original


def test_every_per_layer_function_is_traced(tracer):
    tracer.uninstall()
    tracer.install("phasecrt", required=functions_read_by(n for n, _, _ in spec.PER_LAYER))


def test_benchmark_json_meets_the_contract():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert list(spec.WORKLOADS) == list(spec.KINDS)
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in doc["workloads"]]
    names += [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names)) and all(name.match(n) for n in names)
    assert all(len(w["why"]) <= 200 for w in doc["workloads"])
    assert all(unit.match(m["unit"]) for m in doc["end_to_end"] + doc["per_layer"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= doc["run_seconds"] <= 60 and 2 <= len(doc["workloads"]) <= 8


def test_percentile_needs_ten_samples_beyond_it():
    assert run.percentile(list(range(200)), 95) == pytest.approx(189.05)
    with pytest.raises(run.BenchError):
        run.percentile(list(range(199)), 95)


def test_times_are_scaled_to_reference_host_speed():
    ref = spec.CALIB_REF_S
    res = {"calib_s": [ref, 2 * ref, 2 * ref], "unit_s": [4.0, 6.0, 8.0], "setup_s": 0.4,
           "latencies_ms": [float(x) for x in range(200)], "peak_rss_mb": 50.0}
    assert run.ref_scale(res) == pytest.approx(0.5)
    probes = [{"setup_s": 0.2, "calib_s": [ref]}, {"setup_s": 0.3, "calib_s": [2 * ref]},
              {"setup_s": 0.6, "calib_s": [3 * ref]}]
    got = run.end_to_end(res, probes)
    assert got["wall_s"] == pytest.approx(3.0)
    assert got["setup_s"] == pytest.approx(0.2)  # median of 0.2, 0.15 and 0.2
    assert got["verdicts_per_s"] == pytest.approx(200 / 9.0)
    assert got["verdict_p95_ms"] == pytest.approx(0.5 * 189.05)
    assert got["peak_rss_mb"] == 50.0


def test_host_speed_samples_at_most_once_per_interval():
    import child
    speed = child.HostSpeed()
    speed.sample()
    speed.sample()
    assert len(speed.samples) == 1 and speed.spent == speed.samples[0] > 0


def test_run_refuses_a_directory_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "suite-w2",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0 and out.stdout == ""
