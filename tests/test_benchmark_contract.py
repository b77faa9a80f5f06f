"""The benchmark's tracer must find every function its per-layer metrics read.

perfbench/tracer.py refuses to run a traced workload when a function named by
a per-layer metric of BENCHMARK.json is gone. This test loads the tracer and
the benchmark spec by path (read-only, no bytecode written next to them), so
a renamed or deleted traced function fails here and not only in the
benchmark's own tests.
"""

import importlib.util
import sys
from pathlib import Path

import phasecrt
import phasecrt.cli  # the tracer wraps every layer, so each must be imported

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"_bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_finds_every_per_layer_function(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    tracer, spec = _load("tracer"), _load("spec")
    original = phasecrt.reps.build_pls
    traced = tracer.Tracer(spec.AGGREGATE_ONLY, spec.TRACED_METHODS)
    # raises LookupError, after undoing its own patching, if a name is missing
    traced.install("phasecrt", required=tracer.functions_read_by(
        name for name, _, _ in spec.PER_LAYER))
    traced.uninstall()
    assert phasecrt.suite.build_pls is phasecrt.reps.build_pls is original
