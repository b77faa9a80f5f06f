"""What the benchmark measures. The workload names and reasons, the metrics,
their units and bounds are read from BENCHMARK.json at the repository root;
this module adds what each workload runs and how it is timed and traced.
"""

from __future__ import annotations

import json
from pathlib import Path

MANIFEST = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
RUN_SECONDS = MANIFEST["run_seconds"]

# What each workload of BENCHMARK.json runs; its "why" comes from there.
# kind "suite": one unit is `phasecrt suite M --format json --out FILE`.
# kind "stream": one unit is a block of 20 classify requests at dimension M.
KINDS = {
    "suite-w2": {"kind": "suite", "M": 210},
    "suite-w3": {"kind": "suite", "M": 667},
    "classify-stream": {"kind": "stream", "M": 330},
}
WORKLOADS = {w["name"]: {**KINDS[w["name"]], "why": w["why"]} for w in MANIFEST["workloads"]}

# Host speed. On the shared 2-core VM this benchmark was tuned on, the time of
# a fixed pure-Python loop moves by up to 30% over minutes (the same suite run
# took 22 s and 30 s five minutes apart), and every wall time moves with it.
# So a child times CALIB_LOOP turns of that loop at most every CALIB_EVERY_S,
# between the calls it times: before each classify-stream request, and in a
# suite before each unit and each classify_vn_state call (the PLS check of
# every split). Sampling takes about 1% of the time, left out of every
# reported time. Times are reported at reference speed: measured time x
# CALIB_REF_S / median loop time of the run. (A SIGALRM timer would sample
# inside long calls too, but it raised peak RSS by 2-5 MB.) CALIB_REF_S is
# the loop's median time in a child on that VM (Xeon, 2.0 GHz, Python 3.11).
CALIB_LOOP = 20_000
CALIB_EVERY_S = 0.25
CALIB_REF_S = 0.0022

# Times are at reference host speed (above). A verdict is one
# classify_vn_state call: a request of classify-stream, or a PLS
# classification made inside the suite. Peak RSS repeats to within 0.5%.
END_TO_END = [(m["name"], m["unit"], m["better"], m["bound"]) for m in MANIFEST["end_to_end"]]

# Request classes of classify-stream, and how many of each one block holds.
STREAM_BLOCK = {
    "pls": 3,
    "pls_conj": 3,
    "wrong_geometry": 3,
    "perturbed_vn": 3,
    "perturbed_count": 3,
    "dense": 2,
    "random": 3,
}

# Functions traced by count and time only (about 1e6 calls per unit at M=667);
# every other public function gets a span per call.
AGGREGATE_ONLY = ("numtheory.crt_compose", "reps.factor_kernel", "core.omega_power")

# Methods traced on their class, under the name given here.
TRACED_METHODS = {
    ("core", "StateVector", "momentum_amplitudes"): "core.fft",
    ("reps", "RepBasis", "gram_residual"): "reps.gram_residual",
}

# Per-layer values are per unit of work of the workload (one suite call, or
# one block of 20 requests); .s is busy time, .self_s busy time minus child
# spans; .bytes is computed from array shapes or file sizes.
PER_LAYER = [(m["name"], m["unit"], m["better"]) for m in MANIFEST["per_layer"]]
