"""phasecrt benchmark: each workload runs in fresh child processes, its outputs
are checked, and every metric is printed by name with its unit. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

  python3 perfbench/run.py --workload suite-w2 --seed 1 --seconds 10 --trace 0
  python3 perfbench/run.py --seed 1          # every workload, end-to-end metrics
  python3 -m pytest perfbench/tests          # the benchmark's own tests

--trace 0 reports the end-to-end metrics of spec.END_TO_END from one untraced
child plus set-up probes run before and after it, with times at reference host
speed (see spec.CALIB_REF_S). --trace 1 reports the per-layer metrics of spec.PER_LAYER
from an untraced child and a traced one, and keeps the spans in
perfbench/.work/. Run from any directory; phasecrt is imported from src/ of the
checkout that holds this file, never from an installed copy.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spec
import stream

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"

# setup_s is the median of this many probes, half before the measured child and
# half after it: host speed drifts over seconds, and the halves straddle the run.
SETUP_PROBES = 16
STREAM_BLOCKS = 20     # distinct request blocks generated per run; reused in order
RUN_BUDGET_S = 170     # every child is stopped by then, so a run ends within 180 s


class BenchError(Exception):
    """The benchmark could not produce a result."""


def child_env(blas_threads: int) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PHASECRT_TOLERANCE"}
    threads = str(blas_threads)
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    return env


def spawn(child_args: list[str], env: dict, result: Path, deadline: float) -> dict:
    """Run child.py to completion; add its set-up time (CLOCK_MONOTONIC from
    spawn to phasecrt imported) and its own peak RSS (wait4, not RUSAGE_CHILDREN)."""
    cmd = [sys.executable, str(HERE / "child.py"), *child_args, "--result", str(result)]
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdin=subprocess.DEVNULL,
                            stdout=subprocess.DEVNULL)
    pid = 0
    try:
        while True:
            pid, status, rusage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.monotonic() > deadline:
                raise BenchError(f"child {' '.join(child_args)} ran past the run budget")
            time.sleep(0.02)
    finally:
        if not pid:
            proc.kill()
            os.wait4(proc.pid, 0)
            proc.returncode = -9
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {' '.join(child_args)} exited with {proc.returncode}")
    out = json.loads(result.read_text())
    out["setup_s"] = out["ready"] - t_spawn
    out["peak_rss_mb"] = rusage.ru_maxrss / 1024
    return out


def ref_scale(res: dict) -> float:
    """Factor that takes a child's times to reference host speed (spec.CALIB_REF_S),
    from the calibration loops that child timed."""
    return spec.CALIB_REF_S / statistics.median(res["calib_s"])


def percentile(values: list[float], q: int) -> float:
    if len(values) * (100 - q) / 100 < 10:
        raise BenchError(f"p{q} needs 10 samples beyond it; have {len(values)} samples")
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(res: dict, probes: list[dict]) -> dict:
    """Times at reference host speed; each probe's set-up time is scaled by the
    host speed that probe saw just after it was ready."""
    scale = ref_scale(res)
    lat = res["latencies_ms"]
    return {
        "wall_s": scale * statistics.median(res["unit_s"]),
        "setup_s": statistics.median([ref_scale(p) * p["setup_s"] for p in probes]),
        "peak_rss_mb": res["peak_rss_mb"],
        "verdicts_per_s": len(lat) / (scale * sum(res["unit_s"])),
        "verdict_p50_ms": scale * percentile(lat, 50),
        "verdict_p95_ms": scale * percentile(lat, 95),
    }


def per_layer(plain: dict, traced: dict) -> dict:
    values = {name: traced["layers"].get(name, 0.0) for name, _, _ in spec.PER_LAYER}
    attempted = plain["attempted"] + traced["attempted"]
    scale = ref_scale(plain)
    values.update({
        "proc.cpu_s": plain["cpu_s"] / plain["units"],
        "proc.cpu_util": plain["cpu_s"] / plain["measured_s"],
        "trace.overhead": (ref_scale(traced) * statistics.median(traced["unit_s"])
                           / (scale * statistics.median(plain["unit_s"]))),
        "error_rate": (plain["failed"] + traced["failed"]) / attempted,
    })
    for cls in spec.STREAM_BLOCK:
        lat = [x for x, c in zip(plain["latencies_ms"], plain["classes"]) if c == cls]
        values[f"classify.{cls}.p50_ms"] = scale * statistics.median(lat) if lat else 0.0
    return values


def run_workload(name: str, seed: int, seconds: float, trace: int, blas_threads: int) -> dict:
    workload = spec.WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    work = WORK / f"{name}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env(blas_threads)
    base = ["--workload", name, "--seconds", str(seconds), "--work", str(work)]
    try:
        if workload["kind"] == "stream":
            requests = stream.generate(seed, workload["M"], STREAM_BLOCKS)
            listed = stream.write(requests, work / "states")
            (work / "requests.json").write_text(json.dumps(listed))
        if trace:
            plain = spawn(base + ["--trace", "0"], env, work / "plain.json", deadline)
            spans = WORK / f"spans-{name}-seed{seed}.jsonl"
            traced = spawn(base + ["--trace", "1", "--spans", str(spans)], env,
                           work / "traced.json", deadline)
            runs = [plain, traced]
            print(f"{name}: spans written to {spans}", file=sys.stderr)
        else:
            def probe(i):
                return spawn(["--probe"], env, work / f"probe-{i}.json", deadline)
            half = SETUP_PROBES // 2
            setup = [probe(i) for i in range(half)]
            runs = [spawn(base + ["--trace", "0"], env, work / "result.json", deadline)]
            setup += [probe(i) for i in range(half, SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    for p in problems:
        print(f"{name}: FAILED {p}", file=sys.stderr)
    if trace:
        values, table = per_layer(*runs), spec.PER_LAYER
    else:
        values, table = end_to_end(runs[0], setup), spec.END_TO_END
    units = {n: u for n, u, *_ in table}
    metrics = {n: {"value": values[n], "unit": units[n]} for n in units}
    for n, m in metrics.items():
        print(f"{name:<16} {n:<36} {m['value']:>14.6g} {m['unit']}")
    if not trace:
        res = runs[0]
        print(f"{name:<16} {'error_rate':<36} {failed / attempted:>14.6g} ratio"
              f"   ({failed} of {attempted} ops failed;"
              f" {len(res['latencies_ms'])} verdicts, {res['units']} units)")
        print(f"{name:<16} {'unscaled wall_s':<36} {statistics.median(res['unit_s']):>14.6g} s"
              f"   (the times above are at reference host speed; the calibration"
              f" loop took {1 / ref_scale(res):.3f}x its reference time)")
    return {"correct": failed == 0 and not problems, "attempted": attempted,
            "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=list(spec.WORKLOADS),
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # OpenBLAS/OpenMP threads in every child; BENCHMARK.json's command sets it.
    # On a 2-core box, 8 spawns spread start-up time by 11% at one thread and
    # by 32% at the default (one per core).
    parser.add_argument("--blas-threads", type=int, default=1)
    args = parser.parse_args(argv)
    # SIGTERM unwinds through spawn(), which stops and reaps its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "phasecrt" / "__init__.py").is_file():
        print(f"error: no phasecrt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.blas_threads < 1:
        print("error: --seconds and --blas-threads must be positive", file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(spec.WORKLOADS)
    try:
        results = {n: run_workload(n, args.seed, args.seconds, args.trace, args.blas_threads)
                   for n in names}
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload:
        result = results[args.workload]
    else:
        result = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
