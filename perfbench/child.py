"""One run of one workload in a fresh interpreter, started by run.py.

  child.py --probe --result FILE
      import phasecrt, record when it is ready and the host speed then, exit
      (a set-up sample)
  child.py --workload NAME --seconds S --trace 0|1 --work DIR --result FILE [--spans FILE]
      warm up, then run units of work until S seconds are used, checking
      every output; write timings and the gate's findings to FILE

Every call into phasecrt goes through its module attribute, so a tracer
installed with --trace 1 sees it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

from gate import check_report, load_golden, verdict_problem
from spec import (AGGREGATE_ONLY, CALIB_EVERY_S, CALIB_LOOP, PER_LAYER, STREAM_BLOCK,
                  TRACED_METHODS, WORKLOADS)
from tracer import Tracer, functions_read_by, rebind, restore

ROOT = Path(__file__).resolve().parent.parent

# No percentile is reported with fewer than 10 samples beyond it; p95 needs 200.
MIN_SAMPLES = 200

PROBE_CALIB = 10  # calibration loops a set-up probe times after it is ready


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


class HostSpeed:
    """How fast the host runs Python: sample() times CALIB_LOOP turns of a fixed
    integer loop, at most once per CALIB_EVERY_S. Runners call it between the
    calls they time and leave `spent` out of any time that encloses a sample."""

    def __init__(self):
        self.samples = []
        self.spent = 0.0
        self._due = 0.0

    def sample(self) -> None:
        t0 = time.perf_counter()
        if t0 < self._due:
            return
        seconds = calib_loop()
        self.samples.append(seconds)
        self.spent += seconds
        self._due = t0 + seconds + CALIB_EVERY_S


def calib_loop() -> float:
    """Seconds taken by CALIB_LOOP turns of a fixed integer loop."""
    t0 = time.perf_counter()
    s = 0
    for i in range(CALIB_LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class SuiteRunner:
    """Unit: `phasecrt suite M --format json --out FILE`, gated against the
    golden report. A verdict is one classify_vn_state call made during it."""

    def __init__(self, pc, M: int, work: Path):
        self.pc, self.M = pc, M
        self.out = work / "report.json"
        self.golden = load_golden(M)
        self.attempted = self.failed = 0
        self.problems = []
        self.latencies = []
        self.classes = []  # verdicts of the suite carry no request class
        self.speed = HostSpeed()
        inner = pc.lattice.classify_vn_state

        def timed(*args, **kwargs):
            self.speed.sample()
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                self.latencies.append(time.perf_counter() - t0)
        self._undo = rebind("phasecrt", {inner: timed})

    def close(self) -> None:
        restore(self._undo)

    def _suite(self, M: int) -> None:
        self.pc.cli.main(["suite", str(M), "--format", "json", "--out", str(self.out)])

    def warm_up(self) -> None:
        self._suite(15)
        self.latencies.clear()

    def unit(self, tracer) -> float:
        n = len(self.golden["checks"])
        self.attempted += n
        self.out.unlink(missing_ok=True)  # a unit that writes no report must not pass
        spent, t0 = self.speed.spent, time.perf_counter()
        try:
            self._suite(self.M)
            seconds = time.perf_counter() - t0 - (self.speed.spent - spent)
            text = self.out.read_text()
            doc = json.loads(text)
        except Exception as exc:  # a crash fails every op of the unit
            self.failed += n
            self.problems.append(f"suite {self.M}: {type(exc).__name__}: {exc}")
            return time.perf_counter() - t0
        failed, problems = check_report(doc, self.golden)
        self.failed += failed
        self.problems += problems
        if tracer is not None:
            tracer.counters["cli.report_bytes"] += len(text.encode())
        return seconds


class StreamRunner:
    """Unit: one block of classify requests (spec.STREAM_BLOCK), each a
    load_state of its file then classify_vn_state against its split."""

    def __init__(self, pc, work: Path):
        self.pc, self.work = pc, work
        self.requests = json.loads((work / "requests.json").read_text())
        self.block = sum(STREAM_BLOCK.values())
        self.next = 0
        self.attempted = self.failed = 0
        self.problems = []
        self.latencies = []
        self.classes = []
        self.speed = HostSpeed()

    def _request(self, req) -> tuple[float, str | None]:
        pc = self.pc
        t0 = time.perf_counter()
        try:
            state, _ = pc.statefile.load_state(self.work / "states" / req["file"])
            rho = pc.lattice.DensityMatrix.from_state(state) if req["dense"] else state
            verdict = pc.lattice.classify_vn_state(rho, pc.numtheory.make_split(req["M"], req["M1"]))
            if isinstance(verdict, pc.lattice.VNLattice):
                got = {"type": "VN", "shift": [verdict.shift_q, verdict.shift_k]}
            else:
                got = {"type": "NotVN", "reason": verdict.reason}
            problem = verdict_problem(got, req["expected"])
        except Exception as exc:  # a crash fails this request only
            problem = f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        return seconds, problem and f"{req['file']} ({req['cls']}): {problem}"

    def warm_up(self) -> None:
        """One request of each class, untimed and unchecked."""
        first = {}
        for req in self.requests:
            first.setdefault(req["cls"], req)
        for req in first.values():
            self._request(req)

    def unit(self, tracer) -> float:
        spent, t0 = self.speed.spent, time.perf_counter()
        for _ in range(self.block):
            req = self.requests[self.next % len(self.requests)]
            self.next += 1
            if tracer is not None:
                tracer.request = self.next
            self.speed.sample()
            seconds, problem = self._request(req)
            self.latencies.append(seconds)
            self.classes.append(req["cls"])
            self.attempted += 1
            if problem:
                self.failed += 1
                self.problems.append(problem)
        return time.perf_counter() - t0 - (self.speed.spent - spent)


def run(args, pc, ready: float) -> dict:
    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    tracer = None
    if args.trace:
        tracer = Tracer(AGGREGATE_ONLY, TRACED_METHODS)
        tracer.install("phasecrt", required=functions_read_by(n for n, _, _ in PER_LAYER))
    if workload["kind"] == "suite":
        runner = SuiteRunner(pc, workload["M"], work)
    else:
        runner = StreamRunner(pc, work)
    runner.warm_up()
    if tracer is not None:
        tracer.reset()

    speed = runner.speed
    speed.samples.clear()
    unit_s = []
    cpu0, t_start = _cpu_s(), time.perf_counter()
    while True:
        if tracer is not None:
            tracer.request = len(unit_s)
        speed.sample()
        unit_s.append(runner.unit(tracer))
        elapsed = time.perf_counter() - t_start
        # Whole units only: a suite unit is 10-35 s, so a run may end past the
        # time. A program too slow to finish is stopped by run.py's budget; one
        # that fails ops stops on time, even short of MIN_SAMPLES verdicts.
        if elapsed >= args.seconds and (len(runner.latencies) >= MIN_SAMPLES or runner.failed):
            break
    measured_s = time.perf_counter() - t_start
    cpu_s = _cpu_s() - cpu0

    result = {
        "ready": ready,
        "units": len(unit_s),
        "unit_s": unit_s,
        "calib_s": speed.samples,
        "measured_s": measured_s,
        "cpu_s": cpu_s,
        "latencies_ms": [1e3 * x for x in runner.latencies],
        "classes": runner.classes,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "problems": runner.problems[:20],
    }
    if tracer is not None:
        result["layers"] = tracer.summary(len(unit_s))
        if args.spans:
            tracer.write_spans(args.spans, {"workload": args.workload, "why": workload["why"],
                                            "units": len(unit_s)})
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work")
    parser.add_argument("--spans")
    parser.add_argument("--result", required=True)
    args = parser.parse_args(argv)

    import phasecrt  # noqa: E402 - this import is what setup_s measures
    import phasecrt.cli
    ready = time.monotonic()

    expected = (ROOT / "src" / "phasecrt").resolve()
    if Path(phasecrt.__file__).resolve().parent != expected:
        print(f"error: imported phasecrt from {phasecrt.__file__}, expected {expected}",
              file=sys.stderr)
        return 3
    if args.probe:  # host speed just after set-up, to scale this probe's set-up time
        result = {"ready": ready, "calib_s": [calib_loop() for _ in range(PROBE_CALIB)]}
    else:
        result = run(args, phasecrt, ready)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
