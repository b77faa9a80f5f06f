"""Per-layer tracing from outside the program.

Tracer.install wraps every public function of every phasecrt layer, in every
module namespace that holds it (suite.py imports build_pls from reps, so
phasecrt.suite.build_pls is wrapped as well as phasecrt.reps.build_pls), plus
the methods in spec.TRACED_METHODS on their class. A wrapped call records a
span (name, parent span, request id, start, end) unless its name is in
spec.AGGREGATE_ONLY, where only a call count and total time are kept. Spans
stay in memory until write_spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import types
from collections import defaultdict

LAYERS = ("numtheory", "core", "reps", "lattice", "statefile", "suite", "cli")


def _fourier_bytes(counters, args, kwargs, result):
    M = args[0] if args else kwargs["M"]
    counters["core.fourier_matrix.bytes"] += 16 * M * M


def _mixed_bytes(counters, args, kwargs, result):
    counters["lattice.mixed_element_matrix.bytes"] += result.nbytes


def _support_points(counters, args, kwargs, result):
    counters["lattice.support.points"] += len(result)


def _vn_verdicts(counters, args, kwargs, result):
    counters["lattice.classify_vn_state.vn"] += int(hasattr(result, "shift_q"))


def _state_bytes(counters, args, kwargs, result):
    counters["statefile.load_state.bytes"] += os.path.getsize(args[0] if args else kwargs["path"])


def _suite_counts(counters, args, kwargs, result):
    counts = result.counts
    counters["suite.checks"] += len(result.checks)
    counters["suite.fail"] += counts["fail"]
    counters["suite.discrepancy"] += counts["discrepancy"]


# Counters computed from a traced call's arguments or result.
EXTRAS = {
    "core.fourier_matrix": _fourier_bytes,
    "lattice.mixed_element_matrix": _mixed_bytes,
    "lattice.support": _support_points,
    "lattice.classify_vn_state": _vn_verdicts,
    "statefile.load_state": _state_bytes,
    "suite.run_suite": _suite_counts,
}


def functions_read_by(metrics) -> set[str]:
    """The traced functions that metrics named layer.function.stat read."""
    return {name.rsplit(".", 1)[0] for name in metrics
            if name.count(".") == 2 and name.split(".")[0] in LAYERS}


def rebind(package: str, replacements: dict) -> list:
    """Point every module-level name in package's modules that holds a key of
    replacements at its value; return (module, name, old value) for undoing."""
    undo = []
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != package and not mod_name.startswith(package + "."):
            continue
        for attr, value in list(vars(mod).items()):
            if isinstance(value, types.FunctionType) and value in replacements:
                undo.append((mod, attr, value))
                setattr(mod, attr, replacements[value])
    return undo


def restore(undo: list) -> None:
    """Undo rebind (or install) records, newest first."""
    for obj, attr, value in reversed(undo):
        setattr(obj, attr, value)


class Tracer:
    def __init__(self, aggregate_only=(), methods=None):
        self.aggregate_only = frozenset(aggregate_only)
        self.methods = dict(methods or {})
        self.request = 0
        self._undo = []
        self.aggregates = defaultdict(lambda: [0, 0.0])  # name -> [calls, seconds]
        self.reset()

    def reset(self) -> None:
        """Drop everything recorded so far (used after warm-up)."""
        self.spans = []  # (name, parent index or -1, request, start, end)
        self._stack = []
        self.counters = defaultdict(float)
        for stat in self.aggregates.values():  # the wrappers hold these lists
            stat[:] = [0, 0.0]

    # ------------------------------------------------------------ patching --

    def _wrap(self, name, fn):
        if name in self.aggregate_only:
            stat = self.aggregates[name]

            @functools.wraps(fn)
            def aggregated(*args, **kwargs):
                t0 = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    stat[0] += 1
                    stat[1] += time.perf_counter() - t0
            return aggregated

        extra = EXTRAS.get(name)

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, parent, self.request, t0, t1)
            if extra is not None:
                extra(self.counters, args, kwargs, result)
            return result
        return spanned

    def install(self, package: str = "phasecrt", required=()) -> None:
        """Wrap every public function of LAYERS and the methods. Raise
        LookupError if a name in required or aggregate_only, or a method, is
        not there to wrap, so that a zero count can only mean "not called"."""
        wrappers, names = {}, set()
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and isinstance(fn, types.FunctionType)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
                    names.add(f"{layer}.{attr}")
        self._undo += rebind(package, wrappers)
        for (layer, cls_name, method), name in self.methods.items():
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name, None)
            fn = vars(cls).get(method) if cls is not None else None
            if isinstance(fn, types.FunctionType):
                self._undo.append((cls, method, fn))
                setattr(cls, method, self._wrap(name, fn))
                names.add(name)
        missing = (set(required) | self.aggregate_only | set(self.methods.values())) - names
        if missing:
            self.uninstall()
            raise LookupError(f"nothing to trace for {', '.join(sorted(missing))}")

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # ------------------------------------------------------------- results --

    def summary(self, units: int) -> dict[str, float]:
        """Per-unit busy time, self time and calls per traced name, plus the
        per-layer self time and the extra counters."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, parent, _, t0, t1 in spans:
            if parent >= 0:
                child[parent] += t1 - t0
        totals = defaultdict(float)
        for i, (name, parent, _, t0, t1) in enumerate(spans):
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += t1 - t0 - child[i]
            totals[f"{name.split('.')[0]}.self_s"] += t1 - t0 - child[i]
            # Busy time counts only the outermost span of a name.
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][1]
            if p < 0:
                totals[f"{name}.s"] += t1 - t0
        for name, (calls, seconds) in self.aggregates.items():
            totals[f"{name}.calls"] += calls
            totals[f"{name}.s"] += seconds
        for name, value in self.counters.items():
            totals[name] += value
        out = {name: value / units for name, value in totals.items()}
        classified = totals["lattice.classify_vn_state.calls"]
        out["lattice.vn_ratio"] = (totals["lattice.classify_vn_state.vn"] / classified
                                   if classified else 0.0)
        return out

    def write_spans(self, path, header: dict) -> None:
        """JSON lines: the header, then [id, parent, request, name, start, end] per span."""
        with open(path, "w") as f:
            f.write(json.dumps(header) + "\n")
            for i, (name, parent, request, t0, t1) in enumerate(self.spans):
                f.write(json.dumps([i, parent, request, name, t0, t1]) + "\n")
