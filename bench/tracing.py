"""Spans around calls into wrlab's layers, recorded from outside the program.

`Tracer.install` replaces every public function of the traced modules, in
every wrlab module namespace that refers to it, by a wrapper that times the
call. Intra-module calls go through the module's own namespace, so they are
traced too. Aggregates (calls, inclusive and self time per function) are kept
online; full spans (name, start, end, parent) are kept in memory only while
`record_spans` is on and are written out by the caller when the run ends.

In `alloc` mode the wrappers also measure each call's peak traced allocation
with tracemalloc, which numpy reports its buffers to. That mode is slow and
runs in its own untimed pass.
"""

from __future__ import annotations

import inspect
import sys
import tracemalloc
from time import perf_counter

PACKAGE = "wrlab"
LAYERS = ("datagen", "core", "inference", "stattests", "kernels", "ranksim",
          "engine", "io", "cli")

# Called thousands of times per solve_omega at about half a microsecond each:
# a wrapper would multiply its cost, so its time counts as its caller's.
UNTRACED = frozenset({"kernels.ln_choose"})


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.peak_alloc: list[int] = []
        self.record_spans = False
        self.alloc = False
        self.spans: list = []
        # Per-call observations the per-layer metrics need.
        self.cells_built = 0        # pairwise_verdicts output cells
        self.boot_valid = 0         # bootstrap replicates kept
        self.boot_drawn = 0         # bootstrap replicates drawn
        self.omega_keys: set = set()
        self._stack: list[list] = [[-1, 0.0, 0, 0]]  # span index, child time, base, max
        self._patched: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, tuple] | None = None  # id(original) -> (original, wrapper)

    # -- installation -------------------------------------------------
    def install(self) -> None:
        if self._wrappers is None:
            self._wrappers = {}
            for layer in LAYERS:
                mod = sys.modules[f"{PACKAGE}.{layer}"]
                for name, fn in vars(mod).items():
                    qual = f"{layer}.{name}"
                    if (name.startswith("_") or not inspect.isfunction(fn)
                            or fn.__module__ != mod.__name__ or qual in UNTRACED):
                        continue
                    self._wrappers[id(fn)] = self._wrap(qual, fn)
        originals = self._wrappers
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None and wrapper[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper[1])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, qual: str, fn):
        fid = len(self.names)
        self.names.append(qual)
        self.calls.append(0)
        self.total.append(0.0)
        self.self_time.append(0.0)
        self.peak_alloc.append(0)
        observe = _OBSERVERS.get(qual)
        stack = self._stack
        calls, total, self_time = self.calls, self.total, self.self_time
        tracer = self

        def traced(*args, **kwargs):
            if tracer.alloc:
                return tracer._alloc_call(fid, fn, args, kwargs)
            parent = stack[-1]
            span = -1
            if tracer.record_spans:
                span = len(tracer.spans)
                tracer.spans.append(None)
            frame = [span, 0.0, 0, 0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                dur = end - start
                calls[fid] += 1
                total[fid] += dur
                self_time[fid] += dur - frame[1]
                parent[1] += dur
                if span >= 0:
                    tracer.spans[span] = (fid, start, end, parent[0])
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return fn, traced

    def _alloc_call(self, fid, fn, args, kwargs):
        stack = self._stack
        current, peak = tracemalloc.get_traced_memory()
        parent = stack[-1]
        parent[3] = max(parent[3], peak)
        tracemalloc.reset_peak()
        frame = [-1, 0.0, current, 0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            stack.pop()
            top = max(frame[3], tracemalloc.get_traced_memory()[1])
            parent[3] = max(parent[3], top)
            self.peak_alloc[fid] = max(self.peak_alloc[fid], top - frame[2])

    # -- summaries ----------------------------------------------------
    def by_name(self) -> dict[str, tuple[int, float, float]]:
        """qualified name -> (calls, inclusive seconds, self seconds)."""
        return {n: (c, t, s) for n, c, t, s in
                zip(self.names, self.calls, self.total, self.self_time) if c}

    def span_records(self) -> list[list]:
        return [[self.names[fid], start, end, parent]
                for fid, start, end, parent in self.spans]


def _observe_verdicts(tracer: Tracer, args, kwargs, result) -> None:
    tracer.cells_built += int(result[0].size)


def _observe_bootstrap(tracer: Tracer, args, kwargs, result) -> None:
    b = args[3] if len(args) > 3 else kwargs["b"]
    tracer.boot_drawn += b
    tracer.boot_valid += b - result.n_degenerate


def _observe_omega(tracer: Tracer, args, kwargs, result) -> None:
    tracer.omega_keys.add((args, tuple(sorted(kwargs.items()))))


_OBSERVERS = {
    "core.pairwise_verdicts": _observe_verdicts,
    "inference.bootstrap_columns": _observe_bootstrap,
    "ranksim.solve_omega": _observe_omega,
}
