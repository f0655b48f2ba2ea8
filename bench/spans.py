"""Spans around the public calls of each spikecore module, and the
self-time arithmetic over them.

`instrument(tracer)` replaces the public functions and methods of `core`,
`topology`, `fixedpoint` (where `core` and `topology` bind them, plus the
`fit_raw` that the other raw helpers call) and `reference` by wrappers
that record a span per call, and restores them on exit.  Spans of one
request (a sample, or one set-up) are kept in memory and reduced to
per-name totals by `Tracer.flush` once the request ends, so memory stays
bounded however long the run is.
"""

from __future__ import annotations

import functools
import threading
import time
from contextlib import contextmanager

from spikecore import core, fixedpoint, reference, topology


class Span:
    __slots__ = ("name", "start", "end", "parent")

    def __init__(self, name, start=0.0, end=0.0, parent=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of its interval that the union
    of its child spans covers (children may overlap when they run on
    worker threads)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    out = []
    for s in spans:
        covered, reach = 0.0, s.start
        for lo, hi in sorted(children.get(id(s), ())):
            lo, hi = max(lo, reach), min(hi, s.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(s.end - s.start - covered)
    return out


class Tracer:
    """Collects spans; `totals[phase][name]` is [calls, total_s, self_s]."""

    def __init__(self):
        self.spans: list[Span] = []
        self.totals: dict[str, dict[str, list]] = {}
        self.phase = "setup"
        self._stacks: dict[int, list[Span]] = {}
        self._main = threading.main_thread().ident

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                # A pool worker's span belongs to the call the main thread
                # is blocked in while it waits for the worker.
                main = self._stacks.get(self._main) if tid != self._main else None
                parent = main[-1] if main else None
            span = Span(name, parent=parent)
            self.spans.append(span)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def begin(self, phase: str) -> None:
        """Close the current phase and attribute later spans to `phase`."""
        self.flush()
        self.phase = phase

    def flush(self) -> None:
        """Reduce the finished request's spans into the current phase."""
        phase = self.totals.setdefault(self.phase, {})
        for span, own in zip(self.spans, self_times(self.spans)):
            acc = phase.setdefault(span.name, [0, 0.0, 0.0])
            acc[0] += 1
            acc[1] += span.end - span.start
            acc[2] += own
        self.spans = []

    def get(self, name: str, phases=None) -> tuple[int, float, float]:
        """(calls, total_s, self_s) for one span name, summed over phases."""
        calls, total, own = 0, 0.0, 0.0
        for phase, names in self.totals.items():
            if phases is None or phase in phases:
                c, t, s = names.get(name, (0, 0.0, 0.0))
                calls, total, own = calls + c, total + t, own + s
        return calls, total, own


# (owner, attribute, span name).  Module functions are wrapped in every
# module that binds them, so calls from inside the package are seen.
TARGETS = [
    (core.Core, "__init__", "core.Core.ctor"),
    (core.Core, "run_sample", "core.run_sample"),
    (core.Core, "step_cycle", "core.step_cycle"),
    (core.Core, "write_weight", "core.write_weight"),
    (topology.WeightMemory, "write", "topology.WeightMemory.write"),
    (core, "build_mask", "topology.build_mask"),
    (reference, "build_mask", "topology.build_mask"),
    (core, "encode_raw", "fixedpoint.encode_raw"),
    (core, "add_raw", "fixedpoint.add_raw"),
    (core, "sub_raw", "fixedpoint.sub_raw"),
    (core, "mul_raw", "fixedpoint.mul_raw"),
    (core, "fit_raw", "fixedpoint.fit_raw"),
    (topology, "fit_raw", "fixedpoint.fit_raw"),
    (fixedpoint, "fit_raw", "fixedpoint.fit_raw"),  # the fit inside add/sub/mul/encode
    (reference.ReferenceCore, "run_sample", "reference.ReferenceCore.run_sample"),
    (reference.ReferenceCore, "step_cycle", "reference.ReferenceCore.step_cycle"),
    (reference, "stack_traces", "reference.stack_traces"),
    (reference, "rmse", "reference.rmse"),
    (reference, "matched_reference", "reference.matched_reference"),
]


@contextmanager
def instrument(tracer: Tracer):
    """Install span wrappers on every target; restore the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in TARGETS]
    try:
        for (owner, attr, name), (_, _, fn) in zip(TARGETS, saved):
            setattr(owner, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for owner, attr, fn in saved:
            setattr(owner, attr, fn)
