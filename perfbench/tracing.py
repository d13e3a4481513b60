"""Spans and call counters around the public functions of each blockmpc layer.

The tracer lives entirely in the benchmark: it replaces module attributes
(and two ``RtiController`` methods) with thin wrappers while it is
installed and restores the originals afterwards, so an untraced call runs
the program's code unchanged.  Spans are aggregated in memory as they
close; a span's self time is its duration minus the durations of the spans
opened inside it, so the self times of one tree add up to its root span.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from time import perf_counter

from blockmpc import condensing, harness, model, rti, shooting
from blockmpc.rti import RtiController

# (owner, attribute, span name); the owner is where the caller looks the name
# up, e.g. RtiController.feedback calls ``solve_qp`` from the rti module.
SPANS = [
    (harness, "build_controller", "harness.build_controller"),
    (RtiController, "initial_state", "rti.initial_state"),
    (rti, "evaluate", "shooting.evaluate"),
    (rti, "condense", "condensing.condense"),
    (condensing, "compute_Ghat", "condensing.compute_Ghat"),
    (condensing, "compute_L", "condensing.compute_L"),
    (condensing, "compute_Hhat", "condensing.compute_Hhat"),
    (condensing, "compute_ghat", "condensing.compute_ghat"),
    (condensing, "condense_constraints", "condensing.condense_constraints"),
    (rti, "expand", "condensing.expand"),
    (rti, "solve_qp", "qp_solver.solve_qp"),
    (rti, "kkt_residual", "rti.kkt_residual"),
]

# Counted, not timed: these run hundreds of times per step, and a span each
# would cost more than the work it measures.  The controller's model
# closures look the functions up in the model module; the plant in the
# harness holds its own reference and is therefore not counted.
COUNTERS = [
    (shooting, "integrate_interval", "integrator.integrate_interval.calls"),
    (model, "pendulum_rhs", "model.rhs.calls"),
    (model, "pendulum_jacobians", "model.jac.calls"),
]


class Tracer:
    """Collects inclusive time, self time and call counts per span name."""

    def __init__(self):
        self._stack = []  # open spans: [name, start, time spent in children]
        self.incl = defaultdict(float)
        self.self_time = defaultdict(float)
        self.counts = Counter()
        self._patches = []
        for owner, attr, name in SPANS:
            self._add(owner, attr, name, self._span_wrapper)
        for owner, attr, name in COUNTERS:
            self._add(owner, attr, name, self._count_wrapper)

    def _add(self, owner, attr, name, make_wrapper):
        original = getattr(owner, attr, None)
        if original is None:
            print(f"trace: {owner.__name__}.{attr} not found, {name} reads 0",
                  file=sys.stderr)
            return
        self._patches.append((owner, attr, original, make_wrapper(original, name)))

    def _span_wrapper(self, fn, name):
        def wrapper(*args, **kwargs):
            self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end()
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def begin(self, name: str):
        self._stack.append([name, perf_counter(), 0.0])

    def end(self):
        name, start, children = self._stack.pop()
        dur = perf_counter() - start
        self.incl[name] += dur
        self.self_time[name] += dur - children
        if self._stack:
            self._stack[-1][2] += dur

    def take(self) -> dict:
        """Return and reset what was recorded since the last call."""
        if self._stack:
            raise RuntimeError("take() with open spans")
        out = {"incl": dict(self.incl), "self": dict(self.self_time),
               "counts": dict(self.counts)}
        self.incl.clear()
        self.self_time.clear()
        self.counts.clear()
        return out
