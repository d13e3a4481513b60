"""The benchmark's tracer patches program attributes by name; each must exist.

``perfbench/tracing.py`` reports a missing attribute only on stderr and
then reads 0 for that span or counter, so a renamed function would
silently zero a per-layer metric.  This test turns that into a failure.
"""

import importlib.util
import os
from collections import Counter

import numpy as np
import pytest

from blockmpc import harness
from blockmpc.condensing import condense
from blockmpc.harness import SchemeConfig, build_controller

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")
DEFAULT_CFG = os.path.join(os.path.dirname(__file__), os.pardir, "configs", "pendulum.cfg")


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()
TRACED = tracing.SPANS + tracing.COUNTERS


@pytest.mark.parametrize("owner, attr, name", TRACED, ids=[name for *_, name in TRACED])
def test_traced_attribute_resolves(owner, attr, name):
    assert callable(getattr(owner, attr, None)), f"{name}: {owner.__name__}.{attr} not found"


def count_span_calls(monkeypatch, names):
    """Patch the traced attributes of ``names`` with call counters, as the tracer does."""
    counts = Counter()
    for owner, attr, name in TRACED:
        if name in names:
            def counted(*args, _fn=getattr(owner, attr), _name=name, **kwargs):
                counts[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(owner, attr, counted)
    return counts


CONDENSE_SPANS = ["condensing.compute_Ghat", "condensing.compute_L", "condensing.compute_Hhat",
                  "condensing.compute_ghat", "condensing.condense_constraints"]
STEP_SPANS = ["shooting.evaluate", "condensing.condense", "qp_solver.solve_qp",
              "condensing.expand", "rti.kkt_residual"]


@pytest.mark.parametrize("scheme", ["A", "C"])
def test_traced_spans_are_reached_once_per_call(monkeypatch, scheme):
    """A refactor that calls around a traced name would leave its span at 0."""
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    x0 = np.array([0.1, 3.0, 0.0, 0.0])
    state = ctrl.initial_state(x0)
    prep = ctrl.prepare(state, x0)
    condense_counts = count_span_calls(monkeypatch, CONDENSE_SPANS)
    condense(prep.sd, ctrl.bs)
    assert condense_counts == dict.fromkeys(CONDENSE_SPANS, 1)
    monkeypatch.undo()
    step_counts = count_span_calls(monkeypatch, STEP_SPANS)
    ctrl.step(state, x0)
    assert step_counts == dict.fromkeys(STEP_SPANS, 1)


STEP_COUNTS = {"integrator.integrate_interval.calls": 1, "model.rhs.calls": 4,
               "model.jac.calls": 0}


@pytest.mark.parametrize("scheme", ["A", "C"])
def test_traced_counters_read_one_batched_rk4_step_per_step(monkeypatch, scheme):
    """One step is one batched tangent RK4 step: 1 interval call and 4 rhs calls.

    The 4 rhs calls are the fused stage calls, each returning f and its
    directional derivative; no dense Jacobian is formed.
    """
    ctrl = build_controller(SchemeConfig(scheme=scheme).validate())
    x0 = np.array([0.1, 3.0, 0.0, 0.0])
    state = ctrl.initial_state(x0)
    counts = count_span_calls(monkeypatch, STEP_COUNTS)
    ctrl.step(state, x0)
    assert {name: counts[name] for name in STEP_COUNTS} == STEP_COUNTS


def test_setup_reaches_initial_state_once(monkeypatch):
    """A set-up as the benchmark times it: build_controller, then initial_state."""
    counts = count_span_calls(monkeypatch, ["harness.build_controller", "rti.initial_state"])
    cfg = harness.load_config(DEFAULT_CFG)
    harness.build_controller(cfg).initial_state(np.array(cfg.x0))
    assert counts == {"harness.build_controller": 1, "rti.initial_state": 1}
