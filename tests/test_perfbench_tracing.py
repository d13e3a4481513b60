"""The benchmark's tracer patches program attributes by name; each must exist.

``perfbench/tracing.py`` reports a missing attribute only on stderr and
then reads 0 for that span or counter, so a renamed function would
silently zero a per-layer metric.  This test turns that into a failure.
"""

import importlib.util
import os

import pytest

TRACING = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "tracing.py")


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
