"""The benchmark's per-layer tracer finds every boundary it wraps.

``perfbench/tracer.py`` wraps hiroute's functions and methods by name from
outside the package; a renamed or deleted boundary silently turns its
metrics absent. The tracer is loaded from its source without writing
anything under ``perfbench/``.
"""
import inspect
import os
import types

import hiroute
from hiroute.engine import _Run

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer_module():
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = TRACER
    with open(TRACER, encoding="utf-8") as fh:
        exec(compile(fh.read(), TRACER, "exec"), module.__dict__)
    return module


def test_every_traced_boundary_resolves():
    route = inspect.getattr_static(_Run, "_route")
    tracer = load_tracer_module().Tracer(hiroute)
    tracer.install()
    try:
        assert tracer.missing == set()
        assert inspect.getattr_static(_Run, "_route") is not route
    finally:
        tracer.uninstall()
    assert inspect.getattr_static(_Run, "_route") is route
