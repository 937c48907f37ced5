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


def test_every_traced_boundary_is_called():
    # a boundary that still resolves but that the run no longer goes through
    # would report zero calls; only validation and tests query expected_loss
    tracer_module = load_tracer_module()
    tracer = tracer_module.Tracer(hiroute)
    tracer.install()
    try:
        for policy in ("vr_ly_exp4", "random"):
            cfg = hiroute.merge_config({"policy": policy, "run": {"total_jobs": 200}})
            hiroute.run_single(cfg, 0)
    finally:
        tracer.uninstall()
    # engine.regret.s times the regret log per job: only the vr_ly_exp4 run
    # keeps one, and it logs and counts each of its 200 jobs once
    for name in ("engine.RegretTracker.add", "engine.RegretTracker.job_done"):
        assert tracer.spans[name].calls == 200
    uncalled = {name for name, stats in tracer.spans.items() if stats.calls == 0}
    assert uncalled == {"losses.DownstreamLossOracle.expected_loss"}
    # ErrorTable.error stays the lookup behind the per-epoch placement tables
    assert tracer.counts["workload.ErrorTable.error"] > 0
