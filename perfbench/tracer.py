"""Per-layer tracing from outside the program.

For one traced pass the tracer replaces hiroute's public functions and
methods with wrappers, and puts the originals back afterwards. Module-level
names that ``engine`` imports (``greedy_onload``, ``static_action``, ...)
are wrapped in ``engine``'s namespace, where the slot loop looks them up.

Each span has a name (the boundary), a start, an end and a parent (the
innermost open span). Spans are aggregated per name as they close: call
count, total and self time, and call counts per parent name. Only
``_Run.run_slot`` keeps every duration, for its percentiles. A layer's self
time is its spans' time minus the time of spans opened inside them. Very hot
leaf calls get counters only.

A boundary that no longer exists is skipped, and every metric that reads it
is reported as absent.
"""
from __future__ import annotations

import importlib
import inspect
import math
import time
from collections import Counter
from types import ModuleType
from typing import Any, Callable

# (module of the package, qualified name); "" is the package itself
SPANS = (
    ("", "merge_config"),
    ("engine", "_Run.run_slot"),
    ("engine", "_Run._route"),
    ("engine", "_Run._learn_from"),
    ("engine", "_Run.close"),
    ("engine", "RegretTracker.add"),
    ("engine", "RegretTracker.job_done"),
    ("engine", "best_loaded_accuracy"),
    ("engine", "inference_error"),
    ("engine", "confidence_from_noise"),
    ("engine", "drift_penalty_diagnostic"),
    ("engine", "greedy_onload"),
    ("engine", "static_action"),
    ("workload", "Workload.generate_slot"),
    ("workload", "Workload.confidence_noise"),
    ("policy", "ExpertTable.action_probs"),
    ("policy", "ActionDistribution.sample"),
    ("policy", "ExpertTable.update_weights"),
    ("policy", "ExpertTable.mean_entropy"),
    ("losses", "DownstreamLossOracle.__init__"),
    ("losses", "DownstreamLossOracle.reach_prob"),
    ("losses", "DownstreamLossOracle.expected_loss"),
    ("losses", "DownstreamLossOracle.expected_loss_decomposition"),
    ("losses", "DownstreamLossOracle.expert_loss_matrix"),
    ("losses", "BaselineTable.plugin_values"),
    ("losses", "BaselineTable.update_hidden"),
    ("losses", "BaselineTable.count_violations"),
    ("control", "QueueState.apply_slot"),
    ("placement", "utility"),
    ("placement", "Placement.check_feasible"),
)
COUNTERS = (
    ("workload", "ErrorTable.error"),
    ("topology", "Topology.layer_of"),
    ("topology", "Topology.node"),
    ("topology", "Topology.nodes"),
    ("topology", "Topology.entry_nodes"),
    ("topology", "Topology.terminal_nodes"),
    ("topology", "Topology.is_terminal"),
    ("topology", "Topology.uplinks"),
    ("topology", "Topology.num_layers"),
    ("topology", "Topology.num_nodes"),
)
KEEP_DURATIONS = {"engine._Run.run_slot"}
GENERATE = "workload.Workload.generate_slot"
JOBS_GENERATED = "workload.jobs_generated"


def boundary_name(module: str, qualname: str) -> str:
    return f"{module}.{qualname}" if module else qualname


class SpanStats:
    __slots__ = ("calls", "total_ns", "self_ns", "parents", "durations")

    def __init__(self, keep_durations: bool) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0
        self.parents: Counter[str | None] = Counter()
        self.durations: list[int] | None = [] if keep_durations else None


class Tracer:
    """Aggregated spans and counters over the traced passes of one workload."""

    def __init__(self, package: ModuleType) -> None:
        self.package = package
        self.spans = {
            boundary_name(*b): SpanStats(boundary_name(*b) in KEEP_DURATIONS) for b in SPANS
        }
        self.counts: Counter[str] = Counter()
        self.missing: set[str] = set()
        self.passes = 0
        self._stack: list[list[Any]] = []
        self._saved: list[tuple[Any, str, Any, bool]] = []

    def install(self) -> None:
        for module, qualname in SPANS + COUNTERS:
            name = boundary_name(module, qualname)
            found = self._resolve(module, qualname)
            if found is None:
                self.missing.add(name)
                continue
            owner, attr, original = found
            if isinstance(original, property):
                fget = original.fget
            elif inspect.isfunction(original):
                fget = original
            else:
                self.missing.add(name)
                continue
            make = self._span if (module, qualname) in SPANS else self._counter
            wrapped = make(name, fget)
            self._saved.append((owner, attr, original, attr in vars(owner)))
            setattr(owner, attr, property(wrapped) if isinstance(original, property) else wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _resolve(self, module: str, qualname: str):
        try:
            owner: Any = (
                importlib.import_module(f"{self.package.__name__}.{module}")
                if module else self.package
            )
            *path, attr = qualname.split(".")
            for part in path:
                owner = getattr(owner, part)
            return owner, attr, inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            return None

    def _span(self, name: str, fn: Callable) -> Callable:
        stats = self.spans[name]
        stack = self._stack
        clock = time.perf_counter_ns
        counts = self.counts

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            frame = [name, 0]  # name, time of child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                stats.calls += 1
                stats.total_ns += duration
                stats.self_ns += duration - frame[1]
                stats.parents[parent[0] if parent else None] += 1
                if parent is not None:
                    parent[1] += duration
                if stats.durations is not None:
                    stats.durations.append(duration)
            if name == GENERATE:
                counts[JOBS_GENERATED] += len(result)
            return result

        return traced

    def _counter(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    # ---- per-layer metrics ------------------------------------------------
    def metrics(
        self, jobs_per_pass: int, feedback_per_pass: float
    ) -> tuple[dict[str, dict[str, Any]], list[str]]:
        """Per-layer metrics per traced pass, and the names of absent ones.

        Times are seconds per pass, counts are calls per pass, and ``per_job``
        divides by the simulated jobs of one pass.
        """
        passes = max(1, self.passes)
        spans = self.spans

        def calls(*names: str) -> float:
            return sum(spans[n].calls for n in names) / passes

        def total_s(*names: str) -> float:
            return sum(spans[n].total_ns for n in names) / passes / 1e9

        def self_s(*names: str) -> float:
            return sum(spans[n].self_ns for n in names) / passes / 1e9

        def count(*names: str) -> float:
            return sum(self.counts[n] for n in names) / passes

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        slot = "engine._Run.run_slot"
        durations = sorted(spans[slot].durations or [0])
        regret = ("engine.RegretTracker.add", "engine.RegretTracker.job_done")
        node_eval = (
            "engine.best_loaded_accuracy", "engine.inference_error",
            "engine.confidence_from_noise",
        )
        probs = "policy.ExpertTable.action_probs"
        refresh = "policy.ExpertTable.update_weights"
        oracle = "losses.DownstreamLossOracle.__init__"
        recursion = tuple(
            f"losses.DownstreamLossOracle.{m}"
            for m in ("reach_prob", "expected_loss", "expected_loss_decomposition")
        )
        baseline = tuple(
            f"losses.BaselineTable.{m}"
            for m in ("plugin_values", "update_hidden", "count_violations")
        )
        greedy = "engine.greedy_onload"
        topology = tuple(boundary_name(*b) for b in COUNTERS if b[0] == "topology")
        lookups = "workload.ErrorTable.error"
        table: list[tuple[str, str, tuple[str, ...], Callable[[], float]]] = [
            ("engine.slot.calls", "count", (slot,), lambda: calls(slot)),
            ("engine.slot.p50_us", "us", (slot,), lambda: _percentile(durations, 0.50) / 1e3),
            ("engine.slot.p99_us", "us", (slot,), lambda: _percentile(durations, 0.99) / 1e3),
            ("engine.slot.samples", "count", (slot,), lambda: len(spans[slot].durations or [])),
            ("engine.slot.self_s", "s", (slot,), lambda: self_s(slot)),
            ("engine.route.self_s", "s", ("engine._Run._route",),
             lambda: self_s("engine._Run._route")),
            ("engine.learn.self_s", "s", ("engine._Run._learn_from",),
             lambda: self_s("engine._Run._learn_from")),
            ("engine.regret.s", "s", regret, lambda: total_s(*regret)),
            ("engine.close.s", "s", ("engine._Run.close",), lambda: total_s("engine._Run.close")),
            ("workload.generate.s", "s", (GENERATE,), lambda: total_s(GENERATE)),
            ("workload.jobs", "count", (GENERATE,), lambda: count(JOBS_GENERATED)),
            ("workload.noise.s", "s", ("workload.Workload.confidence_noise",),
             lambda: total_s("workload.Workload.confidence_noise")),
            ("workload.node_eval.s", "s", node_eval, lambda: total_s(*node_eval)),
            ("workload.error_lookups_per_job", "1/job", (lookups,),
             lambda: count(lookups) / jobs_per_pass),
            ("policy.action_probs.per_job", "1/job", (probs,),
             lambda: calls(probs) / jobs_per_pass),
            ("policy.action_probs.self_s", "s", (probs,), lambda: self_s(probs)),
            ("policy.sample.s", "s", ("policy.ActionDistribution.sample",),
             lambda: total_s("policy.ActionDistribution.sample")),
            ("policy.weight_refresh.calls", "count", (refresh,), lambda: calls(refresh)),
            ("policy.weight_refresh.s", "s", (refresh,), lambda: total_s(refresh)),
            ("policy.entropy.self_s", "s", ("policy.ExpertTable.mean_entropy",),
             lambda: self_s("policy.ExpertTable.mean_entropy")),
            ("policy.midslot_refresh.calls", "count", (refresh, probs),
             lambda: spans[refresh].parents[probs] / passes),
            ("losses.oracle.per_job", "1/job", (oracle,), lambda: calls(oracle) / jobs_per_pass),
            ("losses.oracle.useful_ratio", "ratio", (oracle,),
             lambda: ratio(feedback_per_pass, calls(oracle))),
            ("losses.recursion.calls", "count", recursion, lambda: calls(*recursion)),
            ("losses.recursion.self_s", "s", recursion, lambda: self_s(*recursion)),
            ("losses.expert_matrix.self_s", "s",
             ("losses.DownstreamLossOracle.expert_loss_matrix",),
             lambda: self_s("losses.DownstreamLossOracle.expert_loss_matrix")),
            ("losses.baseline.s", "s", baseline, lambda: total_s(*baseline)),
            ("control.queue_update.s", "s", ("control.QueueState.apply_slot",),
             lambda: total_s("control.QueueState.apply_slot")),
            ("control.drift.s", "s", ("engine.drift_penalty_diagnostic",),
             lambda: total_s("engine.drift_penalty_diagnostic")),
            ("placement.greedy.calls", "count", (greedy,), lambda: calls(greedy)),
            ("placement.greedy.s", "s", (greedy,), lambda: total_s(greedy)),
            ("placement.utility.per_greedy", "1/call", (greedy, "placement.utility"),
             lambda: ratio(calls("placement.utility"), calls(greedy))),
            ("placement.feasible.s", "s", ("placement.Placement.check_feasible",),
             lambda: total_s("placement.Placement.check_feasible")),
            ("baselines.static_action.calls", "count", ("engine.static_action",),
             lambda: calls("engine.static_action")),
            ("baselines.static_action.s", "s", ("engine.static_action",),
             lambda: total_s("engine.static_action")),
            ("topology.calls_per_job", "1/job", topology,
             lambda: count(*topology) / jobs_per_pass),
            ("config.merge.s", "s", ("merge_config",), lambda: total_s("merge_config")),
        ]
        out: dict[str, dict[str, Any]] = {}
        absent: list[str] = []
        for name, unit, needs, value in table:
            if self.missing.intersection(needs):
                absent.append(name)
            else:
                out[name] = {"value": value(), "unit": unit}
        return out, absent


def _percentile(ordered: list[int], q: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    return float(ordered[max(0, math.ceil(q * len(ordered)) - 1)])
