"""Non-learning routing policies and estimator variant selection.

The static policies never consult the feedback channel. Their aggregate
offload probability is calibrated so the busiest (second) layer's expected
inbound cost stays inside its per-slot budget. Actions are encoded as the
learning policies' are: 0 terminates, i offloads to the i-th destination.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .topology import Topology

STATIC_KINDS = ("pure_local", "random", "round_robin")
LEARNING_KINDS = ("ly_exp4", "vr_ly_exp4", "vr_local_loss")


@dataclass
class StaticPolicyConfig:
    """A static router: kind, aggregate offload probability, rotation state."""

    kind: str
    offload_prob: float = 0.0
    rr_counters: dict[int, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in STATIC_KINDS:
            raise ValueError(f"unknown static policy {self.kind!r}")
        if not 0.0 <= self.offload_prob <= 1.0:
            raise ValueError("offload probability must lie in [0, 1]")
        if self.kind == "pure_local":
            self.offload_prob = 0.0


def static_action(
    cfg: StaticPolicyConfig, node: int, num_dests: int, rng: np.random.Generator
) -> int:
    """Sample one action index at node index ``node``: 0 terminates, i offloads
    to the node's i-th of ``num_dests`` destinations (uplinks order)."""
    if cfg.kind == "pure_local":
        return 0
    if rng.random() >= cfg.offload_prob:
        return 0
    if cfg.kind == "random":
        return 1 + int(rng.integers(num_dests))
    # round_robin: cycle destinations in uplinks order per node
    counter = cfg.rr_counters.get(node, 0)
    cfg.rr_counters[node] = counter + 1
    return 1 + counter % num_dests


def calibrate_offload_prob(
    topo: Topology, arrival_rate_per_entry: float, mean_job_size: float
) -> float:
    """Aggregate offload probability keeping layer-2 inbound within budget.

    Each second-layer node serves |N1|/|N2| entry nodes, so with the
    topology's per-slot resource budget gamma an entry node's effective
    outbound allowance is gamma * |N2| / |N1| per slot; dividing by the
    expected cost an entry node would emit at full offload (jobs per slot
    per entry node times the workload's mean job size) gives the
    probability. Deeper layers see geometrically less traffic and are slack.
    """
    gamma = topo.resource_budget[topo.layers[1][0]]
    share = gamma * len(topo.layers[1]) / len(topo.layers[0])
    expected_cost = arrival_rate_per_entry * mean_job_size
    if expected_cost <= 0:
        return 1.0
    return min(1.0, share / expected_cost)


@dataclass(frozen=True)
class EstimatorVariant:
    """Which estimator the learning loop runs and whether upstream loss is kept."""

    use_baseline: bool
    zero_downstream: bool


def variant_flags(kind: str) -> EstimatorVariant:
    """Map a learning policy name onto its estimator configuration."""
    if kind == "ly_exp4":
        return EstimatorVariant(use_baseline=False, zero_downstream=False)
    if kind == "vr_ly_exp4":
        return EstimatorVariant(use_baseline=True, zero_downstream=False)
    if kind == "vr_local_loss":
        return EstimatorVariant(use_baseline=True, zero_downstream=True)
    raise ValueError(f"unknown learning policy {kind!r}")
