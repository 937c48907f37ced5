"""Model placement: marginal-density greedy onloading and static baselines.

The placement utility for a node is the expected accuracy of the best loaded
model under the node's task mixture, minus a switching penalty proportional
to newly loaded bytes. Its error-reduction part is submodular, so a density
greedy with an early stop on negative gain fills the memory knapsack.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .topology import Topology
from .workload import ErrorTable, ModelSpec


@dataclass
class Placement:
    """Loaded model sets per node id."""

    loaded: dict[str, frozenset[str]]

    def check_feasible(self, topo: Topology, models: Mapping[str, float]) -> None:
        """Raise when any non-terminal node exceeds its memory budget."""
        for node_id, loaded in self.loaded.items():
            if topo.is_terminal(node_id):
                continue
            used = sum(models[m] for m in loaded)
            if used > topo.memory_budget[node_id] + 1e-9:
                raise ValueError(f"memory budget exceeded at {node_id}")


class PlacementContext:
    """Per-node inputs to the utility: mixture, error table, penalty, history."""

    def __init__(
        self,
        arrival_mixture: Mapping[str, float],
        error_table: ErrorTable,
        switch_penalty: float,
        previous: frozenset[str] | set[str] = frozenset(),
    ) -> None:
        if switch_penalty < 0:
            raise ValueError("switch penalty must be nonnegative")
        self.error_table = error_table
        self.switch_penalty = float(switch_penalty)
        self.previous = frozenset(previous)
        tasks = error_table.tasks
        self.mixture = np.array([arrival_mixture.get(t, 0.0) for t in tasks])
        total = float(self.mixture.sum())
        if total > 0:
            self.mixture = self.mixture / total
        self._sizes = {m.model_id: m.memory_size for m in error_table.models}

    def size_of(self, model_id: str) -> float:
        return self._sizes[model_id]

    def min_error(self, subset: Sequence[str]) -> np.ndarray:
        """Per-task min expected error over the subset; empty set gives 1."""
        if not subset:
            return np.ones(len(self.error_table.tasks))
        column = self.error_table.column
        cols = [column[m] for m in subset]
        return self.error_table.matrix[:, cols].min(axis=1)


def utility(ctx: PlacementContext, subset: Sequence[str] | set[str]) -> float:
    """Expected best-model accuracy under the mixture, minus switching cost."""
    chosen = sorted(set(subset))
    expected_acc = float(np.dot(ctx.mixture, 1.0 - ctx.min_error(chosen)))
    penalty = ctx.switch_penalty * sum(
        ctx.size_of(m) for m in chosen if m not in ctx.previous
    )
    return expected_acc - penalty


def marginal_gain(
    ctx: PlacementContext, candidate: str, subset: Sequence[str] | set[str]
) -> float:
    """Discrete derivative of the utility when adding ``candidate``."""
    chosen = set(subset)
    if candidate in chosen:
        raise ValueError(f"{candidate} already placed")
    return utility(ctx, chosen | {candidate}) - utility(ctx, chosen)


def greedy_onload(
    ctx: PlacementContext, budget: float, model_pool: Sequence[ModelSpec]
) -> frozenset[str]:
    """Fill the memory knapsack by descending marginal gain per unit size.

    The density pass stops as soon as its densest feasible candidate has
    negative gain, or nothing else fits; ties break toward the lowest model
    id. The result is then compared against the best single feasible model —
    the standard completion that protects against a dense small pick
    blocking a high-value large one and underwrites the half-of-optimum
    guarantee.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    chosen: set[str] = set()
    remaining = float(budget)
    pool = sorted(model_pool, key=lambda m: m.model_id)
    singles: dict[str, float] = {}  # first round: the utility of each model alone
    while True:
        current = utility(ctx, chosen)  # each gain is marginal_gain(ctx, model, chosen)
        best_id = None
        best_density = -np.inf
        best_gain = 0.0
        for model in pool:
            if model.model_id in chosen or model.memory_size > remaining + 1e-12:
                continue
            value = utility(ctx, chosen | {model.model_id})
            if not chosen:
                singles[model.model_id] = value
            gain = value - current
            density = gain / model.memory_size
            if density > best_density + 1e-15:
                best_id, best_density, best_gain = model.model_id, density, gain
        if best_id is None:
            break
        if best_gain < 0:
            break
        chosen.add(best_id)
        remaining -= ctx.size_of(best_id)
    result = frozenset(chosen)
    best_single = None
    for model_id, value in singles.items():
        if best_single is None or value > best_single[0] + 1e-15:
            best_single = (value, model_id)
    if best_single is not None and best_single[0] > current + 1e-12:
        result = frozenset({best_single[1]})
    return result


def layer_groups(model_ids: Sequence[str], num_layers: int) -> list[list[str]]:
    """Round-robin partition of the sorted model ids into one group per layer."""
    ordered = sorted(model_ids)
    groups: list[list[str]] = [[] for _ in range(num_layers)]
    for i, model_id in enumerate(ordered):
        groups[i % num_layers].append(model_id)
    return groups


def baseline_placement(
    kind: str,
    topo: Topology,
    model_pool: Sequence[ModelSpec],
    seed: int,
) -> Placement:
    """Non-adaptive placements: budget-filling random picks, or one disjoint
    model group per layer (round-robin by id) with random picks inside it."""
    if kind not in ("random_fixed", "layer_diverse"):
        raise ValueError(f"unknown placement baseline {kind!r}")
    sizes = {m.model_id: m.memory_size for m in model_pool}
    groups = layer_groups(list(sizes), topo.num_layers)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    loaded: dict[str, frozenset[str]] = {}
    for node in topo.nodes():
        if node.layer == topo.num_layers:
            loaded[node.node_id] = frozenset()
            continue
        if kind == "random_fixed":
            candidates = sorted(sizes)
        else:
            candidates = list(groups[node.layer - 1])
        budget = topo.memory_budget[node.node_id]
        picked: set[str] = set()
        while True:
            feasible = [
                m for m in candidates
                if m not in picked and sizes[m] <= budget + 1e-12
            ]
            if not feasible:
                break
            choice = feasible[int(rng.integers(len(feasible)))]
            picked.add(choice)
            budget -= sizes[choice]
        loaded[node.node_id] = frozenset(picked)
    return Placement(loaded=loaded)
