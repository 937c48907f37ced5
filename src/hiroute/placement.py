"""Model placement: marginal-density greedy onloading and static baselines.

The placement utility for a node is the expected accuracy of the best loaded
model under the node's task mixture, minus a switching penalty proportional
to newly loaded bytes. Its error-reduction part is submodular, so a density
greedy with an early stop on negative gain fills the memory knapsack.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from .topology import Topology
from .workload import ErrorTable


@dataclass
class Placement:
    """Loaded model columns per node index."""

    loaded: list[frozenset[int]]

    def check_feasible(self, budgets: Sequence[float | None], sizes: Sequence[float]) -> None:
        """Raise when a node exceeds its memory budget. ``budgets`` is by node
        index, None for the unbounded terminal nodes; ``sizes`` by column."""
        for node, loaded in enumerate(self.loaded):
            budget = budgets[node]
            if budget is not None and sum(sizes[c] for c in loaded) > budget + 1e-9:
                raise ValueError(f"memory budget exceeded at node {node}")


class PlacementContext:
    """Per-node inputs to the utility: task mixture (by task index, normalised
    here), error table, penalty, and the previously loaded columns."""

    def __init__(
        self,
        mixture: np.ndarray,
        error_table: ErrorTable,
        switch_penalty: float,
        previous: Collection[int] = frozenset(),
    ) -> None:
        if switch_penalty < 0:
            raise ValueError("switch penalty must be nonnegative")
        self.error_table = error_table
        self.switch_penalty = float(switch_penalty)
        self.previous = frozenset(previous)
        self.mixture = np.asarray(mixture, dtype=float)
        total = float(self.mixture.sum())
        if total > 0:
            self.mixture = self.mixture / total

    def min_error(self, subset: Sequence[int]) -> np.ndarray:
        """Per-task min expected error over the columns; empty set gives 1."""
        if not subset:
            return np.ones(len(self.error_table.tasks))
        return self.error_table.matrix[:, subset].min(axis=1)


def utility(ctx: PlacementContext, subset: Collection[int]) -> float:
    """Expected best-model accuracy under the mixture, minus switching cost."""
    table = ctx.error_table
    chosen = table.in_id_order(subset)  # the penalty sums in id order
    expected_acc = float(np.dot(ctx.mixture, 1.0 - ctx.min_error(chosen)))
    penalty = ctx.switch_penalty * sum(
        table.sizes[c] for c in chosen if c not in ctx.previous
    )
    return expected_acc - penalty


def marginal_gain(ctx: PlacementContext, candidate: int, subset: Collection[int]) -> float:
    """Discrete derivative of the utility when adding column ``candidate``."""
    chosen = set(subset)
    if candidate in chosen:
        raise ValueError(f"column {candidate} already placed")
    return utility(ctx, chosen | {candidate}) - utility(ctx, chosen)


def greedy_onload(ctx: PlacementContext, budget: float) -> frozenset[int]:
    """Fill the memory knapsack with the table's models by descending
    marginal gain per unit size.

    The density pass stops as soon as its densest feasible candidate has
    negative gain, or nothing else fits; ties break toward the lowest model
    id. The result is then compared against the best single feasible model —
    the standard completion that protects against a dense small pick
    blocking a high-value large one and underwrites the half-of-optimum
    guarantee.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    sizes = ctx.error_table.sizes
    chosen: set[int] = set()
    remaining = float(budget)
    singles: dict[int, float] = {}  # first round: the utility of each model alone
    while True:
        current = utility(ctx, chosen)  # each gain is marginal_gain(ctx, column, chosen)
        best = None
        best_density = -np.inf
        best_gain = 0.0
        for column in ctx.error_table.by_id:
            if column in chosen or sizes[column] > remaining + 1e-12:
                continue
            value = utility(ctx, chosen | {column})
            if not chosen:
                singles[column] = value
            gain = value - current
            density = gain / sizes[column]
            if density > best_density + 1e-15:
                best, best_density, best_gain = column, density, gain
        if best is None:
            break
        if best_gain < 0:
            break
        chosen.add(best)
        remaining -= sizes[best]
    result = frozenset(chosen)
    best_single = None
    for column, value in singles.items():
        if best_single is None or value > best_single[0] + 1e-15:
            best_single = (value, column)
    if best_single is not None and best_single[0] > current + 1e-12:
        result = frozenset({best_single[1]})
    return result


def layer_groups(columns: Sequence[int], num_layers: int) -> list[list[int]]:
    """Round-robin partition of the columns, in the given order, into one
    group per layer."""
    groups: list[list[int]] = [[] for _ in range(num_layers)]
    for i, column in enumerate(columns):
        groups[i % num_layers].append(column)
    return groups


def baseline_placement(
    kind: str,
    topo: Topology,
    table: ErrorTable,
    seed: int,
) -> Placement:
    """Non-adaptive placements of the table's models: budget-filling random
    picks, or one disjoint model group per layer (round-robin in id order)
    with random picks inside it."""
    if kind not in ("random_fixed", "layer_diverse"):
        raise ValueError(f"unknown placement baseline {kind!r}")
    sizes = table.sizes
    groups = layer_groups(table.by_id, topo.num_layers)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    loaded: list[frozenset[int]] = []
    for node in topo.nodes():
        if node.layer == topo.num_layers:
            loaded.append(frozenset())
            continue
        if kind == "random_fixed":
            candidates = table.by_id
        else:
            candidates = groups[node.layer - 1]
        budget = topo.memory_budget[node.node_id]
        picked: set[int] = set()
        while True:
            feasible = [
                c for c in candidates
                if c not in picked and sizes[c] <= budget + 1e-12
            ]
            if not feasible:
                break
            choice = feasible[int(rng.integers(len(feasible)))]
            picked.add(choice)
            budget -= sizes[choice]
        loaded.append(frozenset(picked))
    return Placement(loaded=loaded)
