"""Model placement: marginal-density greedy onloading and static baselines.

The placement utility for a node is the expected accuracy of the best loaded
model under the node's task mixture, minus a switching penalty proportional
to newly loaded bytes. Its error-reduction part is submodular, so a density
greedy with an early stop on negative gain fills the memory knapsack. Its
gains are error reductions below the chosen set's running per-task minimum,
``max(m - error, 0)``, so a dominated column gains exactly 0; ``utility``
still defines the best single model and the final comparison.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import add
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


def utility(ctx: PlacementContext, subset: Collection[int]) -> float:
    """Expected best-model accuracy under the mixture, minus switching cost."""
    table = ctx.error_table
    chosen = table.in_id_order(subset)  # the penalty sums in id order
    errors = table.matrix[:, chosen].min(axis=1) if chosen else np.ones(len(table.tasks))
    expected_acc = float(np.dot(ctx.mixture, 1.0 - errors))
    # left to right: sum() of floats compensates from Python 3.12
    penalty = ctx.switch_penalty * reduce(
        add, (table.sizes[c] for c in chosen if c not in ctx.previous), 0.0
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

    Each round scores every feasible column in one product against ``m``,
    the per-task minimum error of the chosen set (ones when empty): the
    mixture-weighted ``max(m - error, 0)``, less the switch penalty if new.
    A column that lowers no task's error adds only exact zeros, so its error
    gain is exactly 0 in any summation order. The pass stops when its densest
    feasible candidate has a gain below -1e-12, or nothing else fits, so a
    gain that is 0 in real arithmetic but rounds below 0 does not end it;
    ties break toward the lowest model id. ``utility`` then compares the
    result against the best single feasible model — the standard completion
    that protects against a dense small pick blocking a high-value large one
    and underwrites the half-of-optimum guarantee. The single models are
    scored inline with ``utility``'s operations, and ``utility`` makes the
    final comparison.
    """
    if budget < 0:
        raise ValueError("budget must be nonnegative")
    table = ctx.error_table
    sizes = table.sizes
    # utility of each single column, from the operands utility builds for it
    singles = [
        (float(np.dot(ctx.mixture, 1.0 - table.matrix[:, c]))
         - ctx.switch_penalty * (0 if c in ctx.previous else sizes[c]), c)
        for c in table.by_id if sizes[c] <= budget + 1e-12
    ]
    chosen: set[int] = set()
    remaining = float(budget)
    m = np.ones(len(table.tasks))
    while True:
        cands = [c for c in table.by_id if c not in chosen and sizes[c] <= remaining + 1e-12]
        if not cands:
            break
        gains = np.dot(ctx.mixture, np.maximum(m[:, None] - table.matrix[:, cands], 0.0))
        best, best_density, best_gain = None, -np.inf, 0.0
        for column, gain in zip(cands, gains.tolist()):
            if column not in ctx.previous:
                gain -= ctx.switch_penalty * sizes[column]
            density = gain / sizes[column]
            if density > best_density + 1e-15:
                best, best_density, best_gain = column, density, gain
        if best is None or best_gain < -1e-12:
            break
        chosen.add(best)
        remaining -= sizes[best]
        m = np.minimum(m, table.matrix[:, best])
    result = frozenset(chosen)
    best_single = None
    for value, column in singles:
        if best_single is None or value > best_single[0] + 1e-15:
            best_single = (value, column)
    if best_single is not None and best_single[0] > utility(ctx, result) + 1e-12:
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
        if topo.is_terminal(node):
            loaded.append(frozenset())
            continue
        if kind == "random_fixed":
            candidates = table.by_id
        else:
            candidates = groups[topo.layer_of(node) - 1]
        budget = topo.memory_budget[node]
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
