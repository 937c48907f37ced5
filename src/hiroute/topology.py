"""Layered node hierarchy as integer node tables, built once.

Nodes are indices ``0..N-1``, layer by layer; node ``i`` has the id
``node_ids[i]``, of the form ``n<layer>_<index>`` (1-based layers). Layer 1
nodes receive jobs; the single terminal layer answers every job it receives.
Fan-out is full: a node's destinations are every node of the next layer,
sorted by id (``n2_10`` before ``n2_2``), which is the order of every expert
grid and action distribution. Topologies are immutable after construction
and safe to share across concurrently running experiments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class TopologyError(ValueError):
    """Raised for structurally invalid hierarchies."""


@dataclass(frozen=True)
class Topology:
    """A K-layer hierarchy with full fan-out between adjacent layers.

    Every per-node table is indexed by node index. ``memory_budget`` is None
    at the unbounded terminal nodes; ``resource_budget`` is 0.0 at the entry
    nodes, which receive no offloads.
    """

    node_ids: tuple[str, ...]
    layers: tuple[tuple[int, ...], ...]  # node indices per layer
    dests: tuple[tuple[int, ...], ...]  # next-layer indices by id; () when terminal
    node_layer: tuple[int, ...]  # 1-based layer of each node
    memory_budget: tuple[float | None, ...]
    resource_budget: tuple[float, ...]

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_nodes(self) -> int:
        return len(self.node_ids)

    def layer_of(self, node: int) -> int:
        return self.node_layer[node]

    def node(self, node: int) -> str:
        return self.node_ids[node]

    def nodes(self) -> range:
        return range(len(self.node_ids))

    def entry_nodes(self) -> tuple[int, ...]:
        return self.layers[0]

    def terminal_nodes(self) -> tuple[int, ...]:
        return self.layers[-1]

    def is_terminal(self, node: int) -> bool:
        return not self.dests[node]

    def uplinks(self, node: int) -> tuple[int, ...]:
        return self.dests[node]


def build_topology(
    layer_sizes: Sequence[int],
    memory_budgets: Sequence[float | None],
    resource_budget: float,
) -> Topology:
    """Build a hierarchy with uniform per-layer budgets.

    ``memory_budgets`` has one entry per layer; the last entry is ignored
    (the terminal layer is unbounded). ``resource_budget`` applies uniformly
    to every non-entry node.
    """
    if len(layer_sizes) < 2:
        raise TopologyError("a hierarchy needs at least 2 layers")
    if len(memory_budgets) != len(layer_sizes):
        raise TopologyError("memory_budgets must have one entry per layer")
    if any(s <= 0 for s in layer_sizes):
        raise TopologyError("layer sizes must be positive")
    if resource_budget <= 0:
        raise TopologyError("resource budget must be positive")
    for k, budget in enumerate(memory_budgets[:-1], start=1):
        if budget is None or budget <= 0:
            raise TopologyError(f"nonpositive memory budget at layer {k}")

    num_layers = len(layer_sizes)
    node_ids = tuple(
        f"n{k}_{i}" for k, size in enumerate(layer_sizes, start=1) for i in range(size)
    )
    node_layer = tuple(k for k, size in enumerate(layer_sizes, start=1) for _ in range(size))
    starts = [sum(layer_sizes[:k]) for k in range(num_layers + 1)]
    layers = tuple(tuple(range(starts[k], starts[k + 1])) for k in range(num_layers))
    by_id = [tuple(sorted(layer, key=node_ids.__getitem__)) for layer in layers[1:]] + [()]
    return Topology(
        node_ids=node_ids,
        layers=layers,
        dests=tuple(by_id[k - 1] for k in node_layer),
        node_layer=node_layer,
        memory_budget=tuple(
            float(memory_budgets[k - 1]) if k < num_layers else None  # type: ignore[arg-type]
            for k in node_layer
        ),
        resource_budget=tuple(float(resource_budget) if k > 1 else 0.0 for k in node_layer),
    )
