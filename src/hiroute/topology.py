"""Layered node hierarchy: layer structure, uplink fan-out, per-node budgets.

Node ids are strings of the form ``n<layer>_<index>`` (1-based layers).
Layer 1 nodes receive jobs; the single terminal layer answers every job it
receives. Topologies are immutable after construction and safe to share
across concurrently running experiments.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence


class TopologyError(ValueError):
    """Raised for structurally invalid hierarchies."""


@dataclass(frozen=True, order=True)
class NodeRef:
    """A node id together with the (1-based) layer it belongs to."""

    node_id: str
    layer: int


@dataclass(frozen=True)
class Topology:
    """A K-layer hierarchy with full fan-out between adjacent layers.

    ``memory_budget`` covers layers 1..K-1 (the terminal layer is unbounded);
    ``resource_budget`` covers layers 2..K (entry nodes receive no offloads).
    """

    layers: tuple[tuple[str, ...], ...]
    memory_budget: Mapping[str, float]
    resource_budget: Mapping[str, float]
    slot_duration: float = 1.0

    def __post_init__(self) -> None:
        if len(self.layers) < 2:
            raise TopologyError("a hierarchy needs at least 2 layers")
        seen: set[str] = set()
        for k, layer in enumerate(self.layers, start=1):
            if not layer:
                raise TopologyError(f"layer {k} is empty")
            for node_id in layer:
                if node_id in seen:
                    raise TopologyError(f"duplicate node id {node_id!r}")
                seen.add(node_id)
        if self.slot_duration <= 0:
            raise TopologyError("slot duration must be positive")
        for k, layer in enumerate(self.layers, start=1):
            for node_id in layer:
                if k < self.num_layers:
                    if node_id not in self.memory_budget:
                        raise TopologyError(f"missing memory budget for {node_id}")
                    if self.memory_budget[node_id] <= 0:
                        raise TopologyError(f"nonpositive memory budget for {node_id}")
                if k > 1:
                    if node_id not in self.resource_budget:
                        raise TopologyError(f"missing resource budget for {node_id}")
                    if self.resource_budget[node_id] <= 0:
                        raise TopologyError(f"nonpositive resource budget for {node_id}")

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_nodes(self) -> int:
        return sum(len(layer) for layer in self.layers)

    def layer_of(self, node_id: str) -> int:
        for k, layer in enumerate(self.layers, start=1):
            if node_id in layer:
                return k
        raise TopologyError(f"unknown node id {node_id!r}")

    def node(self, node_id: str) -> NodeRef:
        return NodeRef(node_id, self.layer_of(node_id))

    def nodes(self) -> tuple[NodeRef, ...]:
        return tuple(
            NodeRef(node_id, k)
            for k, layer in enumerate(self.layers, start=1)
            for node_id in layer
        )

    def entry_nodes(self) -> tuple[NodeRef, ...]:
        return tuple(NodeRef(n, 1) for n in self.layers[0])

    def terminal_nodes(self) -> tuple[NodeRef, ...]:
        return tuple(NodeRef(n, self.num_layers) for n in self.layers[-1])

    def is_terminal(self, node_id: str) -> bool:
        return node_id in self.layers[-1]

    def uplinks(self, node: NodeRef | str) -> tuple[NodeRef, ...]:
        """All nodes of the next layer, ordered by id for determinism.

        Fan-out is always full: every next-layer node is a valid destination.
        """
        ref = self.node(node) if isinstance(node, str) else node
        if ref.layer >= self.num_layers:
            raise TopologyError(f"{ref.node_id} is terminal and has no uplinks")
        return tuple(
            NodeRef(n, ref.layer + 1) for n in sorted(self.layers[ref.layer])
        )

    def index_tables(self) -> tuple[tuple, tuple, tuple]:
        """Node ids by index, in :meth:`nodes` order; each layer's node
        indices; and each node's destination indices in :meth:`uplinks` order,
        which sorts by id (``n2_10`` before ``n2_2``), empty when terminal."""
        ids = tuple(node.node_id for node in self.nodes())
        index = {node_id: i for i, node_id in enumerate(ids)}
        layers = tuple(tuple(index[n] for n in layer) for layer in self.layers)
        dests = tuple(
            tuple(index[u.node_id] for u in self.uplinks(n)) if n.layer < self.num_layers else ()
            for n in self.nodes()
        )
        return ids, layers, dests


def build_topology(
    layer_sizes: Sequence[int],
    memory_budgets: Sequence[float | None],
    resource_budget: float,
    tau: float = 1.0,
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

    layers = tuple(
        tuple(f"n{k}_{i}" for i in range(size))
        for k, size in enumerate(layer_sizes, start=1)
    )
    memory = {
        node_id: float(memory_budgets[k - 1])  # type: ignore[arg-type]
        for k, layer in enumerate(layers[:-1], start=1)
        for node_id in layer
    }
    resource = {
        node_id: float(resource_budget)
        for layer in layers[1:]
        for node_id in layer
    }
    return Topology(
        layers=layers,
        memory_budget=memory,
        resource_budget=resource,
        slot_duration=float(tau),
    )
