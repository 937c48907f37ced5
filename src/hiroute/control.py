"""Virtual queues tracking long-term resource-budget deviations.

Each non-entry node carries a nonnegative scalar queue. Offload cost above
the per-slot budget grows it; spare budget drains it. Keeping the queues'
growth sublinear in the horizon is what enforces the long-term cost caps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .topology import Topology


def drift_penalty_diagnostic(
    q: Sequence[float],
    costs: Sequence[float],
    nodes: Iterable[int],
    slot_errors: float,
    v: float,
) -> float:
    """Realized per-slot objective: queue-weighted cost plus error penalty.

    ``q`` and ``costs`` are indexed by node index; the weighted cost sums
    over ``nodes`` in their order. Logged for diagnostics only; control acts
    through the queue-weighted costs inside the loss estimates.
    """
    weighted = sum(q[n] * costs[n] for n in nodes)
    return weighted + v * slot_errors


@dataclass
class QueueState:
    """One queue value per node index, all starting at zero; only the nodes
    of layers 2..K (``nodes``, in index order) are queued, and entry nodes
    stay at zero."""

    values: list[float]
    nodes: tuple[int, ...]

    @classmethod
    def initial(cls, topo: Topology) -> "QueueState":
        nodes = tuple(i for layer in topo.layers[1:] for i in layer)
        return cls(values=[0.0] * topo.num_nodes, nodes=nodes)

    def apply_slot(self, costs: Sequence[float], budgets: Sequence[float]) -> None:
        """Update every queue from the slot's total inbound costs, as
        max(q + cost - budget, 0); both lists are indexed by node index."""
        values = self.values
        for n in self.nodes:
            q, cost = values[n], costs[n]
            if q < 0 or cost < 0:
                raise ValueError("queue value and slot cost must be nonnegative")
            values[n] = max(q + cost - budgets[n], 0.0)
