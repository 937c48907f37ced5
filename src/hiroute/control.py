"""Virtual queues tracking long-term resource-budget deviations.

Each non-entry node carries a nonnegative scalar queue. Offload cost above
the per-slot budget grows it; spare budget drains it. Keeping the queues'
growth sublinear in the horizon is what enforces the long-term cost caps.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .topology import Topology


def queue_update(q_n: float, slot_cost: float, budget: float) -> float:
    """One slot of queue evolution: max(q + cost - budget, 0)."""
    if q_n < 0 or slot_cost < 0:
        raise ValueError("queue value and slot cost must be nonnegative")
    return max(q_n + slot_cost - budget, 0.0)


def drift_penalty_diagnostic(
    q: Mapping[str, float],
    slot_costs: Mapping[str, float],
    slot_errors: float,
    v: float,
) -> float:
    """Realized per-slot objective: queue-weighted cost plus error penalty.

    Logged for diagnostics only; control acts through the queue-weighted
    costs inside the loss estimates.
    """
    weighted = sum(q.get(n, 0.0) * c for n, c in slot_costs.items())
    return weighted + v * slot_errors


@dataclass
class QueueState:
    """Queue values for every node in layers 2..K, all starting at zero."""

    values: dict[str, float]

    @classmethod
    def initial(cls, topo: Topology) -> "QueueState":
        values = {
            node.node_id: 0.0 for node in topo.nodes() if node.layer > 1
        }
        return cls(values=values)

    def snapshot(self) -> dict[str, float]:
        return dict(self.values)

    def apply_slot(
        self, slot_costs: Mapping[str, float], budgets: Mapping[str, float]
    ) -> None:
        """Update every queue from the slot's total inbound costs."""
        for node_id in self.values:
            self.values[node_id] = queue_update(
                self.values[node_id],
                slot_costs.get(node_id, 0.0),
                budgets[node_id],
            )
