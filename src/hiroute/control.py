"""Virtual queues tracking long-term resource-budget deviations.

Each non-entry node carries a nonnegative scalar queue. Offload cost above
the per-slot budget grows it; spare budget drains it. Keeping the queues'
growth sublinear in the horizon is what enforces the long-term cost caps.

A slot's accounting runs over its *active* nodes only: the queued nodes that
received cost (touched) and those whose queue is positive (backlogged), in
node-index order. Every other queued node has cost 0.0 and queue 0.0, so it
keeps queue 0.0, and its term in any sum over nodes is an exact +0.0.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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
    over ``nodes`` in their order. Passing a slot's active nodes gives the
    sum over every queued node bit for bit: each skipped term is 0.0 * 0.0,
    and the partial sums of nonnegative terms are never -0.0, so adding +0.0
    would change none of them. The sum runs left to right, as ``sum()``
    does before Python 3.12 (from 3.12 it compensates), so its bits do not
    depend on the Python version. Logged for diagnostics only; control acts
    through the queue-weighted costs inside the loss estimates.
    """
    weighted = 0.0
    for n in nodes:
        weighted += q[n] * costs[n]
    return weighted + v * slot_errors


@dataclass
class QueueState:
    """One queue value per node index, all starting at zero; only the nodes
    of layers 2..K (``nodes``, in index order) are queued, and entry nodes
    stay at zero. ``backlogged`` holds the queued nodes whose value is
    positive."""

    values: list[float]
    nodes: tuple[int, ...]
    backlogged: set[int] = field(default_factory=set)

    @classmethod
    def initial(cls, topo: Topology) -> "QueueState":
        nodes = tuple(i for layer in topo.layers[1:] for i in layer)
        return cls(values=[0.0] * topo.num_nodes, nodes=nodes)

    def active(self, touched: Iterable[int]) -> list[int]:
        """A slot's active nodes: the ``touched`` queued nodes (those that
        received cost) and the backlogged ones, in node-index order."""
        return sorted(self.backlogged.union(touched))

    def apply_slot(
        self, costs: Sequence[float], budgets: Sequence[float], active: Sequence[int]
    ) -> None:
        """Update the queues of the ``active`` nodes (see :meth:`active`)
        from the slot's total inbound costs, as max(q + cost - budget, 0);
        both lists are indexed by node index. A queued node left out must
        have cost 0.0 and queue 0.0, so its queue stays 0.0 (budgets are
        nonnegative)."""
        values = self.values
        for n in active:
            q, cost = values[n], costs[n]
            if q < 0 or cost < 0:
                raise ValueError("queue value and slot cost must be nonnegative")
            values[n] = max(q + cost - budgets[n], 0.0)
        self.backlogged = {n for n in active if values[n] > 0.0}
