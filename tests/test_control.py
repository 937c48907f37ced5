import pytest

from hiroute.control import QueueState, drift_penalty_diagnostic
from hiroute.topology import build_topology
from tests.test_engine import run_with_paths, small_config


def queue_update(q, cost, budget):
    """One slot of one queue, through QueueState.apply_slot."""
    state = QueueState(values=[q], nodes=(0,))
    state.apply_slot([cost], [budget])
    return state.values[0]


class TestQueueUpdate:
    def test_growth_above_budget(self):
        assert queue_update(0.0, 0.5, 0.4) == pytest.approx(0.1)

    def test_floor_at_zero(self):
        assert queue_update(0.2, 0.1, 0.4) == 0.0

    def test_linear_growth_under_persistent_excess(self):
        # exceeding the budget by delta each slot grows the queue by delta
        q = 0.0
        delta = 0.13
        for k in range(1, 200):
            q = queue_update(q, 0.4 + delta, 0.4)
            assert q == pytest.approx(k * delta)

    def test_rejects_negative_inputs(self):
        with pytest.raises(ValueError):
            queue_update(-1.0, 0.0, 0.4)
        with pytest.raises(ValueError):
            queue_update(0.0, -0.1, 0.4)


class TestRealizedCost:
    # in 3-12-2-1 the id order of the middle layer (n2_10 before n2_2) is not
    # its index order
    TOPOLOGIES = [([4, 2, 1], [30, 100, None]), ([3, 12, 2, 1], [30, 80, 150, None])]

    def test_distance_factor(self):
        # a node's slot cost is the inbound job sizes times the distance
        # factor, and the queue grows by that cost minus the budget
        for layer_sizes, memory_budgets in self.TOPOLOGIES:
            cfg = small_config()
            cfg["run"]["total_jobs"] = 200
            cfg["run"]["distance_factor"] = 2.0
            cfg["topology"]["layer_sizes"] = layer_sizes
            cfg["topology"]["memory_budgets"] = memory_budgets
            run, metrics, paths = run_with_paths(cfg)
            inbound = {}
            for rec in paths:
                for dest in rec.path[1:]:
                    key = (rec.slot, dest)
                    inbound[key] = inbound.get(key, 0.0) + rec.size_units
            assert inbound
            queues = {n: 0.0 for n in metrics[0].node_queues}
            for m in metrics:
                for node, cost in m.node_costs.items():
                    assert cost == pytest.approx(2.0 * inbound.get((m.slot, node), 0.0))
                    budget = run.topo.resource_budget[run.node_ids.index(node)]
                    queues[node] = max(queues[node] + cost - budget, 0.0)
                assert m.node_queues == pytest.approx(queues)


class TestDriftPenalty:
    def test_zero_queues_is_weighted_errors(self):
        q = [0.0, 0.0, 0.0]
        costs = [0.0, 1.0, 2.0]
        assert drift_penalty_diagnostic(q, costs, (1, 2), 3, 70.0) == pytest.approx(210.0)

    def test_zero_error_weight_is_queue_weighted_cost(self):
        q = [9.0, 2.0, 0.5]
        costs = [5.0, 1.0, 2.0]
        # index 0 is not queued, so its queue and cost do not count
        assert drift_penalty_diagnostic(q, costs, (1, 2), 5, 0.0) == pytest.approx(3.0)


class TestQueueState:
    def test_initialized_to_zero_for_non_entry_nodes(self):
        topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
        qs = QueueState.initial(topo)
        assert qs.nodes == (4, 5, 6)  # n2_0, n2_1, n3_0
        assert qs.values == [0.0] * 7

    def test_slot_update_uses_totals_only(self):
        topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
        budgets = [0.0] * 4 + [0.4] * 3
        qs = QueueState.initial(topo)
        qs.apply_slot([0.0] * 4 + [1.0, 0.0, 0.0], budgets)
        assert qs.values[4] == pytest.approx(0.6)
        assert qs.values[5] == 0.0
        # entry nodes are not queued: their costs are ignored
        qs2 = QueueState.initial(topo)
        qs2.apply_slot([3.0] * 4 + [1.0, 0.0, 0.0], budgets)
        assert qs2.values == qs.values
