import pytest

from hiroute.control import QueueState, drift_penalty_diagnostic, queue_update
from hiroute.topology import build_topology
from tests.test_engine import run_with_paths, small_config


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
    def test_distance_factor(self):
        # a node's slot cost is the inbound job sizes times the distance
        # factor, and the queue grows by that cost minus the budget
        cfg = small_config()
        cfg["run"]["total_jobs"] = 200
        cfg["run"]["distance_factor"] = 2.0
        run, metrics = run_with_paths(cfg)
        inbound = {}
        for rec in run.path_log:
            for dest in rec.path[1:]:
                key = (rec.slot, dest)
                inbound[key] = inbound.get(key, 0.0) + rec.size_units
        assert inbound
        queues = {n: 0.0 for n in metrics[0].node_queues}
        for m in metrics:
            for node, cost in m.node_costs.items():
                assert cost == pytest.approx(2.0 * inbound.get((m.slot, node), 0.0))
                queues[node] = queue_update(queues[node], cost, run.topo.resource_budget[node])
            assert m.node_queues == pytest.approx(queues)


class TestDriftPenalty:
    def test_zero_queues_is_weighted_errors(self):
        q = {"n2_0": 0.0, "n2_1": 0.0}
        costs = {"n2_0": 1.0, "n2_1": 2.0}
        assert drift_penalty_diagnostic(q, costs, 3, 70.0) == pytest.approx(210.0)

    def test_zero_error_weight_is_queue_weighted_cost(self):
        q = {"n2_0": 2.0, "n2_1": 0.5}
        costs = {"n2_0": 1.0, "n2_1": 2.0}
        assert drift_penalty_diagnostic(q, costs, 5, 0.0) == pytest.approx(3.0)


class TestQueueState:
    def test_initialized_to_zero_for_non_entry_nodes(self):
        topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
        qs = QueueState.initial(topo)
        assert set(qs.values) == {"n2_0", "n2_1", "n3_0"}
        assert all(v == 0.0 for v in qs.values.values())

    def test_slot_update_uses_totals_only(self):
        topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
        qs = QueueState.initial(topo)
        qs.apply_slot({"n2_0": 1.0}, topo.resource_budget)
        assert qs.values["n2_0"] == pytest.approx(0.6)
        assert qs.values["n2_1"] == 0.0
        # update order independence: totals drive everything
        qs2 = QueueState.initial(topo)
        qs2.apply_slot({"n2_0": 1.0, "n2_1": 0.0, "n3_0": 0.0}, topo.resource_budget)
        assert qs2.values == qs.values
