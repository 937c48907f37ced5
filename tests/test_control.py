import csv
import io
import json
import os
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

from hiroute.control import QueueState, drift_penalty_diagnostic
from hiroute.engine import run_single
from hiroute.topology import build_topology
from tests.test_engine import run_with_paths, small_config


def queue_update(q, cost, budget):
    """One slot of one queue, through QueueState.apply_slot."""
    state = QueueState(values=[q], nodes=(0,))
    state.apply_slot([cost], [budget], state.active({0}))
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
        qs.apply_slot([0.0] * 4 + [1.0, 0.0, 0.0], budgets, qs.active({4}))
        assert qs.values[4] == pytest.approx(0.6)
        assert qs.values[5] == 0.0
        # entry nodes are not queued: no hop touches them, so their costs
        # are ignored
        qs2 = QueueState.initial(topo)
        qs2.apply_slot([3.0] * 4 + [1.0, 0.0, 0.0], budgets, qs2.active({4}))
        assert qs2.values == qs.values


def dense_slot(values, nodes, costs, budgets, slot_errors, v, totals):
    """One slot's accounting over every queued node in index order, as the
    simulator did it before it skipped idle nodes: the drift at slot-start
    queues, then every queue and cost total. Returns the drift."""
    drift = sum(values[n] * costs[n] for n in nodes) + v * slot_errors
    for n in nodes:
        values[n] = max(values[n] + costs[n] - budgets[n], 0.0)
        totals[n] += costs[n]
    return drift


def count_drains(before, after, nodes, drained):
    """Count the queues that drained to 0.0 and those that regrew after a
    drain between two slots; ``drained`` carries the drained nodes."""
    drains = regrowths = 0
    for n in nodes:
        if before[n] > 0.0 and after[n] == 0.0:
            drains += 1
            drained.add(n)
        elif after[n] > 0.0 and before[n] == 0.0 and n in drained:
            regrowths += 1
    return drains, regrowths


def touched_only(state, touched):
    """A broken active set: the backlogged nodes left out."""
    return sorted(touched)


class TestSparseAccounting:
    # 3-12-2-1: the id order of the middle layer (n2_10 before n2_2) is not
    # its index order
    TOPOLOGIES = {
        "4-2-1": ([4, 2, 1], [30, 100, None]),
        "3-12-2-1": ([3, 12, 2, 1], [30, 80, 150, None]),
        "16-8-4-2-1": ([16, 8, 4, 2, 1], [30, 80, 150, 200, None]),
    }

    @staticmethod
    def replay(topo, seed, active=QueueState.active, slots=800):
        """Random slots through the sparse accounting and the dense reference.
        Each slot's jobs add one hop cost at each of a random set of queued
        nodes, as routed jobs do, and the costs come from a few sizes (0.0
        among them) so that queues drain to exactly 0.0 and regrow. Returns
        the first slot at which the two differ (None if none does) and the
        drain and regrowth counts."""
        rng = np.random.default_rng(seed)
        budgets = topo.resource_budget
        sparse = QueueState.initial(topo)
        nodes = sparse.nodes
        dense = [0.0] * topo.num_nodes
        sparse_totals = [0.0] * topo.num_nodes
        dense_totals = [0.0] * topo.num_nodes
        drained = set()
        drains = regrowths = 0
        for slot in range(slots):
            costs = [0.0] * topo.num_nodes
            touched = set()
            # about 0.38 of cost per node and slot, near the 0.4 budget
            for _ in range(rng.poisson(0.2 * len(nodes))):
                hops = rng.choice(nodes, size=int(rng.integers(1, 4)), replace=False).tolist()
                hop_cost = float(rng.choice([0.0, 0.3, 0.5, 1.0, 2.0])) * float(rng.uniform(0.5, 2))
                for n in hops:
                    costs[n] += hop_cost
                touched.update(hops)
            slot_errors = int(rng.integers(0, 3))
            before = list(dense)
            nodes_now = active(sparse, touched)
            drift = drift_penalty_diagnostic(sparse.values, costs, nodes_now, slot_errors, 70.0)
            sparse.apply_slot(costs, budgets, nodes_now)
            for n in touched:
                sparse_totals[n] += costs[n]
            want = dense_slot(dense, nodes, costs, budgets, slot_errors, 70.0, dense_totals)
            if (
                drift != want or sparse.values != dense or sparse_totals != dense_totals
                or sparse.backlogged != {n for n in nodes if dense[n] > 0.0}
            ):
                return slot, drains, regrowths
            d, r = count_drains(before, dense, nodes, drained)
            drains += d
            regrowths += r
        return None, drains, regrowths

    @pytest.mark.parametrize("name", list(TOPOLOGIES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_dense_reference(self, name, seed):
        topo = build_topology(*self.TOPOLOGIES[name], 0.4)
        mismatch, drains, regrowths = self.replay(topo, seed)
        assert mismatch is None
        assert drains > 0 and regrowths > 0

    @pytest.mark.parametrize("name", list(TOPOLOGIES))
    def test_dropping_backlogged_nodes_is_caught(self, name):
        topo = build_topology(*self.TOPOLOGIES[name], 0.4)
        mismatch, _, _ = self.replay(topo, 0, active=touched_only)
        assert mismatch is not None

    def test_active_is_touched_and_backlogged_in_index_order(self):
        topo = build_topology([3, 12, 2, 1], [30, 80, 150, None], 0.4)
        qs = QueueState.initial(topo)
        qs.apply_slot([0.0] * 3 + [1.0] * 12 + [0.0] * 3, topo.resource_budget, [4, 14])
        assert qs.backlogged == {4, 14}
        assert qs.active({16, 3, 14}) == [3, 4, 14, 16]
        # a drained queue leaves the backlog
        qs.apply_slot([0.0] * 18, topo.resource_budget, qs.active(()))
        qs.apply_slot([0.0] * 18, topo.resource_budget, qs.active(()))
        assert qs.values[4] == 0.0 and qs.backlogged == set()


def replay_metrics(run, paths, slots):
    """metrics.csv as csv.writer writes the dense accounting of a
    static-policy run, replayed from its recorded paths (entropy is 0.0).
    Returns the file's text, the final queues and the cost totals."""
    node_index = {node_id: i for i, node_id in enumerate(run.node_ids)}
    nodes = run.queues.nodes
    budgets = run.topo.resource_budget
    queues = [0.0] * len(run.node_ids)
    totals = [0.0] * len(run.node_ids)
    by_slot = {}
    for rec in paths:
        by_slot.setdefault(rec.slot, []).append(rec)
    text = io.StringIO(newline="")
    writer = csv.writer(text)
    writer.writerow(run.metrics_header())
    drains = regrowths = 0
    drained = set()
    for t in range(1, slots + 1):
        recs = by_slot.get(t, [])
        costs = [0.0] * len(run.node_ids)
        for rec in recs:
            hop_cost = rec.size_units * run.distance_factor
            for node_id in rec.path[1:]:
                costs[node_index[node_id]] += hop_cost
        errors = sum(rec.exit_error for rec in recs)
        before = list(queues)
        drift = dense_slot(queues, nodes, costs, budgets, errors, run.v, totals)
        d, r = count_drains(before, queues, nodes, drained)
        drains += d
        regrowths += r
        writer.writerow(
            [t, len(recs), errors, sum(rec.hard for rec in recs),
             sum(rec.hard and rec.reached_oracle for rec in recs),
             sum(rec.reached_oracle for rec in recs), 0.0, drift]
            + [costs[n] for n in run.queued_by_id]
            + [queues[n] for n in run.queued_by_id]
        )
    return text.getvalue(), queues, totals, drains, regrowths


def first_difference(written, want):
    """The first line at which two texts differ, or None; a cheap failure
    message where pytest would diff two whole files."""
    a, b = written.splitlines(True), want.splitlines(True)
    for i, (x, y) in enumerate(zip(a, b)):
        if x != y:
            return i, x, y
    return None if len(a) == len(b) else (min(len(a), len(b)), len(a), len(b))


class TestSparseMetricsRows:
    CASES = {
        "4-2-1": ([4, 2, 1], [30, 100, None], None),
        "3-12-2-1": ([3, 12, 2, 1], [30, 80, 150, None], 0.5),
        "16-8-4-2-1": ([16, 8, 4, 2, 1], [30, 80, 150, 200, None], 0.12),
    }

    @staticmethod
    def run_case(layer_sizes, memory_budgets, offload_prob):
        cfg = small_config(policy="random")
        cfg["run"]["total_jobs"] = 1500
        cfg["run"]["distance_factor"] = 1.7
        cfg["static"]["offload_prob"] = offload_prob
        cfg["topology"]["layer_sizes"] = layer_sizes
        cfg["topology"]["memory_budgets"] = memory_budgets
        cfg["run"]["record_paths"] = True
        with tempfile.TemporaryDirectory() as out:
            run = run_single(cfg, 0, out)
            with open(os.path.join(out, "metrics.csv"), newline="", encoding="utf-8") as fh:
                written = fh.read()
            with open(os.path.join(out, "paths.jsonl"), encoding="utf-8") as fh:
                paths = [SimpleNamespace(**json.loads(line)) for line in fh]
        return run, written, paths

    @pytest.mark.parametrize("name", list(CASES))
    def test_rows_equal_dense_replay(self, name):
        # the cached cells, their reset and the drained queues' cells, byte
        # for byte against csv.writer over the dense accounting
        run, written, paths = self.run_case(*self.CASES[name])
        want, queues, totals, drains, regrowths = replay_metrics(run, paths, run.slots_run)
        assert first_difference(written, want) is None
        assert run.queues.values == queues
        assert run.total_cost == totals
        assert drains > 0 and regrowths > 0

    def test_dropping_backlogged_nodes_is_caught(self, monkeypatch):
        monkeypatch.setattr(QueueState, "active", touched_only)
        run, written, paths = self.run_case(*self.CASES["3-12-2-1"])
        assert first_difference(written, replay_metrics(run, paths, run.slots_run)[0])
