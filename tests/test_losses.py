import math

import numpy as np
import pytest

from hiroute.engine import RegretTracker
from hiroute.losses import BaselineTable, DownstreamLossOracle, estimate, variance_pair
from hiroute.policy import DEFAULT_THRESHOLDS, ActionDistribution, ExpertGrid, ExpertTable
from hiroute.topology import build_topology
from tests.test_engine import expert_sums
from tests.test_policy import cum_loss


class TestNaiveEstimate:
    # the importance-weighted estimate is the estimate with a zero baseline

    def test_no_feedback_is_zero(self):
        assert estimate(2.0, 0.0, 0.25, False) == 0.0

    def test_importance_weighting(self):
        assert estimate(2.0, 0.0, 0.25, True) == pytest.approx(8.0)
        # on arrays, exactly the plain importance weight
        losses = np.random.default_rng(5).uniform(0, 100, size=(11, 3))
        assert np.array_equal(estimate(losses, 0.0, 0.3, True), losses / 0.3)

    def test_two_point_expectation_recovers_loss(self):
        rng = np.random.default_rng(0)
        for _ in range(2000):
            f = float(rng.uniform(-10, 100))
            rho = float(rng.uniform(0.001, 1.0))
            ev = rho * estimate(f, 0.0, rho, True) + (1 - rho) * estimate(f, 0.0, rho, False)
            assert ev == pytest.approx(f, abs=1e-10)

    def test_rejects_invalid_rho(self):
        with pytest.raises(ValueError):
            estimate(1.0, 0.0, 0.0, True)


class TestVrEstimate:
    def test_no_feedback_returns_baseline(self):
        assert estimate(1.0, 0.8, 0.25, False) == 0.8

    def test_feedback_value(self):
        # (1.0 - 0.8)/0.25 + 0.8 = 1.6
        assert estimate(1.0, 0.8, 0.25, True) == pytest.approx(1.6)
        # elementwise on arrays
        losses = np.array([[1.0, 2.0], [0.5, 0.0]])
        beta = np.array([[0.8, 1.0], [0.5, 0.2]])
        assert np.allclose(estimate(losses, beta, 0.25, True), [[1.6, 5.0], [0.5, -0.6]])

    def test_two_point_expectation_exact_for_any_baseline(self):
        rng = np.random.default_rng(1)
        for _ in range(5000):
            f = float(rng.uniform(-50, 150))
            beta = float(rng.uniform(-100, 300))
            rho = float(rng.uniform(0.001, 1.0))
            ev = rho * estimate(f, beta, rho, True) + (1 - rho) * estimate(f, beta, rho, False)
            assert ev == pytest.approx(f, abs=1e-10)

    def test_monte_carlo_consistency(self):
        f, beta, rho = 1.7, 0.9, 0.2
        rng = np.random.default_rng(2)
        draws = np.array([
            estimate(f, beta, rho, bool(rng.random() < rho)) for _ in range(100_000)
        ])
        se = draws.std(ddof=1) / np.sqrt(len(draws))
        assert abs(draws.mean() - f) <= 4 * se


class TestVariancePair:
    def test_closed_form_reference_point(self):
        var_naive, var_vr = variance_pair(1.0, 0.8, 0.25)
        assert var_naive == pytest.approx(3.0)
        assert var_vr == pytest.approx(0.12)

    def test_equality_at_zero_baseline(self):
        var_naive, var_vr = variance_pair(1.0, 0.0, 0.3)
        assert var_naive == pytest.approx(var_vr)

    def test_equality_at_twice_loss(self):
        var_naive, var_vr = variance_pair(1.5, 3.0, 0.3)
        assert var_naive == pytest.approx(var_vr)

    def test_ordering_inside_condition(self):
        for ratio in np.linspace(0.01, 1.99, 50):
            for rho in np.linspace(0.01, 0.99, 50):
                var_naive, var_vr = variance_pair(2.0, ratio * 2.0, float(rho))
                assert var_vr <= var_naive + 1e-12

    def test_matches_empirical_bernoulli_variance(self):
        f, beta, rho = 1.0, 0.8, 0.25
        rng = np.random.default_rng(3)
        fb = rng.random(100_000) < rho
        naive = np.where(fb, f / rho, 0.0)
        vr = np.where(fb, (f - beta) / rho + beta, beta)
        var_naive, var_vr = variance_pair(f, beta, rho)
        assert naive.var() == pytest.approx(var_naive, rel=0.05)
        assert vr.var() == pytest.approx(var_vr, rel=0.05)


def expand(shape, cut, pair):
    """The full expert matrix of a ``(terminate, offload_row)`` pair under
    ``cut``: rows [:cut] terminate, rows [cut:] offload."""
    terminate, offload = pair
    matrix = np.empty(shape)
    matrix[:cut] = terminate
    matrix[cut:] = offload
    return matrix


def baseline_table(ema_rate=0.1):
    grid = ExpertGrid(thresholds=(0.2, 0.8), destinations=(1, 2))
    return BaselineTable({0: grid}, 1, ema_rate=ema_rate)


def plugin(table, queue_row=(0.0, 0.0)):
    """Baseline matrix with the 0.8-threshold expert offloading (cut 1)."""
    return expand((2, 2), 1, table.plugin_values(0, 0, np.array(queue_row),
                                                 hop_cost=2.0, error_weight=70.0))


class TestBaselineTable:
    def test_initialized_to_zero(self):
        assert np.all(plugin(baseline_table()) == 0.0)

    def test_single_ema_step(self):
        # zero start, rate 0.1: local error 1 -> 0.1, downstream 8 -> 0.8
        table = baseline_table()
        table.update_hidden(0, 0, local_error=1.0, down_base=np.array([8.0, 4.0]))
        beta = plugin(table)
        assert beta[0, 0] == pytest.approx(70.0 * 0.1)
        assert beta[1, 0] == pytest.approx(0.8)
        assert beta[1, 1] == pytest.approx(0.4)

    def test_geometric_convergence_to_stationary_target(self):
        table = baseline_table()
        for _ in range(400):
            table.update_hidden(0, 0, 1.0, np.array([8.0, 4.0]))
        assert plugin(table)[1, 0] == pytest.approx(8.0, abs=1e-6)
        assert plugin(table)[0, 0] == pytest.approx(70.0, abs=1e-6)
        # the gap to the target shrinks by (1 - rate) per step
        table2 = baseline_table()
        gaps = []
        for _ in range(5):
            table2.update_hidden(0, 0, 1.0, np.array([8.0, 4.0]))
            gaps.append(8.0 - plugin(table2)[1, 0])
        ratios = [b / a for a, b in zip(gaps, gaps[1:])]
        assert all(r == pytest.approx(0.9, abs=1e-9) for r in ratios)

    def test_queue_aware_plugin_tracks_live_queue(self):
        table = baseline_table(ema_rate=0.5)
        table.update_hidden(0, 0, local_error=1.0, down_base=np.array([2.0, 6.0]))
        beta = plugin(table, queue_row=(10.0, 0.0))
        # local experts: 70 * EMA(b); offload experts: q*c + EMA(base)
        # (the EMA carries the 0.5 rate from a zero start)
        assert beta[0, 0] == pytest.approx(70 * 0.5)
        assert beta[1, 0] == pytest.approx(10.0 * 2.0 + 1.0)
        assert beta[1, 1] == pytest.approx(0.0 * 2.0 + 3.0)
        beta2 = plugin(table, queue_row=(0.0, 0.0))
        assert beta2[1, 0] == pytest.approx(1.0)  # queues drained, reflected live

    def test_condition_violation_counter(self):
        # cut 1 of 2 rows: the one offload row counts each destination once
        table = baseline_table()
        f = (1.0, np.array([1.0, 1.0]))
        table.count_violations(0, 1, (0.5, np.array([0.5, 0.5])), f)  # inside (0, 2f]
        assert table.condition_violations == 0
        table.count_violations(0, 1, (0.5, np.array([3.0, 0.5])), f)  # beta > 2f
        assert table.condition_violations == 1
        table.count_violations(0, 1, (0.5, np.array([0.5, 0.0])), f)  # beta = 0
        assert table.condition_violations == 2


class TestPerVisitRowsMatchNumpy:
    """The per-visit rows are Python float lists; numpy's array formulas
    are the reference, bit for bit."""

    @pytest.mark.parametrize("d", [1, 3, 8])
    def test_ema_sequence_matches_in_place_array_updates(self, d):
        grid = ExpertGrid((0.2, 0.8), tuple(range(1, d + 1)))
        rng = np.random.default_rng(40 + d)
        for rate in (0.1, 0.37, 1.0):
            table = BaselineTable({0: grid}, 1, ema_rate=rate)
            reference = np.zeros(d)
            for _ in range(200):
                down_base = rng.uniform(0, 80, size=d) * (rng.random(d) < 0.8)
                table.update_hidden(0, 0, int(rng.integers(2)), down_base.tolist())
                reference *= 1.0 - rate
                reference += rate * down_base
                got = table._hidden[(0, 0)][1]
                assert [type(b) for b in got] == [float] * d
                assert [b.hex() for b in got] == [b.hex() for b in reference.tolist()]

    def test_violation_count_matches_mask_on_edge_values(self):
        # 0.0, -0.0, negatives, NaN and +-inf on either side, f = 0 included
        values = [0.0, -0.0, -1.5, 0.25, 0.5, 1.0, 2.0, math.nan, math.inf, -math.inf]
        grid = ExpertGrid(DEFAULT_THRESHOLDS, (1, 2, 3))
        table = BaselineTable({0: grid}, 1, ema_rate=0.1)
        rng = np.random.default_rng(41)
        want = 0
        for _ in range(500):
            cut = int(rng.integers(0, len(DEFAULT_THRESHOLDS) + 1))
            beta = rng.choice(values, size=4).tolist()
            losses = rng.choice(values, size=4).tolist()
            b = expand(grid.shape, cut, (beta[0], np.array(beta[1:])))
            f = expand(grid.shape, cut, (losses[0], np.array(losses[1:])))
            want += int((~((b > 0) & (b <= 2 * f))).sum())
            table.count_violations(0, cut, (beta[0], beta[1:]), (losses[0], losses[1:]))
            assert table.condition_violations == want
        assert 0 < want < 500 * grid.size


def chain_views(offload_probs, errors=None, confidences=None, lam=0.0, thresholds=()):
    """Hand-set records of a job on a single chain, keyed by node id:
    (local error, action distribution). Each distribution's cut counts the
    ``thresholds`` at or below the node's confidence (default 0.5)."""
    errors = errors or {}
    confidences = confidences or {}
    return {
        node_id: (
            errors.get(node_id, 0),
            ActionDistribution(
                [1.0 - p, p], exploration_rate=lam,
                cut=sum(th <= confidences.get(node_id, 0.5) for th in thresholds),
            ),
        )
        for node_id, p in offload_probs.items()
    }


class Oracle:
    """The loss oracle of a job entering at n1_0, queried by node id."""

    def __init__(self, topo, views, queue, error_weight, hop_cost):
        self.index = {node_id: i for i, node_id in enumerate(topo.node_ids)}
        self.records = records = {self.index[n]: record for n, record in views.items()}
        queue_row = [queue.get(n, 0.0) for n in topo.node_ids]
        self.oracle = DownstreamLossOracle(
            topo.layers, self.index["n1_0"], topo.dests, records, queue_row, error_weight,
            hop_cost,
        )

    def reach_prob(self, node_id):
        return self.oracle.reach_prob(self.index[node_id])

    def expected_loss(self, node_id):
        return self.oracle.expected_loss(self.index[node_id])

    def expected_loss_decomposition(self, node_id):
        return self.oracle.expected_loss_decomposition(self.index[node_id])

    def expert_loss_matrix(self, node_id, grid, zero_downstream=False):
        """The full matrix of the oracle's pair under the job's cut."""
        node = self.index[node_id]
        pair = self.oracle.expert_loss_matrix(node, zero_downstream)
        return expand(grid.shape, self.records[node][1].cut, pair)


class TestReachProb:
    def test_terminal_node_is_one(self):
        topo = build_topology([1, 1], [10, None], 0.4)
        oracle = Oracle(topo, chain_views({"n1_0": 0.3}), {}, 1.0, 1.0)
        assert oracle.reach_prob("n2_0") == 1.0

    def test_chain_product(self):
        topo = build_topology([1, 1, 1], [10, 10, None], 0.4)
        views = chain_views({"n1_0": 0.5, "n2_0": 0.5})
        oracle = Oracle(topo, views, {}, 1.0, 1.0)
        assert oracle.reach_prob("n1_0") == pytest.approx(0.25, abs=1e-12)

    def test_product_formula_depths_2_to_5(self):
        rng = np.random.default_rng(4)
        for depth in (2, 3, 4, 5):
            topo = build_topology([1] * depth, [10.0] * depth, 0.4)
            probs = {f"n{k}_0": float(rng.uniform(0.05, 0.95)) for k in range(1, depth)}
            oracle = Oracle(topo, chain_views(probs), {}, 1.0, 1.0)
            expected = float(np.prod(list(probs.values()))) if probs else 1.0
            assert oracle.reach_prob("n1_0") == pytest.approx(expected, abs=1e-12)

    def test_exploration_floor_bound(self):
        # lambda=0.1, fan 2, depth 3: reach prob >= (0.1/3)^2
        topo = build_topology([4, 2, 1], [30, 100, None], 0.4)
        lam = 0.1

        # the raw policy never offloads
        views = {
            topo.node_ids[node]: (0, ActionDistribution(
                np.eye(len(topo.dests[node]) + 1)[0].tolist(), exploration_rate=lam, cut=0
            ))
            for node in (*topo.layers[0], *topo.layers[1])
        }
        oracle = Oracle(topo, views, {}, 1.0, 1.0)
        floor = (lam / 3) * (lam / 2)
        assert oracle.reach_prob("n1_0") >= floor - 1e-15
        assert oracle.reach_prob("n1_0") >= (lam / 3) ** 2  # conservative bound

    def test_uses_mixed_distribution(self):
        # routes are sampled from the exploration-mixed distribution, so the
        # reach probability must be taken under it, not under the raw one
        topo = build_topology([1, 1], [10, None], 0.4)
        views = chain_views({"n1_0": 0.4}, lam=0.1)
        oracle = Oracle(topo, views, {}, 1.0, 1.0)
        assert oracle.reach_prob("n1_0") == pytest.approx(0.9 * 0.4 + 0.05)


class TestExpectedLoss:
    def test_terminal_is_zero(self):
        topo = build_topology([1, 1], [10, None], 0.4)
        oracle = Oracle(topo, chain_views({"n1_0": 0.5}), {}, 70.0, 1.0)
        assert oracle.expected_loss("n2_0") == 0.0

    def test_pure_local_branch(self):
        topo = build_topology([1, 1], [10, None], 0.4)
        views = chain_views({"n1_0": 0.0}, errors={"n1_0": 1})
        oracle = Oracle(topo, views, {}, 70.0, 1.0)
        assert oracle.expected_loss("n1_0") == pytest.approx(70.0)

    def test_pure_offload_to_terminal(self):
        topo = build_topology([1, 1], [10, None], 0.4)
        views = chain_views({"n1_0": 1.0}, errors={"n1_0": 1})
        oracle = Oracle(topo, views, {"n2_0": 2.0}, 70.0, hop_cost=3.0)
        assert oracle.expected_loss("n1_0") == pytest.approx(6.0)

    def test_matches_exhaustive_enumeration_three_node_chain(self):
        topo = build_topology([1, 1, 1], [10, 10, None], 0.4)
        rng = np.random.default_rng(6)
        for _ in range(30):
            p1, p2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
            b1, b2 = int(rng.integers(2)), int(rng.integers(2))
            q = {"n2_0": float(rng.uniform(0, 5)), "n3_0": float(rng.uniform(0, 5))}
            c = float(rng.uniform(0.5, 4))
            v = 70.0
            views = chain_views({"n1_0": p1, "n2_0": p2},
                                errors={"n1_0": b1, "n2_0": b2})
            oracle = Oracle(topo, views, q, v, c)
            # enumerate the three realizations: stop@1, stop@2, reach terminal
            brute = (
                (1 - p1) * v * b1
                + p1 * (q["n2_0"] * c + (1 - p2) * v * b2)
                + p1 * p2 * (q["n3_0"] * c + 0.0)
            )
            assert oracle.expected_loss("n1_0") == pytest.approx(brute, abs=1e-10)
            # the same enumeration with both queues at zero
            brute_free = (1 - p1) * v * b1 + p1 * (1 - p2) * v * b2
            assert oracle.expected_loss_decomposition("n1_0") == pytest.approx(
                brute_free, abs=1e-10
            )


class TestExpertLoss:
    def grid(self):
        return ExpertGrid(thresholds=(0.0, 0.4, 1.0), destinations=(1,))

    def topo(self):
        return build_topology([1, 1], [10, None], 0.4)

    def views(self, errors, confidence):
        return chain_views({"n1_0": 0.5}, errors=errors, confidences={"n1_0": confidence},
                           thresholds=self.grid().thresholds)

    def test_threshold_zero_never_offloads(self):
        views = self.views({"n1_0": 0}, 0.5)
        oracle = Oracle(self.topo(), views, {}, 70.0, 1.0)
        assert oracle.expert_loss_matrix("n1_0", self.grid())[0, 0] == 0.0

    def test_threshold_one_pure_offload_branch(self):
        views = self.views({"n1_0": 1}, 0.5)
        oracle = Oracle(self.topo(), views, {"n2_0": 2.0}, 70.0, 3.0)
        assert oracle.expert_loss_matrix("n1_0", self.grid())[2, 0] == pytest.approx(6.0)

    def test_local_branch_with_error(self):
        views = self.views({"n1_0": 1}, 0.9)
        oracle = Oracle(self.topo(), views, {}, 70.0, 1.0)
        assert oracle.expert_loss_matrix("n1_0", self.grid())[1, 0] == pytest.approx(70.0)

    def test_matrix_matches_scalar(self):
        # each cell follows the per-expert rule: terminate (weighted local
        # error) unless the threshold exceeds the confidence, else pay the
        # queue-weighted hop plus the destination's expected loss
        topo = build_topology([1, 1, 1], [10, 10, None], 0.4)
        grid = ExpertGrid(thresholds=(0.0, 0.3, 0.5, 0.6, 1.0), destinations=(1,))
        q = {"n2_0": 1.5, "n3_0": 0.5}
        views = chain_views({"n1_0": 0.5, "n2_0": 0.3}, errors={"n1_0": 1, "n2_0": 1},
                            confidences={"n1_0": 0.5}, thresholds=grid.thresholds)
        oracle = Oracle(topo, views, q, 70.0, 2.0)
        matrix = oracle.expert_loss_matrix("n1_0", grid)
        for i, th in enumerate(grid.thresholds):
            if th <= 0.5:
                expected = 70.0 * 1
            else:
                expected = q["n2_0"] * 2.0 + oracle.expected_loss("n2_0")
            assert matrix[i, 0] == pytest.approx(expected)

    def test_zero_downstream_keeps_queue_cost_only(self):
        topo = build_topology([1, 1, 1], [10, 10, None], 0.4)
        grid = ExpertGrid(thresholds=(1.0,), destinations=(1,))
        views = chain_views({"n1_0": 0.5, "n2_0": 0.5},
                            errors={"n1_0": 1, "n2_0": 1},
                            confidences={"n1_0": 0.5, "n2_0": 0.5},
                            thresholds=grid.thresholds)
        oracle = Oracle(topo, views, {"n2_0": 2.0}, 70.0, 3.0)
        with_downstream = oracle.expert_loss_matrix("n1_0", grid)[0, 0]
        without = oracle.expert_loss_matrix("n1_0", grid, zero_downstream=True)[0, 0]
        assert without == pytest.approx(6.0)
        assert with_downstream > without


class TestCutMatchesThresholdMask:
    def test_plugin_values_and_expert_loss_matrix(self):
        # both read the cut that action_probs stored; each must equal the
        # construction from the mask of thresholds above the confidence
        topo = build_topology([1, 3, 1], [10, 10, None], 0.4)
        dests = topo.dests
        grid = ExpertGrid(DEFAULT_THRESHOLDS, dests[0])
        thresholds = np.asarray(DEFAULT_THRESHOLDS)
        experts = ExpertTable({0: grid}, 1, learning_rate=0.1, exploration_rate=0.1)
        experts.accumulate_loss(0, 0, 0, 0.0,
                                np.random.default_rng(8).normal(0, 5, size=grid.shape))
        experts.refresh_dirty()
        baselines = BaselineTable({0: grid}, 1, ema_rate=0.3)
        baselines.update_hidden(0, 0, 1.0, np.array([4.0, 1.0, 2.5]))
        rng = np.random.default_rng(9)
        zs = (*rng.uniform(0, 1, size=40), *DEFAULT_THRESHOLDS, 0.0, 1.0)
        for z in zs:
            mask = thresholds > z
            dist = experts.action_probs(0, 0, float(z))
            queue_row = rng.uniform(0, 3, size=3)
            for zero_downstream in (False, True):
                offload_row = queue_row * 2.0
                if not zero_downstream:
                    offload_row = offload_row + np.array(baselines._hidden[(0, 0)][1])
                want = np.where(mask[:, None], offload_row[None, :],
                                70.0 * baselines._hidden[(0, 0)][0])
                got = expand(grid.shape, dist.cut, baselines.plugin_values(
                    0, 0, queue_row.tolist(), hop_cost=2.0, error_weight=70.0,
                    zero_downstream=zero_downstream,
                ))
                assert np.array_equal(got, want)
            local_error = int(rng.integers(2))
            queue = [0.0, *rng.uniform(0, 3, size=4).tolist()]
            records = {0: (local_error, dist)}
            for node in (1, 2, 3):  # the middle layer, with nonzero downstream loss
                p = float(rng.uniform(0, 1))
                records[node] = (1, ActionDistribution([1.0 - p, p], 0.1, 0))
            oracle = DownstreamLossOracle(((0,), (1, 2, 3), (4,)), 0, dests,
                                          records, queue, 70.0, 1.5)
            for zero_downstream in (False, True):
                row = np.array([queue[d] * 1.5 if zero_downstream else oracle.offload_cost[d]
                                for d in dests[0]])
                want = np.where(mask[:, None], row[None, :], 70.0 * local_error)
                got = expand(grid.shape, dist.cut,
                             oracle.expert_loss_matrix(0, zero_downstream))
                assert np.array_equal(got, want)


class TestPairsMatchFullMatrices:
    """A job's D+1 distinct values per node, added under its cut, give the
    same bits as the former construction of full T×D matrices."""

    T, D = 11, 3

    def jobs(self, rng, n=300):
        """Random (cut, rho, fb, losses, baselines) per job; cut 0 and cut T
        come first. Some baselines sit on 0 or on 2f, the violation edges."""
        for k in range(n):
            cut = (0, self.T)[k] if k < 2 else int(rng.integers(0, self.T + 1))
            losses = (float(rng.uniform(0, 80)), rng.uniform(0, 30, size=self.D))
            beta_stop = float(rng.choice([0.0, 2.0 * losses[0], rng.uniform(-5, 100)]))
            beta_row = rng.uniform(-5, 50, size=self.D)
            beta_row[rng.random(self.D) < 0.2] = 0.0
            edge = rng.random(self.D) < 0.2
            beta_row[edge] = 2.0 * losses[1][edge]
            yield cut, float(rng.uniform(0.01, 1.0)), bool(rng.random() < 0.5), losses, \
                (beta_stop, beta_row)

    def test_accumulated_estimates_regret_sums_and_violations(self):
        grid = ExpertGrid(DEFAULT_THRESHOLDS, (1, 2, 3))
        experts = ExpertTable({0: grid}, 1, learning_rate=0.1, exploration_rate=0.1)
        baselines = BaselineTable({0: grid}, 1, ema_rate=0.1)
        # one entry node offloading to three terminal nodes, with unit hop
        # cost: a job that stops at the entry has the expert losses ``(v *
        # local error, queue row)``. Its cut is logged as its noise, with
        # accuracy 0 and unit noise scale, on thresholds that put z = 0 below
        # the first one; its local error as the bit of the selected column 0.
        # One tracker settles after every job, the other once at the end.
        layers, dests = ((0,), (1, 2, 3)), ((1, 2, 3), (), (), ())
        v = 37.3
        shifted = (*(0.05 + 0.1 * i for i in range(self.T - 1)), 1.0)
        z_of_cut = [0.0, *((a + b) / 2 for a, b in zip(shifted, shifted[1:])), 1.0]
        epoch = (np.zeros((4, 1)), np.array([[0], [-1], [-1], [-1]]))
        tracker = RegretTracker(layers, dests, v, [], shifted, 1.0, experts)
        batched = RegretTracker(layers, dests, v, [], shifted, 1.0, experts)
        bit_rng = np.random.default_rng(18)
        cum = np.zeros(grid.shape)
        sums = None
        violations = 0
        for cut, rho, fb, losses, beta in self.jobs(np.random.default_rng(17)):
            # the former construction: one matrix per (job, node)
            f = np.empty(grid.shape)
            f[:cut] = losses[0]
            f[cut:] = losses[1]
            b = np.empty(grid.shape)
            b[:cut] = beta[0]
            b[cut:] = beta[1]
            cum += estimate(f, b, rho, fb)
            local_error = int(bit_rng.integers(2))
            g = f.copy()
            g[:cut] = v * local_error
            sums = g if sums is None else sums + g
            violations += int((~((b > 0.0) & (b <= 2.0 * f))).sum())
            # the pairs, their rows as lists of Python floats
            losses = (losses[0], losses[1].tolist())
            beta = (beta[0], beta[1].tolist())
            experts.accumulate_loss(0, 0, cut, estimate(losses[0], beta[0], rho, fb),
                                    [estimate(f, b, rho, fb) for f, b in zip(losses[1], beta[1])])
            queue = (0.0, *losses[1])
            for regret in (tracker, batched):
                regret.add(0, [0], [z_of_cut[cut], 0.0, 0.0, 0.0], (1 - local_error,), 1.0,
                           queue, epoch)
            tracker.settle()
            baselines.count_violations(0, cut, beta, losses)
            assert cum_loss(experts, 0, 0).tobytes() == cum.tobytes()
            assert expert_sums(tracker)[(0, 0)].tobytes() == sums.tobytes()
            assert baselines.condition_violations == violations
        assert violations > 0
        batched.settle()
        assert expert_sums(batched)[(0, 0)].tobytes() == sums.tobytes()
