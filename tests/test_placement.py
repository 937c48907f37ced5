import numpy as np
import pytest

import hiroute.placement
from hiroute.placement import (
    Placement,
    PlacementContext,
    baseline_placement,
    greedy_onload,
    layer_groups,
    marginal_gain,
    utility,
)
from hiroute.topology import build_topology
from tests.test_workload import table_of


def make_ctx(errors, sizes, mixture, penalty=0.0, previous=()):
    """errors: {model: {task: p}}, sizes: {model: s}, mixture: {task: w};
    columns follow the sorted model ids (m0, m1, ... is column 0, 1, ...),
    and ``previous`` holds columns."""
    tasks = sorted(mixture)
    table = table_of(tasks, {m: errors[m] for m in sorted(errors)}, sizes)
    return PlacementContext(np.array([mixture[t] for t in tasks]), table, penalty, previous)


def reference_greedy(ctx, budget):
    """The textbook density greedy: one marginal_gain per candidate per
    round, then the best single feasible model by utility."""
    chosen, remaining = set(), float(budget)
    sizes = ctx.error_table.sizes
    pool = sorted(range(len(sizes)), key=ctx.error_table.model_ids.__getitem__)
    while True:
        best_id, best_density, best_gain = None, -np.inf, 0.0
        for column in pool:
            if column in chosen or sizes[column] > remaining + 1e-12:
                continue
            gain = marginal_gain(ctx, column, chosen)
            density = gain / sizes[column]
            if density > best_density + 1e-15:
                best_id, best_density, best_gain = column, density, gain
        if best_id is None or best_gain < -1e-12:
            break
        chosen.add(best_id)
        remaining -= sizes[best_id]
    result = frozenset(chosen)
    best_single = None
    for column in pool:
        if sizes[column] <= budget + 1e-12:
            value = utility(ctx, {column})
            if best_single is None or value > best_single[0] + 1e-15:
                best_single = (value, column)
    if best_single is not None and best_single[0] > utility(ctx, result) + 1e-12:
        result = frozenset({best_single[1]})
    return result


class TestUtility:
    def test_empty_set_is_zero(self):
        ctx = make_ctx({"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0}, penalty=0.1)
        assert utility(ctx, set()) == 0.0

    def test_single_model_new_pays_penalty(self):
        # error 0.3, size 2, nu=0.1, not previously loaded: 0.7 - 0.2 = 0.5
        ctx = make_ctx({"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0}, penalty=0.1)
        assert utility(ctx, {0}) == pytest.approx(0.5)

    def test_previously_loaded_skips_penalty(self):
        ctx = make_ctx({"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0}, penalty=0.1, previous={0})
        assert utility(ctx, {0}) == pytest.approx(0.7)

    def test_penalty_sums_sizes_in_id_order(self):
        # columns c, b, a: in id order the sizes sum to 0.6, in column order
        # to 0.6000000000000001
        table = table_of(["t"], {m: {"t": 0.5} for m in "cba"}, {"c": 0.1, "b": 0.2, "a": 0.3})
        ctx = PlacementContext(np.array([1.0]), table, 1.0)
        assert utility(ctx, {0, 1, 2}) == 0.5 - (0.3 + 0.2 + 0.1)


class TestMarginalGain:
    def test_matches_utility_difference(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            errors = {
                f"m{i}": {f"t{j}": float(rng.uniform(0, 1)) for j in range(3)}
                for i in range(4)
            }
            sizes = {f"m{i}": float(rng.integers(1, 5)) for i in range(4)}
            mix = rng.dirichlet(np.ones(3))
            ctx = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(3)},
                           penalty=0.05, previous={0})
            for s_bits in range(8):
                subset = {i for i in range(3) if s_bits >> i & 1}
                gain = marginal_gain(ctx, 3, subset)
                assert gain == pytest.approx(
                    utility(ctx, subset | {3}) - utility(ctx, subset), abs=1e-12
                )

    def test_dominated_previously_loaded_model_adds_nothing(self):
        errors = {"m0": {"a": 0.1}, "m1": {"a": 0.5}}
        ctx = make_ctx(errors, {"m0": 1.0, "m1": 1.0}, {"a": 1.0}, penalty=0.1, previous={1})
        assert marginal_gain(ctx, 1, {0}) == pytest.approx(0.0)

    def test_singleton_gain(self):
        # all-A mixture, error 0.2, size 1, nu=0.1, new: 0.8 - 0.1 = 0.7
        ctx = make_ctx({"m0": {"a": 0.2}}, {"m0": 1.0}, {"a": 1.0}, penalty=0.1)
        assert marginal_gain(ctx, 0, set()) == pytest.approx(0.7)

    def test_submodularity_on_random_instances(self):
        rng = np.random.default_rng(42)
        for _ in range(1000):
            n = 4
            errors = {
                f"m{i}": {f"t{j}": float(rng.uniform(0, 1)) for j in range(2)}
                for i in range(n)
            }
            sizes = {f"m{i}": 1.0 for i in range(n)}
            mix = rng.dirichlet(np.ones(2))
            prev = {i for i in range(n) if rng.random() < 0.5}
            ctx = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(2)},
                           penalty=float(rng.uniform(0, 0.2)), previous=prev)
            ids = list(range(n))
            small = set(rng.choice(ids, size=1).tolist())
            big = small | set(rng.choice(ids, size=2).tolist())
            outside = [m for m in ids if m not in big]
            if not outside:
                continue
            m = outside[0]
            assert marginal_gain(ctx, m, small) >= marginal_gain(ctx, m, big) - 1e-12


class TestGreedy:
    def test_zero_budget(self):
        ctx = make_ctx({"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0})
        assert greedy_onload(ctx, 0.0) == frozenset()

    def test_density_rule_prefers_feasible_density(self):
        # m0: gain 0.6 size 2 (density 0.3, infeasible at budget 1)
        # m1: gain 0.4 size 1 (density 0.4)
        errors = {"m0": {"a": 0.4}, "m1": {"a": 0.6}}
        ctx = make_ctx(errors, {"m0": 2.0, "m1": 1.0}, {"a": 1.0})
        assert greedy_onload(ctx, 1.0) == frozenset({1})

    def test_respects_knapsack(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = 5
            errors = {
                f"m{i}": {f"t{j}": float(rng.uniform(0, 1)) for j in range(3)}
                for i in range(n)
            }
            sizes = {f"m{i}": float(rng.integers(1, 4)) for i in range(n)}
            mix = rng.dirichlet(np.ones(3))
            ctx = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(3)},
                           penalty=float(rng.uniform(0, 0.2)))
            budget = float(rng.integers(1, 8))
            chosen = greedy_onload(ctx, budget)
            assert sum(sizes[f"m{c}"] for c in chosen) <= budget + 1e-9

    def test_near_optimal_on_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(500):
            n = int(rng.integers(3, 7))
            n_tasks = int(rng.integers(2, 4))
            errors = {
                f"m{i}": {f"t{j}": float(rng.uniform(0, 1)) for j in range(n_tasks)}
                for i in range(n)
            }
            sizes = {f"m{i}": float(rng.integers(1, 4)) for i in range(n)}
            mix = rng.dirichlet(np.ones(n_tasks))
            prev = {i for i in range(n) if rng.random() < 0.3}
            ctx = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(n_tasks)},
                           penalty=float(rng.uniform(0, 0.15)), previous=prev)
            budget = float(rng.integers(2, 9))
            got = utility(ctx, greedy_onload(ctx, budget))
            best = 0.0
            for bits in range(2 ** n):
                subset = [i for i in range(n) if bits >> i & 1]
                if sum(sizes[f"m{i}"] for i in subset) <= budget:
                    best = max(best, utility(ctx, subset))
            assert got >= 0.5 * best - 1e-9
            assert got >= best - 0.25 - 1e-9

    def test_matches_marginal_gain_reference(self):
        # greedy_onload scores each round's candidates in one gain product;
        # the result must equal the textbook loop over marginal_gain and the
        # best single
        rng = np.random.default_rng(8)
        for _ in range(500):
            n = int(rng.integers(1, 8))
            n_tasks = int(rng.integers(1, 4))
            errors = {
                f"m{i}": {f"t{j}": float(rng.uniform(0, 1)) for j in range(n_tasks)}
                for i in range(n)
            }
            sizes = {f"m{i}": float(rng.integers(1, 5)) for i in range(n)}
            mix = rng.dirichlet(np.ones(n_tasks))
            prev = {i for i in range(n) if rng.random() < 0.3}
            ctx = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(n_tasks)},
                           penalty=float(rng.uniform(0, 0.3)), previous=prev)
            budget = float(rng.integers(0, 10))
            assert greedy_onload(ctx, budget) == reference_greedy(ctx, budget)

    def test_utility_only_for_the_final_comparison(self, monkeypatch):
        # the single models are scored inline; utility compares the result
        calls = []

        def counted(ctx, subset):
            calls.append(subset)
            return utility(ctx, subset)

        monkeypatch.setattr(hiroute.placement, "utility", counted)
        rng = np.random.default_rng(9)
        errors = {f"m{i}": {"t0": float(rng.uniform(0, 1)), "t1": float(rng.uniform(0, 1))}
                  for i in range(6)}
        ctx = make_ctx(errors, {f"m{i}": 1.0 + i for i in range(6)}, {"t0": 0.3, "t1": 0.7},
                       penalty=0.05, previous={2})
        greedy_onload(ctx, 7.0)
        assert len(calls) == 1

    def test_tie_heavy_instances(self):
        # coarse errors, equal sizes, uniform mixtures and penalties that can
        # cancel an error gain exactly: a net gain that is 0 in real
        # arithmetic may round either way in either form, so the chosen sets
        # may differ, but never the utility
        grid = [0.1, 0.2, 0.3, 0.5, 0.7, 1.0]
        rng = np.random.default_rng(11)
        for _ in range(2000):
            n = int(rng.integers(1, 8))
            n_tasks = int(rng.integers(1, 5))
            errors = {
                f"m{i}": {f"t{j}": float(rng.choice(grid)) for j in range(n_tasks)}
                for i in range(n)
            }
            sizes = {f"m{i}": 1.0 for i in range(n)}
            prev = {i for i in range(n) if rng.random() < 0.5}
            ctx = make_ctx(errors, sizes, {f"t{j}": 1.0 for j in range(n_tasks)},
                           penalty=float(rng.choice([0.0, 0.025, 0.05, 0.1, 0.2])),
                           previous=prev)
            budget = float(rng.integers(0, n + 1))
            got = greedy_onload(ctx, budget)
            assert len(got) <= budget
            assert utility(ctx, got) == pytest.approx(
                utility(ctx, reference_greedy(ctx, budget)), abs=1e-12
            )

    def test_gain_rounded_below_zero_does_not_end_the_pass(self):
        # draw 94 of test_tie_heavy_instances (seed 11): after m1 and m0,
        # m2's net gain is 0.05 - 0.05 = 0 in real arithmetic but reads
        # -1.4e-17 and comes first among the ties. The pass goes on, so the
        # previously loaded m4, whose gain is exactly 0, is loaded too.
        errors = {
            "m0": {"t0": 1.0, "t1": 0.3, "t2": 1.0, "t3": 1.0},
            "m1": {"t0": 0.2, "t1": 0.1, "t2": 0.7, "t3": 0.1},
            "m2": {"t0": 1.0, "t1": 0.5, "t2": 0.5, "t3": 0.5},
            "m3": {"t0": 1.0, "t1": 0.7, "t2": 0.7, "t3": 0.2},
            "m4": {"t0": 0.5, "t1": 0.3, "t2": 0.7, "t3": 1.0},
        }
        ctx = make_ctx(errors, {f"m{i}": 1.0 for i in range(5)},
                       {f"t{j}": 1.0 for j in range(4)}, penalty=0.05, previous={0, 1, 4})
        assert marginal_gain(ctx, 2, {0, 1}) == pytest.approx(0.0, abs=1e-15)
        got = greedy_onload(ctx, 4.0)
        assert got == reference_greedy(ctx, 4.0) == frozenset({0, 1, 2, 4})

    def test_dominated_previous_columns_gain_exactly_zero(self):
        # column m0 dominates the others, and all are loaded already: once m0
        # is chosen every other column gains exactly 0.0, never -1 ulp, so
        # the greedy does not stop until the budget is full
        grid = [0.1, 0.2, 0.3, 0.5, 0.7, 1.0]
        rng = np.random.default_rng(12)
        for _ in range(500):
            n = int(rng.integers(2, 8))
            n_tasks = int(rng.integers(1, 5))
            low = rng.integers(0, len(grid), size=n_tasks)  # m0's grid index per task
            errors = {
                f"m{i}": {
                    f"t{j}": grid[int(rng.integers(low[j], len(grid))) if i else low[j]]
                    for j in range(n_tasks)
                }
                for i in range(n)
            }
            ctx = make_ctx(errors, {f"m{i}": 1.0 for i in range(n)},
                           {f"t{j}": 1.0 for j in range(n_tasks)},
                           penalty=0.1, previous=set(range(n)))
            assert greedy_onload(ctx, float(n)) == frozenset(range(n))

    def test_error_gain_nonincreasing_along_greedy_sequence(self):
        rng = np.random.default_rng(5)
        errors = {
            f"m{i}": {f"t{j}": float(rng.uniform(0, 1)) for j in range(4)}
            for i in range(6)
        }
        sizes = {f"m{i}": 1.0 for i in range(6)}
        mix = rng.dirichlet(np.ones(4))
        ctx = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(4)})
        chosen: set = set()
        gains = []
        # unit sizes and no penalty: greedy picks by plain marginal error gain
        for _ in range(6):
            best = max(
                (m for m in range(6) if m not in chosen),
                key=lambda m: marginal_gain(ctx, m, chosen),
            )
            gains.append(marginal_gain(ctx, best, chosen))
            chosen.add(best)
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))


class TestBaselinePlacements:
    def topo(self):
        return build_topology([4, 2, 1], [30, 100, None], 0.4)

    def table(self, n=23, reverse=False):
        """Models m00..m22; with ``reverse`` the columns run against id order."""
        ids = [f"m{i:02d}" for i in range(n)]
        sizes = {m: 1.0 + (i % 5) for i, m in enumerate(ids)}
        return table_of(["a"], {m: {"a": 0.5} for m in (ids[::-1] if reverse else ids)}, sizes)

    def test_layer_groups_round_robin_sizes(self):
        groups = layer_groups(list(range(23)), 3)
        assert sorted(len(g) for g in groups) == [7, 8, 8]
        assert sorted(c for g in groups for c in g) == list(range(23))
        assert not (set(groups[0]) & set(groups[1]))

    def test_random_fixed_respects_budgets(self):
        topo, table = self.topo(), self.table()
        placement = baseline_placement("random_fixed", topo, table, seed=3)
        budgets = topo.memory_budget
        placement.check_feasible(budgets, table.sizes)
        # budget-filling: nothing else fits on any non-terminal node
        for node, loaded in enumerate(placement.loaded):
            if budgets[node] is None:
                assert loaded == frozenset()
                continue
            remaining = budgets[node] - sum(table.sizes[c] for c in loaded)
            leftovers = [
                c for c in range(23) if c not in loaded and table.sizes[c] <= remaining
            ]
            assert not leftovers

    def test_over_budget_rejected(self):
        topo, table = self.topo(), self.table()
        loaded = [frozenset()] * topo.num_nodes
        loaded[1] = frozenset(range(23))
        with pytest.raises(ValueError, match="node 1"):
            Placement(loaded).check_feasible(topo.memory_budget, table.sizes)

    def test_layer_diverse_uses_own_group_only(self):
        topo = self.topo()
        for table in (self.table(), self.table(reverse=True)):
            placement = baseline_placement("layer_diverse", topo, table, seed=3)
            groups = layer_groups(table.by_id, topo.num_layers)
            # dealt round-robin in id order, whatever the column order
            ids = [table.model_ids[c] for c in groups[0]]
            assert ids == [f"m{i:02d}" for i in range(0, 23, 3)]
            for node, loaded in zip(topo.nodes(), placement.loaded):
                if not topo.is_terminal(node):
                    assert loaded <= set(groups[topo.layer_of(node) - 1])

    def test_placements_deterministic_in_seed(self):
        topo = self.topo()
        a = baseline_placement("random_fixed", topo, self.table(), seed=3)
        b = baseline_placement("random_fixed", topo, self.table(), seed=3)
        assert a.loaded == b.loaded

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            baseline_placement("greedy", self.topo(), self.table(), seed=0)
