import numpy as np
import pytest

from hiroute.placement import (
    PlacementContext,
    baseline_placement,
    greedy_onload,
    layer_groups,
    marginal_gain,
    utility,
)
from hiroute.topology import build_topology
from hiroute.workload import ErrorTable, ModelSpec


def make_ctx(errors, sizes, mixture, penalty=0.0, previous=()):
    """errors: {model: {task: p}}, sizes: {model: s}, mixture: {task: w}."""
    tasks = sorted(mixture)
    models = [
        ModelSpec(m, sizes[m], frozenset(["text"]), errors[m]) for m in sorted(errors)
    ]
    table = ErrorTable(tasks, models, {t: "text" for t in tasks})
    ctx = PlacementContext(mixture, table, penalty, frozenset(previous))
    return ctx, models


class TestUtility:
    def test_empty_set_is_zero(self):
        ctx, _ = make_ctx({"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0}, penalty=0.1)
        assert utility(ctx, set()) == 0.0

    def test_single_model_new_pays_penalty(self):
        # error 0.3, size 2, nu=0.1, not previously loaded: 0.7 - 0.2 = 0.5
        ctx, _ = make_ctx({"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0}, penalty=0.1)
        assert utility(ctx, {"m0"}) == pytest.approx(0.5)

    def test_previously_loaded_skips_penalty(self):
        ctx, _ = make_ctx(
            {"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0}, penalty=0.1, previous={"m0"}
        )
        assert utility(ctx, {"m0"}) == pytest.approx(0.7)


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
            ctx, _ = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(3)},
                              penalty=0.05, previous={"m0"})
            for s_bits in range(8):
                subset = {f"m{i}" for i in range(3) if s_bits >> i & 1}
                gain = marginal_gain(ctx, "m3", subset)
                assert gain == pytest.approx(
                    utility(ctx, subset | {"m3"}) - utility(ctx, subset), abs=1e-12
                )

    def test_dominated_previously_loaded_model_adds_nothing(self):
        errors = {"m0": {"a": 0.1}, "m1": {"a": 0.5}}
        ctx, _ = make_ctx(errors, {"m0": 1.0, "m1": 1.0}, {"a": 1.0},
                          penalty=0.1, previous={"m1"})
        assert marginal_gain(ctx, "m1", {"m0"}) == pytest.approx(0.0)

    def test_singleton_gain(self):
        # all-A mixture, error 0.2, size 1, nu=0.1, new: 0.8 - 0.1 = 0.7
        ctx, _ = make_ctx({"m0": {"a": 0.2}}, {"m0": 1.0}, {"a": 1.0}, penalty=0.1)
        assert marginal_gain(ctx, "m0", set()) == pytest.approx(0.7)

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
            prev = {f"m{i}" for i in range(n) if rng.random() < 0.5}
            ctx, _ = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(2)},
                              penalty=float(rng.uniform(0, 0.2)), previous=prev)
            ids = sorted(errors)
            small = set(rng.choice(ids, size=1).tolist())
            big = small | set(rng.choice(ids, size=2).tolist())
            outside = [m for m in ids if m not in big]
            if not outside:
                continue
            m = outside[0]
            assert marginal_gain(ctx, m, small) >= marginal_gain(ctx, m, big) - 1e-12


class TestGreedy:
    def test_zero_budget(self):
        ctx, models = make_ctx({"m0": {"a": 0.3}}, {"m0": 2.0}, {"a": 1.0})
        assert greedy_onload(ctx, 0.0, models) == frozenset()

    def test_density_rule_prefers_feasible_density(self):
        # m0: gain 0.6 size 2 (density 0.3, infeasible at budget 1)
        # m1: gain 0.4 size 1 (density 0.4)
        errors = {"m0": {"a": 0.4}, "m1": {"a": 0.6}}
        ctx, models = make_ctx(errors, {"m0": 2.0, "m1": 1.0}, {"a": 1.0})
        assert greedy_onload(ctx, 1.0, models) == frozenset({"m1"})

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
            ctx, models = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(3)},
                                   penalty=float(rng.uniform(0, 0.2)))
            budget = float(rng.integers(1, 8))
            chosen = greedy_onload(ctx, budget, models)
            assert sum(sizes[m] for m in chosen) <= budget + 1e-9

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
            prev = {f"m{i}" for i in range(n) if rng.random() < 0.3}
            ctx, models = make_ctx(errors, sizes,
                                   {f"t{j}": mix[j] for j in range(n_tasks)},
                                   penalty=float(rng.uniform(0, 0.15)), previous=prev)
            budget = float(rng.integers(2, 9))
            got = utility(ctx, greedy_onload(ctx, budget, models))
            best = 0.0
            ids = sorted(errors)
            for bits in range(2 ** n):
                subset = [ids[i] for i in range(n) if bits >> i & 1]
                if sum(sizes[m] for m in subset) <= budget:
                    best = max(best, utility(ctx, subset))
            assert got >= 0.5 * best - 1e-9
            assert got >= best - 0.25 - 1e-9

    def test_matches_marginal_gain_reference(self):
        # greedy_onload computes utility(chosen) once per round; the result
        # must equal the textbook loop over marginal_gain and the best single
        def reference(ctx, budget, model_pool):
            chosen, remaining = set(), float(budget)
            pool = sorted(model_pool, key=lambda m: m.model_id)
            while True:
                best_id, best_density, best_gain = None, -np.inf, 0.0
                for model in pool:
                    if model.model_id in chosen or model.memory_size > remaining + 1e-12:
                        continue
                    gain = marginal_gain(ctx, model.model_id, chosen)
                    density = gain / model.memory_size
                    if density > best_density + 1e-15:
                        best_id, best_density, best_gain = model.model_id, density, gain
                if best_id is None or best_gain < 0:
                    break
                chosen.add(best_id)
                remaining -= ctx.size_of(best_id)
            result = frozenset(chosen)
            best_single = None
            for model in pool:
                if model.memory_size <= budget + 1e-12:
                    value = utility(ctx, {model.model_id})
                    if best_single is None or value > best_single[0] + 1e-15:
                        best_single = (value, model.model_id)
            if best_single is not None and best_single[0] > utility(ctx, result) + 1e-12:
                result = frozenset({best_single[1]})
            return result

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
            prev = {f"m{i}" for i in range(n) if rng.random() < 0.3}
            ctx, models = make_ctx(errors, sizes,
                                   {f"t{j}": mix[j] for j in range(n_tasks)},
                                   penalty=float(rng.uniform(0, 0.3)), previous=prev)
            budget = float(rng.integers(0, 10))
            assert greedy_onload(ctx, budget, models) == reference(ctx, budget, models)

    def test_error_gain_nonincreasing_along_greedy_sequence(self):
        rng = np.random.default_rng(5)
        errors = {
            f"m{i}": {f"t{j}": float(rng.uniform(0, 1)) for j in range(4)}
            for i in range(6)
        }
        sizes = {f"m{i}": 1.0 for i in range(6)}
        mix = rng.dirichlet(np.ones(4))
        ctx, models = make_ctx(errors, sizes, {f"t{j}": mix[j] for j in range(4)})
        chosen: set = set()
        gains = []
        # unit sizes and no penalty: greedy picks by plain marginal error gain
        for _ in range(6):
            best = max(
                (m for m in sorted(errors) if m not in chosen),
                key=lambda m: marginal_gain(ctx, m, chosen),
            )
            gains.append(marginal_gain(ctx, best, chosen))
            chosen.add(best)
        assert all(a >= b - 1e-12 for a, b in zip(gains, gains[1:]))


class TestBaselinePlacements:
    def topo(self):
        return build_topology([4, 2, 1], [30, 100, None], 0.4)

    def pool(self, n=23):
        return [
            ModelSpec(f"m{i:02d}", 1.0 + (i % 5), frozenset(["text"]), {"a": 0.5})
            for i in range(n)
        ]

    def test_layer_groups_round_robin_sizes(self):
        groups = layer_groups([f"m{i:02d}" for i in range(23)], 3)
        assert sorted(len(g) for g in groups) == [7, 8, 8]
        all_ids = sorted(m for g in groups for m in g)
        assert all_ids == [f"m{i:02d}" for i in range(23)]
        assert not (set(groups[0]) & set(groups[1]))

    def test_random_fixed_respects_budgets(self):
        topo = self.topo()
        placement = baseline_placement("random_fixed", topo, self.pool(), seed=3)
        sizes = {m.model_id: m.memory_size for m in self.pool()}
        placement.check_feasible(topo, sizes)
        # budget-filling: nothing else fits on any non-terminal node
        for node in topo.nodes():
            if node.layer == topo.num_layers:
                continue
            used = sum(sizes[m] for m in placement.loaded[node.node_id])
            remaining = topo.memory_budget[node.node_id] - used
            leftovers = [
                m for m in sizes
                if m not in placement.loaded[node.node_id] and sizes[m] <= remaining
            ]
            assert not leftovers

    def test_layer_diverse_uses_own_group_only(self):
        topo = self.topo()
        placement = baseline_placement("layer_diverse", topo, self.pool(), seed=3)
        groups = layer_groups([m.model_id for m in self.pool()], topo.num_layers)
        for node in topo.nodes():
            if node.layer == topo.num_layers:
                continue
            assert placement.loaded[node.node_id] <= set(groups[node.layer - 1])

    def test_placements_deterministic_in_seed(self):
        topo = self.topo()
        a = baseline_placement("random_fixed", topo, self.pool(), seed=3)
        b = baseline_placement("random_fixed", topo, self.pool(), seed=3)
        assert a.loaded == b.loaded

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            baseline_placement("greedy", self.topo(), self.pool(), seed=0)
