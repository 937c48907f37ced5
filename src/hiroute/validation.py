"""Fast self-checks over the core numerical properties.

Each check is independent of the code path it verifies: expectations are
enumerated or brute-forced rather than recomputed through the functions
under test. The whole suite runs in seconds and backs the ``validate`` CLI
subcommand. ``inject`` deliberately breaks one property so tests can confirm
the checks actually detect failures.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .losses import DownstreamLossOracle, estimate, variance_pair
from .placement import PlacementContext, greedy_onload, marginal_gain, utility
from .policy import ActionDistribution, ExpertGrid, ExpertTable
from .topology import Topology, build_topology
from .workload import ErrorTable, ModelSpec


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def check_unbiasedness(inject: str | None = None, n: int = 10_000) -> CheckResult:
    """Two-point expectation of the engine's loss estimate equals the loss."""
    rng = np.random.default_rng(7)
    estimator: Callable = estimate
    if inject == "baseline-sign":
        def estimator(f, baseline, rho, fb):  # deliberately wrong add-back sign
            return estimate(f, baseline, rho, fb) - 2.0 * baseline
    worst = 0.0
    for _ in range(n):
        f = float(rng.uniform(-50, 150))
        beta = float(rng.uniform(-20, 120))
        rho = float(rng.uniform(0.001, 1.0))
        expectation = rho * estimator(f, beta, rho, True) + (1 - rho) * estimator(
            f, beta, rho, False
        )
        worst = max(worst, abs(expectation - f))
    ok = worst < 1e-10
    return CheckResult("estimator-unbiasedness", ok, f"max deviation {worst:.2e}")


def check_variance_ordering(grid: int = 60) -> CheckResult:
    """Closed-form variances obey the ordering whenever 0 < baseline <= 2*loss."""
    f = 1.0
    ratios = np.linspace(0.01, 1.99, grid)
    rhos = np.linspace(0.01, 0.99, grid)
    for ratio, rho in itertools.product(ratios, rhos):
        var_naive, var_vr = variance_pair(f, ratio * f, rho)
        if var_vr > var_naive + 1e-12:
            return CheckResult(
                "variance-ordering", False, f"violated at beta={ratio * f}, rho={rho}"
            )
    for boundary in (0.0, 2.0 * f):
        var_naive, var_vr = variance_pair(f, boundary, 0.25)
        if abs(var_naive - var_vr) > 1e-12:
            return CheckResult(
                "variance-ordering", False, f"no equality at beta={boundary}"
            )
    return CheckResult("variance-ordering", True, f"{grid}x{grid} grid clean")


def check_weight_simplex(rounds: int = 200) -> CheckResult:
    """Weights stay a strictly positive simplex under random accumulations."""
    grid = ExpertGrid(thresholds=(0.0, 0.3, 0.7, 1.0), destinations=(1, 2))
    table = ExpertTable({0: grid}, 1, learning_rate=0.05, exploration_rate=0.1)
    rng = np.random.default_rng(11)
    for _ in range(rounds):
        # cut 0: every row takes the offload part, here a full matrix
        table.accumulate_loss(0, 0, 0, 0.0, rng.normal(0, 30, size=grid.shape))
        table.refresh_dirty()
        w = table.weights(0, 0)
        if abs(float(w.sum()) - 1.0) > 1e-9 or np.any(w <= 0):
            return CheckResult("weight-simplex", False, "simplex violated")
    return CheckResult("weight-simplex", True, f"{rounds} random updates clean")


def check_submodularity(tables: int = 20, n_models: int = 4, n_tasks: int = 3) -> CheckResult:
    """Exhaustive diminishing-returns check of the error component."""
    rng = np.random.default_rng(23)
    for _ in range(tables):
        models = [
            ModelSpec(
                model_id=f"m{i}",
                memory_size=1.0,
                modalities=frozenset(["text"]),
                error_prob={f"t{j}": float(rng.uniform(0, 1)) for j in range(n_tasks)},
            )
            for i in range(n_models)
        ]
        table = ErrorTable(
            [f"t{j}" for j in range(n_tasks)], models, {f"t{j}": "text" for j in range(n_tasks)}
        )
        ctx = PlacementContext(rng.dirichlet(np.ones(n_tasks)), table, switch_penalty=0.0)
        for a_bits in range(2 ** n_models):
            a_set = {i for i in range(n_models) if a_bits >> i & 1}
            for b_bits in range(2 ** n_models):
                b_set = {i for i in range(n_models) if b_bits >> i & 1}
                if not a_set <= b_set:
                    continue
                for m in range(n_models):
                    if m in b_set:
                        continue
                    if marginal_gain(ctx, m, a_set) < marginal_gain(ctx, m, b_set) - 1e-12:
                        return CheckResult(
                            "submodularity", False, f"violated for A={a_set}, B={b_set}, m={m}"
                        )
    return CheckResult("submodularity", True, f"{tables} random tables clean")


def _routes(topo: Topology, node: str) -> list[tuple[str, ...]]:
    """Every route from ``node``: it stops at its last node, or that node is
    terminal."""
    if topo.is_terminal(node):
        return [(node,)]
    routes = [(node,)]
    for up in topo.uplinks(node):
        routes += [(node, *rest) for rest in _routes(topo, up.node_id)]
    return routes


def check_loss_sweep() -> CheckResult:
    """The loss oracle's sweep matches exhaustive route enumeration.

    On chains of depth 2-5 and a 2-12-3-1 hierarchy, with random action
    distributions, local errors and queues, and from every node the sweep
    covers, the reach probability (mixed distribution), the expected loss
    (raw distribution) and the queue-free expected loss (the same with every
    queue at zero) are summed over every route. A middle layer of 10 or more
    nodes makes the id order of the destinations differ from their index
    order.
    """
    layer_sizes = ([1, 1], [1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1, 1], [2, 12, 3, 1])
    rng = np.random.default_rng(3)
    v = 70.0
    for sizes in layer_sizes:
        topo = build_topology(sizes, [10.0] * len(sizes), 0.4)
        ids, layers, dests = topo.index_tables()
        index = {node_id: i for i, node_id in enumerate(ids)}
        for _ in range(3):
            records = {}  # the job's NodeRecord at every non-terminal node
            for node in (i for layer in layers[:-1] for i in layer):
                w = rng.dirichlet(np.ones(len(dests[node]) + 1))
                lam = float(rng.uniform(0.01, 0.3))
                records[node] = (int(rng.integers(2)), ActionDistribution(w, lam, 0))
            queue = {n: float(rng.uniform(0, 5)) for layer in topo.layers[1:] for n in layer}
            queue_row = [queue.get(n, 0.0) for n in ids]
            c = float(rng.uniform(0.5, 4))
            for entry in layers[0]:
                oracle = DownstreamLossOracle(layers, entry, dests, records, queue_row, v, c)
                for node in (entry, *(i for layer in layers[1:] for i in layer)):
                    want = np.zeros(3)  # reach prob, expected loss, queue-free loss
                    for route in _routes(topo, ids[node]):
                        mixed, raw, hops = 1.0, 1.0, 0.0
                        for here, nxt in zip(route, route[1:]):
                            dist = records[index[here]][1]
                            i = dests[index[here]].index(index[nxt]) + 1  # 0 terminates
                            mixed *= float(dist.mixed[i])
                            raw *= float(dist.raw[i])
                            hops += queue[nxt] * c
                        last = route[-1]
                        if topo.is_terminal(last):
                            want += (mixed, raw * hops, 0.0)
                        else:
                            local_error, dist = records[index[last]]
                            raw *= float(dist.raw[0])
                            stop = v * local_error
                            want += (0.0, raw * (hops + stop), raw * stop)
                    got = (oracle.reach_prob(node), oracle.expected_loss(node),
                           oracle.expected_loss_decomposition(node))
                    if not np.allclose(got, want, rtol=1e-10, atol=1e-12):
                        topo_name = "-".join(map(str, sizes))
                        return CheckResult(
                            "loss-sweep", False,
                            f"{topo_name} at {ids[node]}: {got} != {tuple(want.tolist())}",
                        )
    return CheckResult("loss-sweep", True, f"{len(layer_sizes)} topologies clean")


def check_greedy_quality(instances: int = 60) -> CheckResult:
    """Greedy stays within the expected factor of the brute-force optimum."""
    rng = np.random.default_rng(5)
    for _ in range(instances):
        n_models = int(rng.integers(3, 6))
        n_tasks = int(rng.integers(2, 4))
        models = [
            ModelSpec(
                model_id=f"m{i}",
                memory_size=float(rng.integers(1, 4)),
                modalities=frozenset(["text"]),
                error_prob={f"t{j}": float(rng.uniform(0, 1)) for j in range(n_tasks)},
            )
            for i in range(n_models)
        ]
        table = ErrorTable(
            [f"t{j}" for j in range(n_tasks)], models, {f"t{j}": "text" for j in range(n_tasks)}
        )
        ctx = PlacementContext(
            rng.dirichlet(np.ones(n_tasks)), table, switch_penalty=float(rng.uniform(0, 0.15))
        )
        budget = float(rng.integers(2, 7))
        got = utility(ctx, greedy_onload(ctx, budget))
        best = 0.0
        for bits in range(2 ** n_models):
            subset = [i for i in range(n_models) if bits >> i & 1]
            if sum(table.sizes[m] for m in subset) <= budget:
                best = max(best, utility(ctx, subset))
        if got < 0.5 * best - 1e-9 or got < best - 0.25 - 1e-9:
            return CheckResult(
                "greedy-quality", False, f"greedy {got:.4f} vs optimum {best:.4f}"
            )
    return CheckResult("greedy-quality", True, f"{instances} instances clean")


def run_property_suite(inject: str | None = None) -> list[CheckResult]:
    return [
        check_unbiasedness(inject=inject),
        check_variance_ordering(),
        check_weight_simplex(),
        check_submodularity(),
        check_loss_sweep(),
        check_greedy_quality(),
    ]
