"""Self-checks that back ``hiroute validate`` and finish in under a second.

``distribution-build`` and ``arrival-draws`` guard bits numpy does not
promise (its summation order, its generator stream), so a user reruns them
after a numpy upgrade; the tests take their references from here.
``loss-sweep`` holds the only enumeration of every route through branching
hierarchies. The paper's other properties (unbiasedness, variance ordering,
weight simplex, submodularity, greedy quality) are checked by the test
suite alone. Each check enumerates its expectation, not the code under test.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import policy
from .losses import DownstreamLossOracle, backward_sweep
from .policy import ActionDistribution, ExpertGrid, ExpertTable
from .topology import Topology, build_topology
from .workload import UNIT, RawWords, word_cuts


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def per_table_refresh(losses: np.ndarray, learning_rate: float) -> tuple[np.ndarray, float]:
    """One table's weights and entropy by the per-table formula: the softmax
    of its negated, scaled losses in stable form, reduced with ``axis=None``."""
    scaled = -learning_rate * losses
    scaled -= np.maximum.reduce(scaled, axis=None)
    expd = np.exp(scaled)
    w = expd / np.add.reduce(expd, axis=None)
    logs = np.log(w, out=np.zeros(w.shape), where=w > 0)
    return w, float(-np.add.reduce(w * logs, axis=None))


def spanning_losses(rng: np.random.Generator, count: int, rows: int, d: int) -> np.ndarray:
    """``count`` tables' losses of shape (rows, d), each on its own scale
    between 0.1 and 1e5, so that some weights underflow to 0."""
    return rng.uniform(0, 1, (count, rows, d)) * 10.0 ** rng.uniform(-1, 5, (count, 1, 1))


def check_distribution_build(grids: int = 60) -> CheckResult:
    """Weight refreshes and action distributions keep numpy's bits.

    On random tables of 1-20 destinations, 1-11 thresholds, exploration
    rates up to 0.75 and Dirichlet weights near 0 (α 0.02-1), every cut's
    ``raw``, ``mixed`` and ``cdf`` equal numpy's two reductions,
    ``(1 - λ) * raw + λ / n`` and ``cumsum(mixed / add.reduce(mixed))`` over
    its last entry, and :func:`policy.raw_rows` over three tables of one
    shape stacked gives every cut's ``raw`` too. :func:`policy.stacked_weights`
    over 1-40 stacked tables with losses up to 1e5 gives each table's weights
    and entropy by the per-table formula, and some weights must underflow to 0.
    numpy does not promise its summation order; a numpy that changes it
    fails here."""
    rng = np.random.default_rng(13)
    for _ in range(grids):
        d, rows = int(rng.integers(1, 21)), int(rng.integers(1, 12))
        lam = float(rng.uniform(0.01, 0.75))
        thresholds = tuple(np.sort(rng.choice(101, rows, replace=False) / 100).tolist())
        table = ExpertTable({0: ExpertGrid(thresholds, tuple(range(d)))}, 3, 1.0, lam)
        for task, alpha in enumerate((0.02, 0.3, 1.0)):
            target = np.maximum(rng.dirichlet(np.full(rows * d, alpha)), 1e-300)
            table.accumulate_loss(0, task, 0, 0.0, -np.log(target).reshape(rows, d))
        table.refresh_dirty()
        stacked = policy.raw_rows(np.stack([table.weights(0, task) for task in range(3)]))
        for task in range(3):
            w = table.weights(0, task)
            for cut in range(rows + 1):
                dist = table.action_probs(0, task, thresholds[cut - 1] if cut else -1.0)
                raw = np.array([np.add.reduce(w[:cut], axis=None),
                                *np.add.reduce(w[cut:], 0)])
                mixed = (1.0 - lam) * raw + lam / (d + 1)
                cdf = (mixed / np.add.reduce(mixed)).cumsum()
                cdf /= cdf[-1]
                want = tuple(tuple(x.tolist()) for x in (raw, mixed, cdf))
                if (dist.raw, dist.mixed, dist.cdf) != want:
                    return CheckResult("distribution-build", False,
                                       f"{d} destinations, cut {cut}: differs from numpy")
                if tuple(stacked[task, cut].tolist()) != want[0]:
                    return CheckResult("distribution-build", False,
                                       f"{d} destinations, cut {cut}: stacked raw row "
                                       "differs from numpy")
    underflow = False
    for _ in range(grids):
        count, rows, d = (int(rng.integers(1, n)) for n in (41, 12, 17))
        lr = float(10.0 ** rng.uniform(-2, 0))
        losses = spanning_losses(rng, count, rows, d)
        weights, entropies = policy.stacked_weights(losses, lr)
        for b in range(count):
            w, h = per_table_refresh(losses[b], lr)
            if weights[b].tobytes() != w.tobytes() or float(entropies[b]) != h:
                return CheckResult("distribution-build", False,
                                   f"{d} destinations, table {b} of {count}: stacked "
                                   "weights differ from the per-table formula")
        underflow |= not weights.all()
    if not underflow:
        return CheckResult("distribution-build", False, "no stacked weight underflowed to 0")
    return CheckResult("distribution-build", True,
                       f"{grids} random grids of 3 tables, every cut, and {grids} "
                       "random stacks of 1-40 tables, clean")


# bounds of the bounded draws; a 32-bit half is rejected with odds
# 2**32 % n / 2**32, a quarter at 3 << 30 and about half at 2**31 + 12345
BOUNDS = (1, 2, 3, 5, 13, 3 << 30, (1 << 31) + 12345, (1 << 32) - 1)


def check_arrival_draws(seeds: int = 8, draws: int = 400) -> CheckResult:
    """The arrival decoding keeps numpy's stream: on one bit generator's raw
    words, ``RawWords.below(n)`` equals ``integers(n)``, ``(word >> 11) *
    2**-53`` equals ``random()``, ``lo + (hi - lo)`` times it equals
    ``uniform(lo, hi)`` and ``word >= word_cuts([p])[0]`` equals
    ``random() >= p``, in a random interleaving per seed. numpy does not
    promise its stream; a numpy that changes it fails here."""
    for seed in range(seeds):
        rng = np.random.default_rng(seed)
        words = RawWords(np.random.default_rng(seed).bit_generator)
        plan = np.random.default_rng(1000 + seed)
        for k in range(draws):
            kind = int(plan.integers(4))
            if kind == 0:
                n = BOUNDS[int(plan.integers(len(BOUNDS)))]
                name, got, want = f"integers({n})", words.below(n), int(rng.integers(n))
            elif kind == 1:
                name, got, want = "random()", (words.word() >> 11) * UNIT, rng.random()
            elif kind == 2:
                lo, hi = sorted(plan.uniform(-5, 30, 2).tolist())
                name = f"uniform({lo}, {hi})"
                got = lo + (hi - lo) * ((words.word() >> 11) * UNIT)
                want = float(rng.uniform(lo, hi))
            else:
                p = float(plan.choice([0.0, 1.0, plan.random()]))
                name = f"random() >= {p}"
                got, want = words.word() >= word_cuts([p])[0], rng.random() >= p
            if got != want:
                return CheckResult("arrival-draws", False,
                                   f"seed {seed}, draw {k}: {name} gave {got}, numpy {want}")
    return CheckResult("arrival-draws", True, f"{seeds} seeds x {draws} interleaved draws clean")


def _routes(topo: Topology, node: int) -> list[tuple[int, ...]]:
    """Every route of node indices from ``node``: it stops at its last node,
    or that node is terminal."""
    if topo.is_terminal(node):
        return [(node,)]
    routes = [(node,)]
    for up in topo.uplinks(node):
        routes += [(node, *rest) for rest in _routes(topo, up)]
    return routes


def check_loss_sweep() -> CheckResult:
    """The backward sweep matches exhaustive route enumeration.

    On chains of depth 2-5, a 2-12-3-1 hierarchy and the 16-8-4-2-1 one,
    with random action distributions, local errors and queues, and from
    every node a job's oracle covers, the reach probability (mixed
    distribution), the expected loss (raw distribution) and the queue-free
    expected loss (the same with every queue at zero) are summed over every
    route. A middle layer of 10 or more nodes makes the id order of the
    destinations differ from their index order. The sweep then takes every
    draw's jobs at once as arrays, each job with its own entry, hop cost and
    queue, and must give each job's offload costs bit for bit.
    """
    layer_sizes = ([1, 1], [1, 1, 1], [1, 1, 1, 1], [1, 1, 1, 1, 1], [2, 12, 3, 1],
                   [16, 8, 4, 2, 1])
    rng = np.random.default_rng(3)
    v = 70.0
    for sizes in layer_sizes:
        topo = build_topology(sizes, [10.0] * len(sizes), 0.4)
        layers, dests = topo.layers, topo.dests
        jobs = []  # (records, queue row, hop cost, oracle) per entry and draw
        for _ in range(3):
            records = {}  # the job's NodeRecord at every non-terminal node
            for node in (i for layer in layers[:-1] for i in layer):
                w = rng.dirichlet(np.ones(len(dests[node]) + 1)).tolist()
                lam = float(rng.uniform(0.01, 0.3))
                records[node] = (int(rng.integers(2)), ActionDistribution(w, lam, 0))
            queue = {n: float(rng.uniform(0, 5)) for layer in layers[1:] for n in layer}
            queue_row = [queue.get(n, 0.0) for n in topo.nodes()]
            c = float(rng.uniform(0.5, 4))
            for entry in layers[0]:
                oracle = DownstreamLossOracle(layers, entry, dests, records, queue_row, v, c)
                jobs.append((records, queue_row, c, oracle))
                for node in (entry, *(i for layer in layers[1:] for i in layer)):
                    want = np.zeros(3)  # reach prob, expected loss, queue-free loss
                    for route in _routes(topo, node):
                        mixed, raw, hops = 1.0, 1.0, 0.0
                        for here, nxt in zip(route, route[1:]):
                            dist = records[here][1]
                            i = dests[here].index(nxt) + 1  # 0 terminates
                            mixed *= dist.mixed[i]
                            raw *= dist.raw[i]
                            hops += queue[nxt] * c
                        last = route[-1]
                        if topo.is_terminal(last):
                            want += (mixed, raw * hops, 0.0)
                        else:
                            local_error, dist = records[last]
                            raw *= dist.raw[0]
                            stop = v * local_error
                            want += (0.0, raw * (hops + stop), raw * stop)
                    got = (oracle.reach_prob(node), oracle.expected_loss(node),
                           oracle.expected_loss_decomposition(node))
                    if not np.allclose(got, want, rtol=1e-10, atol=1e-12):
                        topo_name = "-".join(map(str, sizes))
                        return CheckResult(
                            "loss-sweep", False,
                            f"{topo_name} at {topo.node(node)}: {got} != {tuple(want.tolist())}",
                        )
        records, queues, hop_costs, oracles = zip(*jobs)
        middle = [i for layer in layers[1:-1] for i in layer]
        offload = backward_sweep(
            layers, (), dests,
            {n: (np.array([r[n][0] for r in records], dtype=float),
                 np.array([r[n][1].raw for r in records]).T, None) for n in middle},
            np.array(queues).T, np.array(hop_costs), v,
        )[0]
        for j, oracle in enumerate(oracles):
            for node, cost in oracle.offload_cost.items():
                if offload[node][j] != cost:
                    return CheckResult(
                        "loss-sweep", False,
                        f"{'-'.join(map(str, sizes))}, job {j} at {topo.node(node)}: "
                        f"batched offload cost {offload[node][j]!r} != {cost!r}",
                    )
    return CheckResult("loss-sweep", True, f"{len(layer_sizes)} topologies clean")


def run_property_suite() -> list[CheckResult]:
    return [
        check_distribution_build(),
        check_arrival_draws(),
        check_loss_sweep(),
    ]
