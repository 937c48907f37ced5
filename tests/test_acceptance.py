"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The simulation-backed criteria share a session cache of full-scale runs
(20,000 jobs per seed); expect a few minutes on first use. Run with
``pytest tests/test_acceptance.py -v -s`` to watch the lines appear live.
"""
import csv
import math
import os
import tempfile

import numpy as np
import pytest

from hiroute.config import default_config
from hiroute.engine import run_experiment, run_single
from hiroute.losses import estimate, variance_pair
from hiroute.placement import PlacementContext, greedy_onload, marginal_gain, utility
from hiroute.workload import ErrorTable

SEEDS = [0, 1, 2, 3, 4]
TOPOLOGIES = {
    3: ([4, 2, 1], [30, 100, None]),
    4: ([8, 4, 2, 1], [30, 80, 200, None]),
    5: ([16, 8, 4, 2, 1], [30, 80, 150, 200, None]),
}


def _report(num: int, name: str, ok: bool, detail: str = "", failure: str = "") -> None:
    """Print the criterion's line; ``failure`` is added to the assertion
    message only, for details that differ from run to run."""
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num} ({name}): {detail}{failure}"


class RunCache:
    """Lazily executed, memoized full runs keyed by their distinguishing knobs."""

    def __init__(self):
        self._results: dict = {}

    def get(self, policy="vr_ly_exp4", placement="greedy", depth=3, seed=0,
            static_offload=None):
        key = (policy, placement, depth, seed, static_offload)
        if key in self._results:
            return self._results[key]
        cfg = default_config()
        cfg["policy"] = policy
        cfg["placement"]["kind"] = placement
        sizes, budgets = TOPOLOGIES[depth]
        cfg["topology"]["layer_sizes"] = sizes
        cfg["topology"]["memory_budgets"] = budgets
        if static_offload is not None:
            cfg["static"]["offload_prob"] = static_offload
        # only c08 reads the regret curve, from the depth-3 greedy vr_ly_exp4
        # runs; regret on or off writes the same metrics and other summary
        # fields (tests/test_engine.py checks this)
        cfg["run"]["record_regret"] = (policy, placement, depth) == ("vr_ly_exp4", "greedy", 3)
        with tempfile.TemporaryDirectory() as out:
            summary = run_single(cfg, seed, out).summary()
            with open(os.path.join(out, "metrics.csv"), newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
        # row t holds slot t; entropy is written with repr, so it reads back exactly
        entropy_at_10k = float(rows[10_000][rows[0].index("mean_entropy")])
        result = {"summary": summary, "entropy_at_10k": entropy_at_10k}
        self._results[key] = result
        return result

    def mean(self, metric, **kwargs):
        values = [getattr(self.get(seed=s, **kwargs)["summary"], metric) for s in SEEDS]
        return float(np.mean(values))


@pytest.fixture(scope="module")
def cache():
    return RunCache()


def test_c01_estimator_unbiasedness():
    import time

    start = time.monotonic()
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(10_000):
        f = float(rng.uniform(-50, 150))
        beta = float(rng.uniform(-50, 250))
        rho = float(rng.uniform(0.001, 1.0))
        expectation = rho * estimate(f, beta, rho, True) + (1 - rho) * estimate(
            f, beta, rho, False
        )
        worst = max(worst, abs(expectation - f))
    elapsed = time.monotonic() - start
    _report(1, "estimator-unbiasedness", worst < 1e-10 and elapsed < 1.0,
            f"max |E - f| = {worst:.2e}", f" in {elapsed:.2f}s")


def test_c02_variance_ordering():
    f = 1.0
    ok = True
    detail = ""
    for ratio in np.linspace(1e-6, 2.0, 200):
        for rho in np.linspace(0.005, 0.995, 200):
            var_naive, var_vr = variance_pair(f, ratio * f, float(rho))
            if var_vr > var_naive + 1e-12:
                ok = False
                detail = f"ordering violated at beta={ratio * f:.3f}, rho={rho:.3f}"
                break
        if not ok:
            break
    for boundary in (0.0, 2.0 * f):
        var_naive, var_vr = variance_pair(f, boundary, 0.25)
        if abs(var_naive - var_vr) > 1e-12:
            ok = False
            detail = f"no equality at beta={boundary}"
    rng = np.random.default_rng(7)
    fb = rng.random(100_000) < 0.25
    naive = np.where(fb, 1.0 / 0.25, 0.0)
    vr = np.where(fb, (1.0 - 0.8) / 0.25 + 0.8, 0.8)
    emp = (float(naive.var()), float(vr.var()))
    mc_ok = abs(emp[0] - 3.0) / 3.0 < 0.05 and abs(emp[1] - 0.12) / 0.12 < 0.05
    _report(2, "variance-ordering", ok and mc_ok,
            detail or f"grid clean; MC variances {emp[0]:.3f}/{emp[1]:.4f} vs 3.0/0.12")


def test_c03_queue_feasibility(cache):
    worst_cost = 0.0
    worst_q = 0.0
    for seed in SEEDS:
        summary = cache.get(policy="vr_ly_exp4", seed=seed)["summary"]
        worst_cost = max(worst_cost, max(summary.avg_cost.values()))
        worst_q = max(worst_q, max(summary.queue_over_horizon.values()))
    _report(3, "queue-feasibility", worst_cost <= 0.45 and worst_q < 0.02,
            f"max per-node avg cost {worst_cost:.4f} (<=0.45), max Q(T)/T {worst_q:.5f} (<0.02)")


def test_c04_comparison_orderings(cache):
    err = {p: cache.mean("error_rate", policy=p) for p in
           ("vr_ly_exp4", "vr_local_loss", "ly_exp4", "random", "round_robin", "pure_local")}
    hit = {p: cache.mean("hit_rate", policy=p) for p in
           ("vr_ly_exp4", "ly_exp4", "random", "round_robin", "pure_local")}
    static_err = min(err["random"], err["round_robin"], err["pure_local"])
    ordering = (err["vr_ly_exp4"] < err["vr_local_loss"] < err["ly_exp4"] < static_err)
    hits_ok = hit["vr_ly_exp4"] > hit["ly_exp4"]
    static_hit = max(hit["random"], hit["round_robin"], hit["pure_local"])
    _report(4, "comparison-orderings",
            ordering and hits_ok and static_hit < 0.01,
            f"err: vr {err['vr_ly_exp4']:.4f} < local-loss {err['vr_local_loss']:.4f} "
            f"< naive {err['ly_exp4']:.4f} < static {static_err:.4f}; "
            f"hit vr {hit['vr_ly_exp4']:.3f} > naive {hit['ly_exp4']:.3f}; "
            f"static hit {static_hit:.4f} (<0.01)")


def test_c05_feedback_depth_decay(cache):
    paper = {3: 0.0146, 4: 0.0017, 5: 0.0002}
    rates = {}
    for depth in (3, 4, 5):
        rates[depth] = cache.mean("feedback_rate", policy="random", depth=depth,
                                  static_offload=0.12)
    in_band = all(1 / 3 <= rates[d] / paper[d] <= 3 for d in rates)
    decades = [math.floor(math.log10(rates[d])) for d in (3, 4, 5)]
    decade_drop = decades[0] > decades[1] > decades[2]
    _report(5, "feedback-depth-decay", in_band and decade_drop,
            f"rates {rates[3]:.5f}/{rates[4]:.5f}/{rates[5]:.5f} vs "
            f"0.0146/0.0017/0.0002; decades {decades}")


def test_c06_recursion_oracles():
    from hiroute.topology import build_topology
    from tests.test_losses import Oracle, chain_views

    rng = np.random.default_rng(11)
    worst_rho = 0.0
    for depth in (2, 3, 4, 5):
        topo = build_topology([1] * depth, [10.0] * depth, 0.4)
        probs = {f"n{k}_0": float(rng.uniform(0.05, 0.95)) for k in range(1, depth)}
        oracle = Oracle(topo, chain_views(probs), {}, 70.0, 1.0)
        expected = float(np.prod(list(probs.values())))
        worst_rho = max(worst_rho, abs(oracle.reach_prob("n1_0") - expected))
    topo3 = build_topology([1, 1, 1], [10, 10, None], 0.4)
    worst_loss = 0.0
    for _ in range(200):
        p1, p2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
        b1, b2 = int(rng.integers(2)), int(rng.integers(2))
        q = {"n2_0": float(rng.uniform(0, 5)), "n3_0": float(rng.uniform(0, 5))}
        c = float(rng.uniform(0.5, 4))
        views = chain_views({"n1_0": p1, "n2_0": p2}, errors={"n1_0": b1, "n2_0": b2})
        oracle = Oracle(topo3, views, q, 70.0, c)
        brute = (
            (1 - p1) * 70.0 * b1
            + p1 * (q["n2_0"] * c + (1 - p2) * 70.0 * b2)
            + p1 * p2 * (q["n3_0"] * c)
        )
        worst_loss = max(worst_loss, abs(oracle.expected_loss("n1_0") - brute))
    _report(6, "recursion-oracles", worst_rho < 1e-12 and worst_loss < 1e-10,
            f"reach prob dev {worst_rho:.2e} (<1e-12), expected loss dev {worst_loss:.2e} (<1e-10)")


def test_c07_submodularity_and_greedy():
    rng = np.random.default_rng(29)
    violations = 0
    for _ in range(100):
        n, n_tasks = 5, int(rng.integers(2, 4))
        # drawn model by model: row i of the draw is model i's errors
        errors = rng.uniform(0, 1, (n, n_tasks)).T.copy()
        table = ErrorTable([f"t{j}" for j in range(n_tasks)], [f"m{i}" for i in range(n)],
                           [1.0] * n, errors)
        ctx = PlacementContext(rng.dirichlet(np.ones(n_tasks)), table, 0.0)
        for a_bits in range(2 ** n):
            a_set = {i for i in range(n) if a_bits >> i & 1}
            for b_bits in range(2 ** n):
                if a_bits & b_bits != a_bits:
                    continue
                b_set = {i for i in range(n) if b_bits >> i & 1}
                for m in range(n):
                    if m in b_set:
                        continue
                    if marginal_gain(ctx, m, a_set) < marginal_gain(ctx, m, b_set) - 1e-12:
                        violations += 1
    greedy_ok = True
    detail = ""
    for _ in range(500):
        n = int(rng.integers(3, 7))
        n_tasks = int(rng.integers(2, 4))
        errors = np.empty((n_tasks, n))
        sizes = []
        for i in range(n):  # each model's size, then its errors
            sizes.append(float(rng.integers(1, 4)))
            errors[:, i] = rng.uniform(0, 1, n_tasks)
        table = ErrorTable([f"t{j}" for j in range(n_tasks)], [f"m{i}" for i in range(n)],
                           sizes, errors)
        mix = rng.dirichlet(np.ones(n_tasks))
        prev = {i for i in range(n) if rng.random() < 0.3}
        ctx = PlacementContext(mix, table, float(rng.uniform(0, 0.15)), prev)
        budget = float(rng.integers(2, 9))
        got = utility(ctx, greedy_onload(ctx, budget))
        best = 0.0
        for bits in range(2 ** n):
            subset = [i for i in range(n) if bits >> i & 1]
            if sum(table.sizes[m] for m in subset) <= budget:
                best = max(best, utility(ctx, subset))
        if got < 0.5 * best - 1e-9 or got < best - 0.25 - 1e-9:
            greedy_ok = False
            detail = f"greedy {got:.4f} vs optimum {best:.4f}"
            break
    _report(7, "submodularity-and-greedy", violations == 0 and greedy_ok,
            detail or f"{violations} diminishing-returns violations; greedy within bounds on 500 instances")


def test_c08_sublinear_regret_trend(cache):
    early, late = [], []
    for seed in SEEDS:
        summary = cache.get(policy="vr_ly_exp4", seed=seed)["summary"]
        curve = summary.regret_curve
        gammas = curve["gamma"]
        i2k = gammas.index(2000)
        i20k = gammas.index(20000)
        early.append(curve["entry"][i2k] / 2000.0)
        late.append(curve["entry"][i20k] / 20000.0)
    early_mean, late_mean = float(np.mean(early)), float(np.mean(late))
    decrease = 1.0 - late_mean / early_mean
    _report(8, "sublinear-regret-trend", decrease >= 0.30,
            f"R/Gamma {early_mean:.2f} @2k -> {late_mean:.2f} @20k "
            f"({decrease * 100:.0f}% decrease, need >= 30%)")


def test_c09_entropy_decay(cache):
    vr = [cache.get(policy="vr_ly_exp4", seed=s)["entropy_at_10k"] for s in SEEDS]
    ly = [cache.get(policy="ly_exp4", seed=s)["entropy_at_10k"] for s in SEEDS]
    vr_mean, ly_mean = float(np.mean(vr)), float(np.mean(ly))
    _report(9, "entropy-decay", vr_mean <= ly_mean,
            f"mean entropy at slot 10000: vr {vr_mean:.4f} <= naive {ly_mean:.4f}")


def test_c10_placement_ablation(cache):
    err = {
        kind: cache.mean("error_rate", policy="vr_ly_exp4", placement=kind)
        for kind in ("greedy", "random_fixed", "layer_diverse")
    }
    ok = err["greedy"] < err["random_fixed"] < err["layer_diverse"]
    _report(10, "placement-ablation", ok,
            f"greedy {err['greedy']:.4f} < random-fixed {err['random_fixed']:.4f} "
            f"< layer-diverse {err['layer_diverse']:.4f}")


def test_c11_determinism(tmp_path):
    cfg = default_config()
    cfg["run"]["total_jobs"] = 2000
    cfg["run"]["seeds"] = [0]
    cfg["output_dir"] = str(tmp_path / "a")
    run_experiment(cfg)
    cfg["output_dir"] = str(tmp_path / "b")
    run_experiment(cfg)
    rel = "vr_ly_exp4_4-2-1_greedy_s0/metrics.csv"
    a = (tmp_path / "a" / rel).read_bytes()
    b = (tmp_path / "b" / rel).read_bytes()
    _report(11, "determinism", a == b,
            f"metrics.csv byte-identical across invocations ({len(a)} bytes)")
