"""The benchmark's workloads: full config overlays with fixed job counts.

Each job count is fixed here and never derived from a timing: ``total_jobs``
enters the default learning rate, so changing it changes what is simulated.
Every count crosses several placement epochs (``epoch_slots=500``) except
on burst3-learn, where 20 jobs per slot leave one epoch by design. A pass
lasts about a second on a 2-vCPU x86_64 host, so that a run holds some
twenty passes. The reason for each workload is in README.md.
"""
from __future__ import annotations

import copy
from typing import Any

DEPTH3 = {"layer_sizes": [4, 2, 1], "memory_budgets": [30, 100, None]}
DEPTH5 = {"layer_sizes": [16, 8, 4, 2, 1], "memory_budgets": [30, 80, 150, 200, None]}
GREEDY = {"kind": "greedy", "epoch_slots": 500}

WORKLOADS: dict[str, dict[str, Any]] = {
    # what `hiroute run {}` and most of the acceptance suite run
    "edge3-learn": {
        "topology": DEPTH3,
        "workload": {"mean_jobs_per_slot": 1.33},
        "policy": "vr_ly_exp4",
        "placement": GREEDY,
        "run": {"total_jobs": 4000, "record_regret": True},
    },
    # deep feedback, regret bypassed: the per-job learning core dominates
    "deep5-learn": {
        "topology": DEPTH5,
        "workload": {"mean_jobs_per_slot": 1.33},
        "policy": "vr_ly_exp4",
        "placement": GREEDY,
        "run": {"total_jobs": 3000, "record_regret": False},
    },
    # 20 jobs per slot: per-slot overhead amortised, queues saturated
    "burst3-learn": {
        "topology": DEPTH3,
        "workload": {"mean_jobs_per_slot": 20.0},
        "policy": "vr_ly_exp4",
        "placement": GREEDY,
        "run": {"total_jobs": 6000, "record_regret": True},
    },
    # acceptance c05's config: no policy or losses calls at all
    "deep5-static": {
        "topology": DEPTH5,
        "workload": {"mean_jobs_per_slot": 1.33},
        "policy": "random",
        "static": {"offload_prob": 0.12},
        "placement": GREEDY,
        "run": {"total_jobs": 6000, "record_regret": True},
    },
}


SEEDS_PER_RUN = 4


def seed_list(seed: int) -> list[int]:
    """The simulator seeds of one benchmark run. Untraced passes take them in
    turn, so a run's median spans several seeds' inputs."""
    return [seed * SEEDS_PER_RUN + i for i in range(SEEDS_PER_RUN)]


def overlay(
    name: str, seeds: list[int], output_dir: str | None, total_jobs: int | None = None
) -> dict[str, Any]:
    """The workload's config overlay for one pass over ``seeds``.

    ``total_jobs`` replaces the fixed job count; only the self-test's tiny
    smoke runs pass it.
    """
    cfg = copy.deepcopy(WORKLOADS[name])
    cfg["run"]["seeds"] = list(seeds)
    if total_jobs is not None:
        cfg["run"]["total_jobs"] = total_jobs
    cfg["output_dir"] = output_dir
    return cfg
