"""The slotted simulation loop.

One slot routes the arriving jobs layer by layer, then delivers feedback for
jobs that reached the terminal layer, accumulates estimator losses and
baselines, refreshes the expert weights once, updates the virtual queues from
the realized inbound costs, and emits one metrics row. Routing and learning
within a slot therefore see the slot-start weights. Placements refresh on a
fixed epoch grid when the greedy strategy is selected. All randomness flows
from the run seed, so a (config, seed) pair reproduces its metrics stream
byte for byte.

The core works on integers: node indices, task indices and model columns.
A job carries its sequence number, task index and entry node index; the
expert, baseline, regret and per-epoch placement tables and the epoch task
histograms are keyed by (node, task) index, and placements are sets of
model columns. Ids are looked up only where the catalog, the mixtures and
the trace are read, and where ``metrics.csv``, ``paths.jsonl``,
``placements.csv`` or ``summary.json`` is written. Every policy draws 0 to
terminate or i to offload to the node's i-th destination, so one loop routes
every job. Each placement epoch tables every (node, task)'s best-loaded
accuracy and selected model column, filled on first lookup, and a job keeps
one record per node it is evaluated at: local error and action
distribution. A slot draws its confidence noise in one call.
Learning builds no T×D matrix per job: a job's expert losses, baselines and
estimates at a node are ``(terminate, offload_row)`` pairs under its cut,
and the action distributions it reads are shared by every job of the slot
that has the same (node, task, cut).
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

import numpy as np

from .baselines import (
    LEARNING_KINDS,
    EstimatorVariant,
    StaticPolicyConfig,
    calibrate_offload_prob,
    static_action,
    variant_flags,
)
from .control import QueueState, drift_penalty_diagnostic
from .losses import BaselineTable, DownstreamLossOracle, NodeRecord, estimate
from .placement import (
    Placement,
    PlacementContext,
    baseline_placement,
    greedy_onload,
)
from .policy import DEFAULT_THRESHOLDS, ExpertGrid, ExpertTable
from .topology import Topology, build_topology
from .workload import (
    ArrivalModel,
    Job,
    TraceJobSampler,
    Workload,
    best_loaded_accuracy,
    confidence_from_noise,
    dirichlet_mixtures,
    empirical_error_prob,
    inference_error,
    load_trace,
    select_model,
    synthetic_catalog,
    VISION,
)


@dataclass
class PathRecord:
    """Realized routing of one job, as written to ``paths.jsonl``."""

    job_id: str
    slot: int
    task: str
    path: tuple[str, ...]
    exit_layer: int
    reached_oracle: bool
    size_units: float
    exit_error: int
    hard: bool


@dataclass
class RunSummary:
    """Seed-level aggregates mirroring the benchmark's comparison columns."""

    seed: int
    policy: str
    error_rate: float
    hit_rate: float | None  # None when the run saw no hard jobs
    feedback_rate: float
    avg_cost: dict[str, float]
    queue_over_horizon: dict[str, float]
    total_jobs: int
    total_slots: int
    final_mean_entropy: float
    regret_final: dict[str, dict[str, float]]
    regret_curve: dict[str, list[float]]
    baseline_condition_violations: int
    baseline_epoch_log: list[dict[str, Any]]

    def to_dict(self) -> dict[str, Any]:
        return dataclasses.asdict(self)


class RegretTracker:
    """Streaming hindsight regret per (node index, task index).

    Accumulates each job's realized loss contribution and the full-feedback
    losses of every expert; regret at a checkpoint is the realized sum minus
    the best fixed expert's sum so far (found by exhaustive enumeration).
    Sampling noise can make it negative; it is reported as-is. ``entries``
    holds the entry node indices, and ``rows`` is the number of thresholds of
    every expert grid.
    """

    def __init__(self, entries: set[int], checkpoints: Iterable[int], rows: int) -> None:
        self.entries = entries
        self.checkpoints = set(checkpoints)
        self.rows = rows
        self.realized: dict[tuple[int, int], float] = {}
        self.expert_sums: dict[tuple[int, int], np.ndarray] = {}
        self.jobs_seen = 0
        self.curve_gamma: list[int] = []
        self.curve_entry: list[float] = []
        self.curve_total: list[float] = []

    def add(
        self, node: int, task: int, realized: float, cut: int, terminate, offload
    ) -> None:
        """Add one job's realized loss and its experts' losses at a node:
        ``terminate`` for rows ``[:cut]``, ``offload`` for rows ``[cut:]``."""
        key = (node, task)
        self.realized[key] = self.realized.get(key, 0.0) + realized
        sums = self.expert_sums.get(key)
        if sums is None:
            sums = self.expert_sums[key] = np.empty((self.rows, np.shape(offload)[-1]))
            sums[:cut] = terminate
            sums[cut:] = offload
        else:
            sums[:cut] += terminate
            sums[cut:] += offload

    def job_done(self) -> None:
        """Count one job, and snapshot the regret curves at a checkpoint."""
        self.jobs_seen += 1
        if self.jobs_seen in self.checkpoints:
            entry_total = 0.0
            total = 0.0
            for key in self.realized:
                r = self.regret(*key)
                total += r
                if key[0] in self.entries:
                    entry_total += r
            self.curve_gamma.append(self.jobs_seen)
            self.curve_entry.append(entry_total)
            self.curve_total.append(total)

    def regret(self, node: int, task: int) -> float:
        key = (node, task)
        return self.realized[key] - float(self.expert_sums[key].min())

    def final_map(
        self, node_ids: tuple[str, ...], task_ids: tuple[str, ...]
    ) -> dict[str, dict[str, float]]:
        """Final regret per node id (``node_ids[node]``), then per task id."""
        out: dict[str, dict[str, float]] = {}
        for node, task in sorted(self.realized):
            out.setdefault(node_ids[node], {})[task_ids[task]] = self.regret(node, task)
        return out


def build_topology_from_config(cfg: Mapping[str, Any]) -> Topology:
    t = cfg["topology"]
    return build_topology(
        layer_sizes=t["layer_sizes"],
        memory_budgets=t["memory_budgets"],
        resource_budget=t["resource_budget"],
    )


def build_workload(cfg: Mapping[str, Any], topo: Topology, seed: int) -> Workload:
    """Assemble the per-seed job source described by the config.

    The task/model universe comes from the structure seed (identical across
    seeds); mixtures, arrival counts, correctness bits, sizes, and confidence
    noise come from the run seed.
    """
    w = cfg["workload"]
    # entry node indices come first; arrivals pick them in id order
    entry_ids = [n.node_id for n in topo.entry_nodes()]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    if w["kind"] == "synthetic":
        hard_count = w["hard_task_types"] if w["hard_task_fraction"] > 0 else 0
        tasks, modality, models, tiers = synthetic_catalog(
            num_task_types=w["num_task_types"],
            vision_fraction=w["vision_fraction"],
            hard_task_count=hard_count,
            medium_task_count=w["medium_task_types"],
            trap_task_count=w["trap_task_types"],
            model_pool=w["model_pool"],
            structure_seed=w["structure_seed"],
        )
        sampler = None
        hard_tasks = [t for t, tier in tiers.items() if tier == "hard"]
        # escalation-bound tiers carry short payloads; easy tasks span the
        # full per-modality range
        task_sizes = {}
        for t in tasks:
            if modality[t] == VISION:
                task_sizes[t] = tuple(w["vision_size_range"])
            elif tiers[t] in ("hard", "medium", "trap"):
                task_sizes[t] = tuple(w["escalation_size_range"])
            else:
                task_sizes[t] = tuple(w["text_size_range"])
    else:
        models, trace_jobs, modality = load_trace(w["trace_path"])
        sampler = TraceJobSampler(trace_jobs)
        tasks = sampler.tasks
        models = empirical_error_prob(models, trace_jobs, modality)
        hard_tasks = []
        task_sizes = {}  # trace jobs keep their recorded sizes
    mixtures = dirichlet_mixtures(
        tasks=tasks,
        hard_tasks=hard_tasks,
        num_entries=len(entry_ids),
        hard_fraction=w["hard_task_fraction"] if w["kind"] == "synthetic" else 0.0,
        alpha=w["mixture_concentration"],
        rng=rng,
    )
    arrivals = ArrivalModel(
        mean_jobs_per_slot=w["mean_jobs_per_slot"],
        task_mixture=mixtures,
    )
    hard_set = set(hard_tasks)
    hard_frac = w["hard_task_fraction"] if (w["kind"] == "synthetic" and hard_set) else 0.0
    design = np.zeros(len(tasks))
    for i, t in enumerate(tasks):
        if t in hard_set:
            design[i] = hard_frac / len(hard_set)
        else:
            design[i] = (1.0 - hard_frac) / max(1, len(tasks) - len(hard_set))
    return Workload(
        tasks=tasks,
        task_modality=modality,
        models=models,
        arrivals=arrivals,
        entry_order=sorted(range(len(entry_ids)), key=entry_ids.__getitem__),
        noise_std=w["confidence_noise_std"],
        task_size_ranges=task_sizes,
        seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(2,)).generate_state(1)[0]),
        design_mixture=design,
        job_sampler=sampler,
    )


def resolve_thresholds(cfg: Mapping[str, Any]) -> tuple[float, ...]:
    th = cfg["learning"]["thresholds"]
    return tuple(th) if th is not None else DEFAULT_THRESHOLDS


VR_RATE_SCALE = 0.1
NAIVE_RATE_SCALE = 0.0035


def resolve_learning_rate(cfg: Mapping[str, Any], max_grid_size: int) -> float:
    """Default learning rate, scaled per estimator.

    The horizon-optimal rate is proportional to sqrt(ln|experts| / jobs)
    divided by the square root of the estimator's variance proxy. The
    variance-reduced estimator's proxy sits near the squared loss scale,
    while the importance-weighted one carries the inverse reach probability
    of terminal feedback, so its rate is smaller by that typical factor.
    """
    lr = cfg["learning"]["learning_rate"]
    if lr is not None:
        return float(lr)
    total = cfg["run"]["total_jobs"]
    base = math.sqrt(math.log(max(2, max_grid_size)) / max(1, total))
    scale = NAIVE_RATE_SCALE if cfg["policy"] == "ly_exp4" else VR_RATE_SCALE
    return base * scale


class _PerTask(dict):
    """``fn(table, task, loaded)`` per task index of one node's loaded
    columns, computed on the task's first lookup."""

    __slots__ = ("fn", "table", "loaded")

    def __init__(self, fn, table, loaded: frozenset[int]) -> None:
        super().__init__()
        self.fn = fn
        self.table = table
        self.loaded = loaded

    def __missing__(self, task: int):
        value = self[task] = self.fn(self.table, task, self.loaded)
        return value


class _Run:
    """All mutable state for one (config, seed) simulation."""

    def __init__(self, cfg: Mapping[str, Any], seed: int, out_dir: str | None) -> None:
        self.seed = seed
        self.policy = cfg["policy"]
        self.learning = self.policy in LEARNING_KINDS
        self.topo = build_topology_from_config(cfg)
        self.workload = build_workload(cfg, self.topo, seed)
        self.error_table = self.workload.error_table
        self.task_ids = self.workload.tasks
        # node tables: the core works on node indices; destinations are in
        # uplinks order, the order of every expert grid and action distribution
        self.node_ids, self.layers, self.dests = self.topo.index_tables()
        self.layer_of = [k for k, layer in enumerate(self.layers, start=1) for _ in layer]
        self.terminal = frozenset(self.layers[-1])
        # the nodes every loss sweep reads besides the entry
        self.middle = tuple(i for layer in self.layers[1:-1] for i in layer)
        self.noise_std = self.workload.noise_std
        self.v = float(cfg["learning"]["error_weight"])
        self.distance_factor = float(cfg["run"]["distance_factor"])
        self.rng_route = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(3,))
        )
        self.queues = QueueState.initial(self.topo)
        # per node index; entry nodes have neither a budget nor a queue
        self.budgets = [self.topo.resource_budget.get(n, 0.0) for n in self.node_ids]
        # per node index; None at the unbounded terminal nodes
        self.memory_budgets = [self.topo.memory_budget.get(n) for n in self.node_ids]
        # the queued nodes in output order (by id, n2_10 before n2_2): the
        # metrics.csv columns and the summary's cost and queue maps
        self.queued_by_id = tuple(sorted(self.queues.nodes, key=self.node_ids.__getitem__))
        self.epoch_slots = int(cfg["placement"]["epoch_slots"])
        self.switch_penalty = float(cfg["placement"]["switch_penalty"])
        self.placement_kind = cfg["placement"]["kind"]
        self.placement = Placement(loaded=[frozenset()] * len(self.node_ids))
        # (epoch slot, node index, loaded columns) per node and epoch
        self.placement_log: list[tuple[int, int, frozenset[int]]] = []
        self._new_histogram()
        self._first_epoch_done = False

        if self.placement_kind in ("random_fixed", "layer_diverse"):
            self.placement = baseline_placement(
                self.placement_kind,
                self.topo,
                self.error_table,
                seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(4,)).generate_state(1)[0]),
            )
            self.placement_log += [(0, i, m) for i, m in enumerate(self.placement.loaded)]
        self._index_placement()

        self.variant: EstimatorVariant | None = None
        self.table: ExpertTable | None = None
        self.baselines: BaselineTable | None = None
        self.static_cfg: StaticPolicyConfig | None = None
        if self.learning:
            self.variant = variant_flags(self.policy)
            thresholds = resolve_thresholds(cfg)
            grids = {
                i: ExpertGrid(thresholds, dests) for i, dests in enumerate(self.dests) if dests
            }
            max_size = max(g.size for g in grids.values())
            self.table = ExpertTable(
                grids=grids,
                num_tasks=len(self.task_ids),
                learning_rate=resolve_learning_rate(cfg, max_size),
                exploration_rate=cfg["learning"]["exploration_rate"],
            )
            self.baselines = BaselineTable(
                grids=grids,
                num_tasks=len(self.task_ids),
                ema_rate=cfg["learning"]["baseline_ema_rate"],
            )
        else:
            prob = cfg["static"]["offload_prob"]
            if prob is None:
                prob = calibrate_offload_prob(
                    self.topo, self.workload.stats(), cfg["topology"]["resource_budget"]
                )
            self.static_cfg = StaticPolicyConfig(kind=self.policy, offload_prob=float(prob))

        self.record_regret = bool(cfg["run"]["record_regret"]) and self.learning
        self.record_paths = bool(cfg["run"]["record_paths"])
        total = cfg["run"]["total_jobs"]
        step = max(1, total // 10)
        self.regret = RegretTracker(
            set(self.layers[0]), {*range(step, total + 1, step), total},
            len(resolve_thresholds(cfg)),
        )
        self.baseline_epoch_log: list[dict[str, Any]] = []

        # Totals
        self.total_jobs_done = 0
        self.total_errors = 0
        self.total_hard = 0
        self.total_hits = 0
        self.total_feedback = 0
        self.total_cost = [0.0] * len(self.node_ids)
        self.slots_run = 0

        self.out_dir = out_dir
        self._metrics_writer: csv.writer | None = None
        self._metrics_file = None
        self._paths_file = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            self._metrics_file = open(
                os.path.join(out_dir, "metrics.csv"), "w", newline="", encoding="utf-8"
            )
            self._metrics_writer = csv.writer(self._metrics_file)
            self._metrics_writer.writerow(self.metrics_header())
            if self.record_paths:
                self._paths_file = open(
                    os.path.join(out_dir, "paths.jsonl"), "w", encoding="utf-8"
                )

    # ---- naming helpers -------------------------------------------------
    def metrics_header(self) -> list[str]:
        return (
            ["slot", "jobs", "errors", "hard_jobs", "oracle_hits", "feedback",
             "mean_entropy", "drift_penalty"]
            + [f"cost_{self.node_ids[n]}" for n in self.queued_by_id]
            + [f"queue_{self.node_ids[n]}" for n in self.queued_by_id]
        )

    # ---- placement ------------------------------------------------------
    def maybe_onload(self, t: int) -> None:
        if t % self.epoch_slots == 1 and self.baselines is not None and t > 1:
            self.baseline_epoch_log.append({
                "slot": t,
                "mean_local_error_estimate": self.baselines.mean_local_error(),
                "condition_violations": self.baselines.condition_violations,
            })
        if self.placement_kind != "greedy":
            return
        if t % self.epoch_slots != 1:
            return
        everything = frozenset(range(len(self.error_table.models)))
        new_loaded: list[frozenset[int]] = []
        for i, budget in enumerate(self.memory_budgets):
            if i in self.terminal:
                new_loaded.append(frozenset())
                continue
            ctx = PlacementContext(
                mixture=self._mixture_for(i),
                error_table=self.error_table,
                switch_penalty=self.switch_penalty,
                previous=self.placement.loaded[i] if self._first_epoch_done else everything,
            )
            chosen = greedy_onload(ctx, budget)
            new_loaded.append(chosen)
            self.placement_log.append((t, i, chosen))
        self.placement = Placement(loaded=new_loaded)
        self.placement.check_feasible(self.memory_budgets, self.error_table.sizes)
        self._index_placement()
        self._first_epoch_done = True
        self._new_histogram()

    def _index_placement(self) -> None:
        """Best-loaded accuracy and selected model per (node, task), for the
        current placement: a job's confidence centre and local error at a
        node depend only on these and on the job's own draws. Each entry is
        computed on its first lookup in the epoch."""
        table = self.error_table
        loaded = self.placement.loaded
        self.accuracy = [_PerTask(best_loaded_accuracy, table, m) for m in loaded]
        self.selected = [_PerTask(select_model, table, m) for m in loaded]

    def _new_histogram(self) -> None:
        """Zero the epoch's arrival counts per (node, task) index."""
        self._epoch_histogram = [[0] * len(self.task_ids) for _ in self.node_ids]

    def _mixture_for(self, node: int) -> np.ndarray:
        """The task mixture a node's placement plans for: the arrival mixture
        at an entry node, else the epoch's arrivals (uniform if none)."""
        if node in self.layers[0]:
            return self.workload.arrivals.task_mixture[node]
        counts = self._epoch_histogram[node]
        total = sum(counts)
        if not total:
            return np.full(len(counts), 1.0 / len(counts))
        return np.array(counts) / total

    # ---- per-job node records ----------------------------------------------
    def _evaluate(self, job: Job, node: int, noise: list[float]) -> NodeRecord:
        """The job's record at a non-terminal node: local error and the
        slot-start action distribution at the job's confidence."""
        task = job.task
        z = confidence_from_noise(self.accuracy[node][task], noise[node], self.noise_std)
        b = inference_error(job, self.selected[node][task])
        return b, self.table.action_probs(node, task, z)

    # ---- the slot loop ----------------------------------------------------
    def run_slot(self, t: int, jobs: list[Job]) -> None:
        """Route, learn from and account for one slot's jobs, then update the
        queues and write the slot's metrics row."""
        self.maybe_onload(t)
        # the queue values: learning and the drift diagnostic read them at
        # their slot-start values, before apply_slot updates them in place
        queue = self.queues.values
        costs = [0.0] * len(self.node_ids)
        slot_errors = 0
        slot_hard = 0
        slot_hits = 0
        slot_feedback = 0

        routed = []
        slot_noise = self.workload.confidence_noise(len(jobs), len(self.node_ids)).tolist()
        for job, noise in zip(jobs, slot_noise):
            path, exit_error, records = self._route(job, noise)
            hop_cost = job.size_units * self.distance_factor
            for dest in path[1:]:
                costs[dest] += hop_cost
            reached = path[-1] in self.terminal
            hard = job.is_hard()
            slot_errors += exit_error
            slot_hard += int(hard)
            slot_hits += int(hard and reached)
            slot_feedback += int(reached)
            routed.append((job, path, reached, noise, records))
            if self._paths_file is not None:
                self._write_path(t, job, path, reached, exit_error, hard)

        if self.learning:
            for job, path, reached, noise, records in routed:
                self._learn_from(job, path, reached, noise, records, queue)
                if self.record_regret:
                    self.regret.job_done()
            self.table.refresh_dirty()

        drift = drift_penalty_diagnostic(queue, costs, self.queues.nodes, slot_errors, self.v)
        self.queues.apply_slot(costs, self.budgets)
        for n in self.queues.nodes:
            self.total_cost[n] += costs[n]
        self.total_jobs_done += len(jobs)
        self.total_errors += slot_errors
        self.total_hard += slot_hard
        self.total_hits += slot_hits
        self.total_feedback += slot_feedback
        self.slots_run = t

        entropy = self.table.mean_entropy() if self.table is not None else 0.0
        if self._metrics_writer is not None:
            self._metrics_writer.writerow(
                [t, len(jobs), slot_errors, slot_hard, slot_hits, slot_feedback,
                 repr(entropy), repr(drift)]
                + [repr(costs[n]) for n in self.queued_by_id]
                + [repr(queue[n]) for n in self.queued_by_id]
            )

    def _write_path(
        self, t: int, job: Job, path: list[int], reached: bool, exit_error: int, hard: bool
    ) -> None:
        """Write the job's line of ``paths.jsonl``, with ids for indices."""
        record = PathRecord(
            job_id=f"j{job.seq:07d}",
            slot=t,
            task=self.task_ids[job.task],
            path=tuple(self.node_ids[i] for i in path),
            exit_layer=self.layer_of[path[-1]],
            reached_oracle=reached,
            size_units=job.size_units,
            exit_error=exit_error,
            hard=hard,
        )
        self._paths_file.write(json.dumps(dataclasses.asdict(record), sort_keys=True) + "\n")

    def _route(
        self, job: Job, noise: list[float]
    ) -> tuple[list[int], int, dict[int, NodeRecord]]:
        """Route one job; return its node path, its exit error and, for a
        learning policy, its record at every node it visited."""
        node = job.entry
        task = job.task
        path: list[int] = []
        records: dict[int, NodeRecord] = {}
        while True:
            path.append(node)
            if node in self.terminal:
                return path, 0, records
            if self.layer_of[node] > 1:
                self._epoch_histogram[node][task] += 1
            if self.learning:
                records[node] = record = self._evaluate(job, node, noise)
                action = record[1].sample(self.rng_route)
            else:
                action = static_action(
                    self.static_cfg, node, len(self.dests[node]), self.rng_route
                )
            if action == 0:
                return path, inference_error(job, self.selected[node][task]), records
            node = self.dests[node][action - 1]

    def _learn_from(
        self, job: Job, path: list[int], fb: bool, noise: list[float],
        records: dict[int, NodeRecord], queue: list[float],
    ) -> None:
        assert self.table is not None and self.baselines is not None
        variant = self.variant
        task = job.task
        hop_cost = job.size_units * self.distance_factor
        oracle = None
        if fb or self.record_regret:
            for node in (path[0], *self.middle):
                if node not in records:
                    records[node] = self._evaluate(job, node, noise)
            oracle = DownstreamLossOracle(
                self.layers, path[0], self.dests, records, queue, self.v, hop_cost
            )
        visited = path[:-1] if fb else path
        for i, node in enumerate(visited):
            dests = self.dests[node]
            local_error, dist = records[node]
            cut = dist.cut
            beta = (0.0, 0.0)
            if variant.use_baseline:
                beta = self.baselines.plugin_values(
                    node, task, cut,
                    np.array([queue[d] for d in dests]), hop_cost=hop_cost,
                    error_weight=self.v, zero_downstream=variant.zero_downstream,
                )
            losses = (None, None)
            rho = None
            if fb:
                rho = oracle.reach_prob(node)
                losses = oracle.expert_loss_matrix(node, variant.zero_downstream)
                if variant.use_baseline:
                    self.baselines.count_violations(node, cut, beta, losses)
            # an importance-weighted job without feedback adds nothing
            if fb or variant.use_baseline:
                self.table.accumulate_loss(
                    node, task, cut,
                    estimate(losses[0], beta[0], rho, fb),
                    estimate(losses[1], beta[1], rho, fb),
                )
            if fb and variant.use_baseline:
                down_base = np.array([oracle.expected_loss_decomposition(d) for d in dests])
                self.baselines.update_hidden(node, task, local_error, down_base)
            if self.record_regret:
                if not fb or variant.zero_downstream:
                    losses = oracle.expert_loss_matrix(node)
                # the realized loss of the action taken here: stop, or offload
                # to the next node of the path
                if i + 1 < len(path):
                    realized = oracle.offload_cost[path[i + 1]]
                else:
                    realized = self.v * local_error
                self.regret.add(node, task, realized, cut, *losses)

    # ---- finalization -----------------------------------------------------
    def summary(self) -> RunSummary:
        slots = max(1, self.slots_run)
        return RunSummary(
            seed=self.seed,
            policy=self.policy,
            error_rate=self.total_errors / max(1, self.total_jobs_done),
            hit_rate=(self.total_hits / self.total_hard) if self.total_hard else None,
            feedback_rate=self.total_feedback / max(1, self.total_jobs_done),
            avg_cost={self.node_ids[n]: self.total_cost[n] / slots for n in self.queued_by_id},
            queue_over_horizon={
                self.node_ids[n]: self.queues.values[n] / slots for n in self.queued_by_id
            },
            total_jobs=self.total_jobs_done,
            total_slots=self.slots_run,
            final_mean_entropy=(
                self.table.mean_entropy() if self.table is not None else 0.0
            ),
            regret_final=(
                self.regret.final_map(self.node_ids, self.task_ids) if self.record_regret else {}
            ),
            regret_curve={
                "gamma": list(self.regret.curve_gamma),
                "entry": list(self.regret.curve_entry),
                "total": list(self.regret.curve_total),
            } if self.record_regret else {},
            baseline_condition_violations=(
                self.baselines.condition_violations if self.baselines else 0
            ),
            baseline_epoch_log=list(self.baseline_epoch_log),
        )

    def close(self) -> None:
        if self._metrics_file is not None:
            self._metrics_file.close()
        if self._paths_file is not None:
            self._paths_file.close()
        if self.out_dir is not None:
            with open(os.path.join(self.out_dir, "placements.csv"), "w",
                      newline="", encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["epoch_slot", "node_id", "model_ids"])
                ids = self.error_table.model_ids
                for slot, node, loaded in self.placement_log:
                    columns = self.error_table.in_id_order(loaded)
                    writer.writerow([slot, self.node_ids[node], "|".join(ids[c] for c in columns)])
            with open(os.path.join(self.out_dir, "summary.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(self.summary().to_dict(), fh, indent=2, sort_keys=True)


def run_single(cfg: Mapping[str, Any], seed: int, out_dir: str | None = None) -> _Run:
    """Run one seed to completion and return the closed run state.

    A nonpositive arrival rate is rejected before any output file is opened.
    """
    if cfg["workload"]["mean_jobs_per_slot"] <= 0:
        raise ValueError("mean_jobs_per_slot must be positive to run an experiment")
    run = _Run(cfg, seed, out_dir)
    total = int(cfg["run"]["total_jobs"])
    t = 0
    while run.total_jobs_done < total:
        t += 1
        jobs = run.workload.generate_slot(t)
        remaining = total - run.total_jobs_done
        if len(jobs) > remaining:
            jobs = jobs[:remaining]
        run.run_slot(t, jobs)
    run.close()
    return run


def run_experiment(cfg: Mapping[str, Any]) -> list[RunSummary]:
    """Run every configured seed and return one summary per seed."""
    summaries = []
    out_root = cfg.get("output_dir")
    for seed in cfg["run"]["seeds"]:
        out_dir = None
        if out_root:
            out_dir = os.path.join(out_root, run_id(cfg, seed))
        run = run_single(cfg, seed, out_dir)
        summaries.append(run.summary())
    return summaries


def run_id(cfg: Mapping[str, Any], seed: int) -> str:
    sizes = "-".join(str(s) for s in cfg["topology"]["layer_sizes"])
    return f"{cfg['policy']}_{sizes}_{cfg['placement']['kind']}_s{seed}"
