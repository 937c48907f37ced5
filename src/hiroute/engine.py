"""The slotted simulation loop.

One slot routes the arriving jobs layer by layer, then delivers feedback for
jobs that reached the terminal layer, accumulates estimator losses and
baselines, updates the virtual queues from the realized inbound costs, and
ends by queueing the refresh of every expert table it touched. Routing and
learning within a slot therefore see the slot-start weights. The queued
refreshes are computed in one batch when one of their tables is next read,
when the regret log settles, and every :data:`ROW_BUFFER` slots. A learning
run's metrics rows wait for their slots' mean entropies, and are written at
those every-:data:`ROW_BUFFER`-slot batches and at close; a static run's
rows are written at once.
Placements refresh on a fixed epoch grid when the greedy strategy is
selected. All randomness flows from the run seed, so a (config, seed) pair
reproduces its metrics stream byte for byte.

The core works on integers: node indices, task indices and model columns,
from the tables ``build_topology`` and ``workload.build_workload`` build
once per run; ids are looked up only where an output file is written. Every
policy draws 0 to terminate or i to offload to the node's i-th destination,
so one loop routes every job. A job keeps one record per node it is
evaluated at, its local error and action distribution, and its expert
losses, baselines and estimates at a node are ``(terminate, offload_row)``
pairs under its cut. Only a job that gave feedback gets a per-job loss
sweep, which evaluates it at the middle nodes it skipped. With
``run.record_regret`` on, every job's inputs are logged for the regret
diagnostic, which derives its records in bulk when it settles the log.
"""
from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

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
from .losses import (
    BaselineTable,
    DownstreamLossOracle,
    NodeRecord,
    backward_sweep,
    estimate,
)
from .placement import (
    Placement,
    PlacementContext,
    baseline_placement,
    greedy_onload,
)
from .policy import DEFAULT_THRESHOLDS, ExpertGrid, ExpertTable, raw_rows
from .topology import build_topology
from .workload import (
    Job,
    best_loaded_accuracy,
    build_workload,
    confidence_from_noise,
    inference_error,
    select_model,
)


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
    """Hindsight regret per (node index, task index), settled in job batches.

    Each job's realized loss at a node it visited is set against the
    full-feedback losses of every expert there; regret at a checkpoint is the
    realized sum minus the best fixed expert's sum so far (found by
    exhaustive enumeration). Sampling noise can make it negative; it is
    reported as-is. ``layers`` and ``dests`` are the topology's node tables,
    ``thresholds`` the threshold grid of every table of the expert table
    ``table``, and ``noise_std`` the confidence noise scale.

    :meth:`add` only logs what a job's losses depend on, and evaluates
    nothing. :meth:`settle` derives every logged job's cut and local error at
    every node, and its raw row at every middle node, in numpy with the bits
    of :meth:`_Run._evaluate`; runs one :func:`backward_sweep` over the jobs;
    and adds their losses into the sums with ``np.add.at``, which applies
    repeated rows in index order, so each sum adds its jobs one at a time in
    job order. :meth:`job_done` settles at every checkpoint and whenever
    :attr:`LOG_CAP` jobs are logged. Fan-out is full, so a layer's nodes
    share one destination tuple and a path's k-th node is in layer k: each
    non-terminal layer has one sums table, with one row per (node, task) of
    the layer, its realized sum, then its expert sums row-major, and a
    settle adds each layer's visits, column k of the padded paths, in one
    block. A layer no logged job reached adds an empty block.
    """

    LOG_CAP = 1024

    def __init__(
        self, layers: tuple[tuple[int, ...], ...], dests: tuple[tuple[int, ...], ...],
        error_weight: float, checkpoints: Iterable[int], thresholds: Sequence[float],
        noise_std: float, table: ExpertTable,
    ) -> None:
        self.layers = layers
        self.dests = dests
        self.error_weight = float(error_weight)
        self.entries = set(layers[0])
        self.checkpoints = set(checkpoints)
        self.rows = rows = len(thresholds)
        self.thresholds = np.array(thresholds, dtype=float)
        self.noise_std = noise_std
        self.num_tasks = table.num_tasks
        self.table = table
        # per non-terminal layer, each expert's threshold row and destination,
        # row-major: the columns of a visit's expert losses; and its sums
        # table, one row per (node, task) of the layer. Per node index, the
        # position of its first row in its layer's table
        self._by_layer = []
        self._row_of = np.zeros(len(dests), np.intp)
        for layer in layers[:-1]:
            targets = dests[layer[0]]
            self._row_of[list(layer)] = np.arange(len(layer)) * self.num_tasks
            expert_row = np.repeat(np.arange(rows), len(targets))
            sums = np.zeros((len(layer) * self.num_tasks, 1 + len(expert_row)))
            self._by_layer.append((expert_row, np.tile(targets, rows), sums))
        # each visited key's row, in first-visit order
        self._sums: dict[tuple[int, int], np.ndarray] = {}
        self.jobs_seen = 0
        self.curve_gamma: list[int] = []
        self.curve_entry: list[float] = []
        self.curve_total: list[float] = []
        # the log, in flat lists of Python objects: per job its task, hop
        # cost, queue snapshot, placement epoch, noise row, correctness bits
        # and path padded with -1 to one node per layer; per middle node
        # the snapshot of each job's slot-start weights, read from the
        # node's tables by task
        self._tasks: list[int] = []
        self._hop_costs: list[float] = []
        self._queues: list[tuple[float, ...]] = []
        self._epochs: list[tuple[np.ndarray, np.ndarray]] = []
        self._noise: list[float] = []
        self._bits: list[int] = []
        self._paths: list[int] = []
        self._padding = [(-1,) * (len(layers) - k) for k in range(len(layers) + 1)]
        self._weights = {
            node: ([], table.entries(node)) for layer in layers[1:-1] for node in layer
        }

    def add(
        self, task: int, path: list[int], noise: list[float], bits: Sequence[int],
        hop_cost: float, queue: tuple[float, ...], epoch: tuple[np.ndarray, np.ndarray],
    ) -> None:
        """Log one job: its task, node path, unit confidence noise by node
        index, correctness bits by model column, hop cost, slot-start queue
        and placement epoch, and every middle node's current weights
        snapshot for its task. Each refresh makes a new snapshot, and the
        batch that computes it fills it with an array nobody writes into, so
        a snapshot taken before the slot's refresh holds the slot-start
        weights once computed. ``epoch`` is a pair of arrays indexed by node
        index, then task index: the best-loaded accuracy and the selected
        model column, -1 for none, which reads the zero column appended to
        the bits. Neither ``queue`` nor ``epoch`` may change afterwards;
        jobs of one slot share the one, jobs of one placement epoch the
        other."""
        self._tasks.append(task)
        self._hop_costs.append(hop_cost)
        self._queues.append(queue)
        self._epochs.append(epoch)
        self._noise += noise
        self._bits += bits
        self._paths += path
        self._paths += self._padding[len(path)]
        for refs, tables in self._weights.values():
            refs.append(tables[task].snapshot)

    def _cuts_and_errors(
        self, jobs_logged: int, tasks: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every logged job's cut and local error at every node, one row per
        job: ``bisect_right(thresholds, clamp(accuracy + noise_std · noise))``
        and ``1 - bit`` of the selected column, or 1 where none is."""
        n = len(self.dests)
        epochs, epoch_of = _distinct(self._epochs)
        accuracy, selected = map(np.stack, zip(*epochs))
        at = (epoch_of[:, None], np.arange(n), tasks[:, None])
        noise = _floats(self._noise).reshape(jobs_logged, n)
        z = np.clip(accuracy[at] + self.noise_std * noise, 0.0, 1.0)
        cuts = np.searchsorted(self.thresholds, z, side="right")
        models = len(self._bits) // jobs_logged
        bits = np.zeros((jobs_logged, models + 1), np.uint8)
        bits[:, :models] = np.frombuffer(bytes(self._bits), np.uint8).reshape(jobs_logged, -1)
        errors = 1.0 - bits[np.arange(jobs_logged)[:, None], selected[at]]
        return cuts, errors

    def settle(self) -> None:
        """Add every logged job's losses to the sums and empty the log."""
        jobs_logged = len(self._tasks)
        if not jobs_logged:
            return
        # the logged snapshots' weights are computed by now
        self.table.flush()
        tasks = np.fromiter(self._tasks, np.intp, jobs_logged)
        queues, queue_of = _distinct(self._queues)
        queues = np.array(queues, dtype=float)[queue_of]
        cuts, errors = self._cuts_and_errors(jobs_logged, tasks)
        middle = {}
        for node, (refs, _) in self._weights.items():
            # every cut's raw row of each distinct weights array, then each
            # job's row at its cut
            snapshots, which = _distinct(refs)
            raw = raw_rows(np.stack([s.value for s in snapshots]))
            middle[node] = (errors[:, node], raw[which, cuts[:, node]].T, None)
        offload = backward_sweep(
            self.layers, (), self.dests, middle, queues.T, _floats(self._hop_costs),
            self.error_weight,
        )[0]
        # each logged job's offload cost by node index; entry nodes are zero
        costs = np.zeros_like(queues)
        for node, cost in offload.items():
            costs[:, node] = cost
        # a path's k-th node is in layer k, padded with -1 where the job
        # stopped: layer k's visits in job order are column k's nodes, each
        # with the next node, or -1
        paths = np.fromiter(self._paths, np.intp, len(self._paths)).reshape(jobs_logged, -1)
        for k, (expert_row, expert_dest, table) in enumerate(self._by_layer):
            j = np.flatnonzero(paths[:, k] >= 0)
            nodes = paths[j, k]
            nxt = paths[j, k + 1]
            terminate = self.error_weight * errors[j, nodes]
            block = np.empty((len(j), 1 + len(expert_row)))
            block[:, 0] = np.where(nxt >= 0, costs[j, nxt], terminate)
            # rows [:cut] terminate, rows [cut:] offload
            block[:, 1:] = np.where(
                expert_row < cuts[j, nodes][:, None], terminate[:, None],
                costs[j[:, None], expert_dest],
            )
            np.add.at(table, self._row_of[nodes] + tasks[j], block)
        # new keys enter in first-visit order, job then path, as the
        # checkpoint sums read them
        jobs, at = np.nonzero(paths[:, :-1] >= 0)
        keys = paths[jobs, at] * self.num_tasks + tasks[jobs]
        _, first = np.unique(keys, return_index=True)
        first.sort()
        for key, k in zip(keys[first].tolist(), at[first].tolist()):
            node, task = divmod(key, self.num_tasks)
            if (node, task) not in self._sums:
                self._sums[node, task] = self._by_layer[k][2][self._row_of[node] + task]
        for log in (self._tasks, self._hop_costs, self._queues, self._epochs, self._noise,
                    self._bits, self._paths, *(refs for refs, _ in self._weights.values())):
            log.clear()

    def job_done(self) -> None:
        """Count one job; settle at a checkpoint or a full log, and snapshot
        the regret curves at a checkpoint."""
        self.jobs_seen += 1
        checkpoint = self.jobs_seen in self.checkpoints
        if checkpoint or len(self._tasks) >= self.LOG_CAP:
            self.settle()
        if checkpoint:
            entry_total = 0.0
            total = 0.0
            for key in self._sums:
                r = self.regret(*key)
                total += r
                if key[0] in self.entries:
                    entry_total += r
            self.curve_gamma.append(self.jobs_seen)
            self.curve_entry.append(entry_total)
            self.curve_total.append(total)

    def regret(self, node: int, task: int) -> float:
        sums = self._sums[(node, task)]
        return float(sums[0]) - float(np.minimum.reduce(sums[1:]))

    def final_map(
        self, node_ids: tuple[str, ...], task_ids: tuple[str, ...]
    ) -> dict[str, dict[str, float]]:
        """Final regret per node id (``node_ids[node]``), then per task id."""
        self.settle()
        out: dict[str, dict[str, float]] = {}
        for node, task in sorted(self._sums):
            out.setdefault(node_ids[node], {})[task_ids[task]] = self.regret(node, task)
        return out


def _floats(values: list[float]) -> np.ndarray:
    """A list of Python numbers as a float array."""
    return np.fromiter(values, float, len(values))


def _distinct(refs: list) -> tuple[list, np.ndarray]:
    """The distinct objects of ``refs`` by identity, and each entry's
    position among them. The log keeps every object alive, so no two of
    them share an id."""
    ids = np.fromiter(map(id, refs), np.intp, len(refs))
    _, first, which = np.unique(ids, return_index=True, return_inverse=True)
    return [refs[i] for i in first.tolist()], which


def resolve_thresholds(cfg: Mapping[str, Any]) -> tuple[float, ...]:
    th = cfg["learning"]["thresholds"]
    return tuple(th) if th is not None else DEFAULT_THRESHOLDS


# the most slot ends, and metrics rows, that wait for a batch of weight
# refreshes
ROW_BUFFER = 64

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


class _Run:
    """All mutable state for one (config, seed) simulation."""

    def __init__(self, cfg: Mapping[str, Any], seed: int, out_dir: str | None) -> None:
        self.seed = seed
        self.policy = cfg["policy"]
        self.learning = self.policy in LEARNING_KINDS
        self.record_regret = bool(cfg["run"]["record_regret"]) and self.learning
        topo = self.topo = build_topology(**cfg["topology"])
        self.workload = build_workload(cfg, topo, seed)
        self.error_table = self.workload.error_table
        self.task_ids = self.error_table.tasks
        # the topology's node tables, read by node index in the slot loop
        self.node_ids, self.layers, self.dests = topo.node_ids, topo.layers, topo.dests
        self.layer_of = topo.node_layer
        self.terminal = frozenset(topo.terminal_nodes())
        self.noise_std = self.workload.noise_std
        self.v = float(cfg["learning"]["error_weight"])
        self.distance_factor = float(cfg["run"]["distance_factor"])
        self.rng_route = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(3,))
        )
        self.queues = QueueState.initial(topo)
        # the queued nodes in output order (by id, n2_10 before n2_2): the
        # metrics.csv columns and the summary's cost and queue maps
        self.queued_by_id = tuple(sorted(self.queues.nodes, key=topo.node))
        self.epoch_slots = int(cfg["placement"]["epoch_slots"])
        self.switch_penalty = float(cfg["placement"]["switch_penalty"])
        self.placement_kind = cfg["placement"]["kind"]
        self.placement = Placement(loaded=[frozenset()] * topo.num_nodes)
        # (epoch slot, node index, loaded columns) per node and epoch
        self.placement_log: list[tuple[int, int, frozenset[int]]] = []
        # greedy_onload's result per (budget, previous columns, mixture
        # bytes), and the accuracy and selected-model lookups per loaded set
        self._greedy_memo: dict[tuple[float, frozenset[int], bytes], frozenset[int]] = {}
        self._lookups: dict[frozenset[int], tuple[list[float], list[int | None]]] = {}
        self._new_histogram()

        if self.placement_kind in ("random_fixed", "layer_diverse"):
            self.placement = baseline_placement(
                self.placement_kind,
                topo,
                self.error_table,
                seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(4,)).generate_state(1)[0]),
            )
            self.placement_log += [(0, i, m) for i, m in enumerate(self.placement.loaded)]
        self._index_placement()

        self.variant: EstimatorVariant | None = None
        self.table: ExpertTable | None = None
        self.baselines: BaselineTable | None = None
        self.static_cfg: StaticPolicyConfig | None = None
        self.regret: RegretTracker | None = None
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
            if self.record_regret:
                total = cfg["run"]["total_jobs"]
                step = max(1, total // 10)
                self.regret = RegretTracker(
                    self.layers, self.dests, self.v,
                    {*range(step, total + 1, step), total}, thresholds,
                    self.noise_std, self.table,
                )
        else:
            prob = cfg["static"]["offload_prob"]
            if prob is None:
                rate = cfg["workload"]["mean_jobs_per_slot"] / len(topo.layers[0])
                prob = calibrate_offload_prob(topo, rate, self.workload.mean_job_size)
            self.static_cfg = StaticPolicyConfig(kind=self.policy, offload_prob=float(prob))

        self.record_paths = bool(cfg["run"]["record_paths"])
        self.baseline_epoch_log: list[dict[str, Any]] = []

        # Totals
        self.total_jobs_done = 0
        self.total_errors = 0
        self.total_hard = 0
        self.total_hits = 0
        self.total_feedback = 0
        self.total_cost = [0.0] * topo.num_nodes
        self.slots_run = 0

        self.out_dir = out_dir
        # the metrics rows that wait for their slots' mean entropies, in
        # slot order: the cells before it, its slot end, the cells after it
        self._rows: list[tuple[str, Any, str]] = []
        self._metrics_file = None
        self._paths_file = None
        if out_dir is not None:
            os.makedirs(out_dir, exist_ok=True)
            self._metrics_file = open(
                os.path.join(out_dir, "metrics.csv"), "w", newline="", encoding="utf-8"
            )
            csv.writer(self._metrics_file).writerow(self.metrics_header())
            # one cached string per metrics cell after the mean entropy: the
            # drift penalty, then a cost and a queue column per queued node;
            # a slot re-formats only its active nodes' cells (see run_slot)
            width = len(self.queued_by_id)
            self._cells = ["0.0"] * (1 + 2 * width)
            self._cost_cell = [0] * topo.num_nodes
            for i, n in enumerate(self.queued_by_id):
                self._cost_cell[n] = 1 + i
            self._queue_cell = [c + width for c in self._cost_cell]
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
        """At a placement epoch's first slot, log the baselines' state and,
        for the greedy strategy, re-plan every non-terminal node.

        ``greedy_onload`` is a pure function of the node's budget, previous
        columns and mixture, and of the error table and switch penalty, which
        are fixed for the run; so its result is kept per (budget, previous,
        mixture bytes) and a repeated input reuses it. Inputs repeat where a
        node's plan has settled on a fixed point under a fixed mixture: an
        entry node's arrival mixture, or the uniform mixture of a node that
        saw no arrivals. Mixtures all have one float per task, so equal
        bytes mean equal values."""
        if t % self.epoch_slots == 1 and self.baselines is not None and t > 1:
            self.baseline_epoch_log.append({
                "slot": t,
                "mean_local_error_estimate": self.baselines.mean_local_error(),
                "condition_violations": self.baselines.condition_violations,
            })
        if self.placement_kind != "greedy" or t % self.epoch_slots != 1:
            return
        everything = frozenset(range(len(self.error_table.model_ids)))
        new_loaded: list[frozenset[int]] = []
        for i, budget in enumerate(self.topo.memory_budget):
            if i in self.terminal:
                new_loaded.append(frozenset())
                continue
            previous = self.placement.loaded[i] if t > 1 else everything
            mixture = self._mixture_for(i)
            key = (budget, previous, mixture.tobytes())
            chosen = self._greedy_memo.get(key)
            if chosen is None:
                ctx = PlacementContext(mixture, self.error_table, self.switch_penalty, previous)
                chosen = self._greedy_memo[key] = greedy_onload(ctx, budget)
            new_loaded.append(chosen)
            self.placement_log.append((t, i, chosen))
        self.placement = Placement(loaded=new_loaded)
        self.placement.check_feasible(self.topo.memory_budget, self.error_table.sizes)
        self._index_placement()
        self._new_histogram()

    def _index_placement(self) -> None:
        """Best-loaded accuracy and selected model per (node, task), for the
        current placement: a job's confidence centre and local error at a
        node depend only on these and on the job's own draws. Both are
        functions of the task and the node's loaded set alone, the error
        table being fixed for the run, so one pair of lookups serves every
        node and epoch with that loaded set. A loaded set's lists are filled
        for every task when the run first meets the set. A run that keeps the
        regret log also gets the epoch's arrays of both, with -1 for no
        model, as :meth:`RegretTracker.add` logs them."""
        table = self.error_table
        loaded = self.placement.loaded
        lookups = self._lookups
        tasks = range(len(self.task_ids))
        for m in set(loaded).difference(lookups):
            lookups[m] = ([best_loaded_accuracy(table, task, m) for task in tasks],
                          [select_model(table, task, m) for task in tasks])
        self.accuracy = [lookups[m][0] for m in loaded]
        self.selected = [lookups[m][1] for m in loaded]
        if self.record_regret:
            self.placement_tables = (np.array(self.accuracy), np.array(
                [[-1 if c is None else c for c in row] for row in self.selected]))

    def _new_histogram(self) -> None:
        """Zero the epoch's arrival counts per (node, task) index."""
        self._epoch_histogram = [[0] * len(self.task_ids) for _ in self.node_ids]

    def _mixture_for(self, node: int) -> np.ndarray:
        """The task mixture a node's placement plans for: the arrival mixture
        at an entry node, else the epoch's arrivals (uniform if none)."""
        if node in self.layers[0]:
            return self.workload.task_mixture[node]
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
        queues, queue the expert tables' refreshes and buffer the slot's
        metrics row.

        The accounting runs over the slot's active nodes only (see
        :mod:`control`): the queued nodes its jobs' hops touched and the
        backlogged ones. Every other queued node keeps cost 0.0 and queue
        0.0, and its metrics cells keep their cached "0.0"."""
        self.maybe_onload(t)
        # the queue values: learning and the drift diagnostic read them at
        # their slot-start values, before apply_slot updates them in place
        queues = self.queues
        queue = queues.values
        costs = [0.0] * len(self.node_ids)
        touched: set[int] = set()
        slot_errors = 0
        slot_hard = 0
        slot_hits = 0
        slot_feedback = 0

        routed = []
        # an empty slot draws no noise: a (0, N) draw leaves the generator
        # state as it is
        slot_noise = (
            self.workload.confidence_noise(len(jobs), len(self.node_ids)).tolist()
            if jobs else ()
        )
        for job, noise in zip(jobs, slot_noise):
            path, exit_error, records = self._route(job, noise)
            hop_cost = job.size_units * self.distance_factor
            hops = path[1:]
            for dest in hops:
                costs[dest] += hop_cost
            touched.update(hops)
            reached = path[-1] in self.terminal
            hard = job.is_hard()
            slot_errors += exit_error
            slot_hard += int(hard)
            slot_hits += int(hard and reached)
            slot_feedback += int(reached)
            routed.append((job, noise, path, reached, records))
            if self._paths_file is not None:
                self._write_path(t, job, path, reached, exit_error, hard)

        if self.learning:
            # the regret log may settle after apply_slot has moved the
            # queues on, so it keeps a copy of the slot-start queue
            learn_queue = tuple(queue) if self.record_regret else queue
            regret = self.regret
            for job, noise, path, reached, records in routed:
                self._learn_from(job, path, reached, records, learn_queue, noise)
                if regret is not None:
                    regret.add(
                        job.task, path, noise, job.correctness,
                        job.size_units * self.distance_factor, learn_queue,
                        self.placement_tables,
                    )
                    regret.job_done()

        active = queues.active(touched)
        drift = drift_penalty_diagnostic(queue, costs, active, slot_errors, self.v)
        queues.apply_slot(costs, self.topo.resource_budget, active)
        total_cost = self.total_cost
        for n in touched:
            total_cost[n] += costs[n]
        self.total_jobs_done += len(jobs)
        self.total_errors += slot_errors
        self.total_hard += slot_hard
        self.total_hits += slot_hits
        self.total_feedback += slot_feedback
        self.slots_run = t

        slot_end = self.table.refresh_dirty() if self.table is not None else None
        if self._metrics_file is not None:
            # the bytes csv.writer's excel dialect gives: str of an int, repr
            # of a float, none of which needs quoting, and "\r\n"
            cells = self._cells
            cells[0] = repr(drift)
            cost_cell = self._cost_cell
            for n in touched:
                cells[cost_cell[n]] = repr(costs[n])
            queue_cell = self._queue_cell
            for n in active:
                cells[queue_cell[n]] = repr(queue[n])
            head = f"{t},{len(jobs)},{slot_errors},{slot_hard},{slot_hits},{slot_feedback},"
            if slot_end is None:  # a static policy's mean entropy is 0.0
                self._metrics_file.write(f"{head}0.0,{','.join(cells)}\r\n")
            else:
                self._rows.append((head, slot_end, ",".join(cells)))
            for n in touched:
                cells[cost_cell[n]] = "0.0"
        if self.table is not None and t % ROW_BUFFER == 0:
            # with or without rows, so that no slot end waits longer
            self._write_rows()

    def _write_rows(self) -> None:
        """Compute the queued refreshes, which fills every waiting slot
        end's mean entropy, and write the buffered metrics rows."""
        self.table.mean_entropy()
        if self._rows:
            self._metrics_file.write("".join([
                f"{head}{end.value!r},{tail}\r\n" for head, end, tail in self._rows
            ]))
            self._rows.clear()

    def _write_path(
        self, t: int, job: Job, path: list[int], reached: bool, exit_error: int, hard: bool
    ) -> None:
        """Write the job's line of ``paths.jsonl``, with ids for indices."""
        record = {
            "job_id": f"j{job.seq:07d}",
            "slot": t,
            "task": self.task_ids[job.task],
            "path": [self.node_ids[i] for i in path],
            "exit_layer": self.layer_of[path[-1]],
            "reached_oracle": reached,
            "size_units": job.size_units,
            "exit_error": exit_error,
            "hard": hard,
        }
        self._paths_file.write(json.dumps(record, sort_keys=True) + "\n")

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
                if action == 0:
                    return path, record[0], records
            else:
                action = static_action(
                    self.static_cfg, node, len(self.dests[node]), self.rng_route
                )
                if action == 0:
                    return path, inference_error(job, self.selected[node][task]), records
            node = self.dests[node][action - 1]

    def _learn_from(
        self, job: Job, path: list[int], fb: bool, records: dict[int, NodeRecord],
        queue: Sequence[float], noise: list[float],
    ) -> None:
        """Accumulate one routed job's loss estimates, and for a fed job its
        baseline updates, at the nodes it visited. ``records`` holds its
        record at each of them; for a fed job, its record at every middle
        node it skipped is added in layer order, for the oracle reads them."""
        assert self.table is not None and self.baselines is not None
        variant = self.variant
        task = job.task
        hop_cost = job.size_units * self.distance_factor
        oracle = None
        if fb:
            for layer in self.layers[1:-1]:
                for node in layer:
                    if node not in records:
                        records[node] = self._evaluate(job, node, noise)
            oracle = DownstreamLossOracle(
                self.layers, path[0], self.dests, records, queue, self.v, hop_cost
            )
        visited = path[:-1] if fb else path
        for node in visited:
            dests = self.dests[node]
            local_error, dist = records[node]
            cut = dist.cut
            if variant.use_baseline:
                beta = self.baselines.plugin_values(
                    node, task, [queue[d] for d in dests], hop_cost=hop_cost,
                    error_weight=self.v, zero_downstream=variant.zero_downstream,
                )
            else:
                beta = (0.0, [0.0] * len(dests))
            if fb:
                rho = oracle.reach_prob(node)
                losses = oracle.expert_loss_matrix(node, variant.zero_downstream)
                if variant.use_baseline:
                    self.baselines.count_violations(node, cut, beta, losses)
                self.table.accumulate_loss(
                    node, task, cut, estimate(losses[0], beta[0], rho, True),
                    [estimate(f, b, rho, True) for f, b in zip(losses[1], beta[1])],
                )
            elif variant.use_baseline:
                # without feedback the estimate is the baseline; an
                # importance-weighted job without feedback adds nothing
                self.table.accumulate_loss(node, task, cut, *beta)
            if fb and variant.use_baseline:
                down_base = [oracle.expected_loss_decomposition(d) for d in dests]
                self.baselines.update_hidden(node, task, local_error, down_base)

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
        if self.table is not None:
            self._write_rows()
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
