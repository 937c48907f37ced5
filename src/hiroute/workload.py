"""Job stream generation, trace ingestion, confidence scores, local errors.

Two sources feed the simulator with jobs:

* a synthetic generator that draws per-(task, model) expected errors once
  from a structure seed and then realizes per-job correctness bits, and
* a JSONL trace whose records carry recorded correctness bits per model.

Either way a job freezes one correctness bit per model at creation time, so
the ground truth seen at a node never depends on the path taken to reach it.
A job is integers and floats only: task index, entry node index, and bits in
:class:`ErrorTable` column order (the model pool's order, or the trace
header's). Task, model and entry-node ids are read here, from the catalog,
the mixtures and the trace, and turned into indices once.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

TEXT = "text"
VISION = "vision"


class TraceFormatError(ValueError):
    """Raised when a trace file violates the JSONL schema."""


@dataclass(frozen=True)
class ModelSpec:
    """One deployable model: memory footprint, modalities, expected errors.

    ``error_prob`` maps task type to the Bernoulli error parameter. Tasks of
    a modality the model does not support always fail (error 1).
    """

    model_id: str
    memory_size: float
    modalities: frozenset[str]
    error_prob: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.memory_size <= 0:
            raise ValueError(f"model {self.model_id} has nonpositive size")
        for task, p in self.error_prob.items():
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"error_prob out of [0,1] for ({self.model_id}, {task})")


@dataclass(frozen=True)
class Job:
    """One task instance: its sequence number in the run, task index, entry
    node index, size, and frozen correctness bits, one 0/1 per model in
    :class:`ErrorTable` column order."""

    seq: int
    task: int
    entry: int
    size_units: float
    correctness: tuple[int, ...]

    def is_hard(self) -> bool:
        """True when no model answers this job correctly."""
        return 1 not in self.correctness


@dataclass
class ArrivalModel:
    """Stationary arrival process: Poisson slot counts, fixed per-node mixtures."""

    mean_jobs_per_slot: float
    task_mixture: list[np.ndarray]  # entry node index -> probs over task indices

    def __post_init__(self) -> None:
        if self.mean_jobs_per_slot < 0:
            raise ValueError("mean_jobs_per_slot must be nonnegative")
        for entry, probs in enumerate(self.task_mixture):
            if abs(float(np.sum(probs)) - 1.0) > 1e-9 or np.any(probs < 0):
                raise ValueError(f"task mixture at entry {entry} is not a probability vector")


class ErrorTable:
    """Expected error per (task index, model column), with unsupported
    modalities forced to 1.

    Row i of ``matrix`` is task ``tasks[i]``, column j model ``models[j]``,
    whose id is ``model_ids[j]`` and memory size ``sizes[j]``. ``by_id``
    lists the columns in model-id order: the order of every tie-break and of
    every sum over a set of models.
    """

    def __init__(
        self,
        tasks: Sequence[str],
        models: Sequence[ModelSpec],
        task_modality: Mapping[str, str],
    ) -> None:
        self.tasks = tuple(tasks)
        self.models = tuple(models)
        self.task_modality = dict(task_modality)
        self.model_ids = tuple(m.model_id for m in self.models)
        self.sizes = tuple(m.memory_size for m in self.models)
        self.by_id = tuple(sorted(range(len(self.models)), key=self.model_ids.__getitem__))
        matrix = np.ones((len(self.tasks), len(self.models)))
        for j, model in enumerate(self.models):
            for i, task in enumerate(self.tasks):
                if self.task_modality[task] not in model.modalities:
                    continue
                matrix[i, j] = model.error_prob.get(task, 1.0)
        self.matrix = matrix

    def error(self, task: int, column: int) -> float:
        return float(self.matrix[task, column])

    def in_id_order(self, columns: Collection[int]) -> list[int]:
        """The given columns, in model-id order."""
        return [c for c in self.by_id if c in columns]


def best_loaded_accuracy(
    table: ErrorTable, task: int, loaded: Iterable[int]
) -> float:
    """Highest expected accuracy among the loaded columns that support the
    task. Returns 0 when nothing loaded supports the task's modality.
    """
    best = 0.0
    for column in loaded:
        err = table.error(task, column)
        if err >= 1.0:
            continue  # unsupported or hopeless
        best = max(best, 1.0 - err)
    return best


def confidence_from_noise(center: float, unit_noise: float, noise_std: float) -> float:
    """Clamp ``center + noise_std * unit_noise`` into [0, 1]."""
    return float(min(1.0, max(0.0, center + noise_std * unit_noise)))


def select_model(table: ErrorTable, task: int, loaded: Collection[int]) -> int | None:
    """Fixed selection rule: lowest expected error for the task, ties by id.

    Returns the chosen column, or None when no loaded model supports the
    task.
    """
    best: int | None = None
    best_err = 1.0
    for column in table.in_id_order(loaded):
        err = table.error(task, column)
        if err >= 1.0:
            continue
        if err < best_err:
            best_err = err
            best = column
    return best


def inference_error(job: Job, column: int | None) -> int:
    """Realized 0/1 error of answering ``job`` with the model of ``column``.

    ``column`` is :func:`select_model`'s choice at the answering node; None
    (nothing loaded supports the task) always fails.
    """
    if column is None:
        return 1
    return 1 - job.correctness[column]


@dataclass
class WorkloadStats:
    """Analytic arrival statistics used by static-policy calibration."""

    arrival_rate_per_entry: float
    mean_job_size: float


class Workload:
    """A job source bound to one run: arrivals, sizes, correctness, confidence
    (``noise_std`` scales the Gaussian noise around the best loaded accuracy).

    ``entry_order`` lists the entry node indices in the order the arrival
    draw picks from, sorted by node id (``n1_10`` before ``n1_2``).
    """

    def __init__(
        self,
        tasks: Sequence[str],
        task_modality: Mapping[str, str],
        models: Sequence[ModelSpec],
        arrivals: ArrivalModel,
        entry_order: Sequence[int],
        noise_std: float,
        task_size_ranges: Mapping[str, tuple[float, float]],
        seed: int,
        design_mixture: np.ndarray,
        job_sampler=None,
    ) -> None:
        self.tasks = tuple(tasks)
        self.task_modality = dict(task_modality)
        self.models = tuple(models)
        self.arrivals = arrivals
        self.noise_std = noise_std
        self._size_ranges = [task_size_ranges.get(t) for t in self.tasks]
        self.error_table = ErrorTable(self.tasks, self.models, self.task_modality)
        self._job_sampler = job_sampler
        self.design_mixture = design_mixture
        seq = np.random.SeedSequence(seed)
        self._rng = np.random.default_rng(seq)
        self._entry_order = tuple(entry_order)
        # one task CDF per entry node, built as rng.choice(p=...) builds it
        cdfs = [np.cumsum(p) for p in arrivals.task_mixture]
        self._task_cdf = [cdf / cdf[-1] for cdf in cdfs]
        self._counter = 0

    def generate_slot(self, t: int) -> list[Job]:
        """Draw the slot's arrivals: count, entry nodes, tasks, sizes, bits."""
        rng = self._rng
        count = int(rng.poisson(self.arrivals.mean_jobs_per_slot))
        entries = self._entry_order
        jobs: list[Job] = []
        for _ in range(count):
            entry = entries[int(rng.integers(len(entries)))]
            task = int(self._task_cdf[entry].searchsorted(rng.random(), side="right"))
            jobs.append(self._make_job(task, entry, rng))
        return jobs

    def _make_job(self, task: int, entry: int, rng: np.random.Generator) -> Job:
        seq = self._counter
        self._counter += 1
        if self._job_sampler is not None:
            size, bits = self._job_sampler(task, rng)
        else:
            lo, hi = self._size_ranges[task]
            size = float(rng.uniform(lo, hi))
            draws = rng.random(len(self.models))
            bits = tuple((draws >= self.error_table.matrix[task]).astype(int).tolist())
        return Job(seq, task, entry, size, bits)

    def confidence_noise(self, num_jobs: int, num_nodes: int) -> np.ndarray:
        """Pre-draw one unit-normal per (job, node) of a slot, so a job's
        score at a node is the same no matter how often or in what order it
        is queried. Row j holds the values, and leaves the generator in the
        state, of the j-th of ``num_jobs`` draws of ``num_nodes`` each."""
        return self._rng.standard_normal((num_jobs, num_nodes))

    def stats(self) -> WorkloadStats:
        """Expected per-entry arrival rate and mean job size.

        Uses the designed task distribution, so derived calibrations are
        identical across seeds; the realized per-seed mixtures only add
        zero-mean noise around it. A trace task's size is the mean of its
        recorded sizes, since jobs are drawn uniformly from the task's pool.
        """
        rate = self.arrivals.mean_jobs_per_slot / max(1, len(self._entry_order))
        mean_mass = np.asarray(self.design_mixture, dtype=float)
        mean_size = 0.0
        for i in range(len(self.tasks)):
            if self._job_sampler is not None:
                task_size = self._job_sampler.mean_size(i)
            else:
                lo, hi = self._size_ranges[i]
                task_size = (lo + hi) / 2.0
            mean_size += float(mean_mass[i]) * task_size
        return WorkloadStats(arrival_rate_per_entry=rate, mean_job_size=mean_size)


def dirichlet_mixtures(
    tasks: Sequence[str],
    hard_tasks: Sequence[str],
    num_entries: int,
    hard_fraction: float,
    alpha: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Task mixtures by entry node index, with hard-task mass pinned exactly.

    Easy and hard task groups each get an independent Dirichlet(alpha) draw;
    the groups are then scaled to (1 - hard_fraction) and hard_fraction so the
    generator hits the configured hard share irrespective of the draws.
    """
    hard = [t for t in tasks if t in set(hard_tasks)]
    easy = [t for t in tasks if t not in set(hard_tasks)]
    index = {t: i for i, t in enumerate(tasks)}
    mixtures: list[np.ndarray] = []
    for _ in range(num_entries):
        probs = np.zeros(len(tasks))
        if easy:
            weights = rng.dirichlet(np.full(len(easy), alpha))
            scale = 1.0 - (hard_fraction if hard else 0.0)
            for t, w in zip(easy, weights):
                probs[index[t]] = scale * w
        if hard:
            weights = rng.dirichlet(np.full(len(hard), alpha))
            scale = hard_fraction if easy else 1.0
            for t, w in zip(hard, weights):
                probs[index[t]] = scale * w
        mixtures.append(probs / probs.sum())
    return mixtures


def synthetic_catalog(
    num_task_types: int,
    vision_fraction: float,
    hard_task_count: int,
    medium_task_count: int,
    model_pool: Sequence[Mapping],
    structure_seed: int,
    trap_task_count: int = 0,
    small_model_cutoff: float = 12.0,
) -> tuple[list[str], dict[str, str], list[ModelSpec], dict[str, str]]:
    """Build the fixed task/model universe shared by every seed of a config.

    Tasks fall into difficulty tiers. Hard tasks defeat every model (error
    1). Medium tasks are where escalation pays: small (edge-sized) models do
    poorly while large models do well. Trap tasks look identical to medium
    tasks from below (same local difficulty and confidence) but large models
    barely improve on them, so escalating one buys almost nothing short of
    the terminal layer. Easy tasks are solvable near-locally. Hard, medium
    and trap tasks are text (cheap to move); the configured fraction of
    tasks is vision, drawn from the easy tier. Each model's ``base_error``
    tilts it inside its size class, and a per-model niche discount keeps
    placement choices meaningful.
    """
    rng = np.random.default_rng(np.random.SeedSequence(structure_seed))
    tasks = [f"t{i:02d}" for i in range(num_task_types)]
    cut1 = hard_task_count
    cut2 = cut1 + medium_task_count
    cut3 = cut2 + trap_task_count
    hard_tasks = tasks[:cut1]
    medium_tasks = tasks[cut1:cut2]
    trap_tasks = tasks[cut2:cut3]
    easy_tasks = tasks[cut3:]
    n_vision = min(int(round(num_task_types * vision_fraction)), len(easy_tasks))
    vision_set = set(rng.choice(easy_tasks, size=n_vision, replace=False).tolist())
    modality = {t: (VISION if t in vision_set else TEXT) for t in tasks}

    tiers = {t: "hard" for t in hard_tasks}
    tiers.update({t: "medium" for t in medium_tasks})
    tiers.update({t: "trap" for t in trap_tasks})
    tiers.update({t: "easy" for t in easy_tasks})

    difficulty = {}
    for t in easy_tasks:
        difficulty[t] = float(rng.uniform(0.08, 0.18))
    for t in medium_tasks + trap_tasks:
        difficulty[t] = float(rng.uniform(0.45, 0.62))

    # Large models are specialists on the medium tier: each covers a random
    # half of the medium tasks well and is mediocre on the rest, redrawn
    # until every medium task has at least two capable large models. Whether
    # a placement covers a task then genuinely matters, and so does which
    # destination a job is offloaded to.
    large_ids = [str(s["id"]) for s in model_pool
                 if float(s["size"]) > small_model_cutoff]
    coverage: dict[tuple[str, str], bool] = {}
    if medium_tasks and large_ids:
        while True:
            for m in large_ids:
                for t in medium_tasks:
                    coverage[(m, t)] = bool(rng.random() < 0.5)
            if all(sum(coverage[(m, t)] for m in large_ids) >= min(2, len(large_ids))
                   for t in medium_tasks):
                break

    models: list[ModelSpec] = []
    n_niche = max(1, num_task_types // 6)
    for spec in model_pool:
        supported = frozenset(spec["modalities"])
        small = float(spec["size"]) <= small_model_cutoff
        tilt = float(spec["base_error"]) - 0.35  # ranks models within a class
        niche = set(rng.choice(tasks, size=n_niche, replace=False).tolist())
        errors: dict[str, float] = {}
        for t in tasks:
            if t in hard_tasks:
                errors[t] = 1.0
                continue
            if modality[t] not in supported:
                continue  # ErrorTable forces unsupported to 1
            d = difficulty[t]
            if small:
                target = d
            elif t in medium_tasks:
                covered = coverage.get((str(spec["id"]), t), True)
                target = d * (0.25 if covered else 0.7)
            elif t in trap_tasks:
                target = d * 0.88
            else:
                target = d * 0.9  # easy tasks gain almost nothing upstream
            err = target + tilt * d + float(rng.uniform(0.0, 0.25)) * d
            if t in niche and t not in trap_tasks:
                err -= 0.5 * d
            errors[t] = float(min(0.98, max(0.02, err)))
        models.append(
            ModelSpec(
                model_id=str(spec["id"]),
                memory_size=float(spec["size"]),
                modalities=supported,
                error_prob=errors,
            )
        )
    return tasks, modality, models, tiers


class TraceRecord(NamedTuple):
    """One recorded job of a trace, with its bits in header order."""

    task_type: str
    size_units: float
    correctness: tuple[int, ...]


def load_trace(path: str) -> tuple[list[ModelSpec], list[TraceRecord], dict[str, str]]:
    """Read a JSONL trace: a header object listing models, then job records.

    Returns the models, the records and each task's recorded modality. Job
    records carry binary correctness for every model, and every record of a
    task must carry the same modality. Violations raise
    :class:`TraceFormatError` naming the offending line.
    """
    models: list[ModelSpec] = []
    jobs: list[TraceRecord] = []
    modality: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.readlines()
    if not lines:
        raise TraceFormatError("line 1: empty trace file")
    header = _parse_json_line(lines[0], 1)
    if "models" not in header or not isinstance(header["models"], list):
        raise TraceFormatError("line 1: header must carry a 'models' list")
    for entry in header["models"]:
        try:
            models.append(
                ModelSpec(
                    model_id=str(entry["id"]),
                    memory_size=float(entry["size"]),
                    modalities=frozenset(entry["modalities"]),
                    error_prob={
                        str(k): float(v)
                        for k, v in entry.get("error_prob", {}).items()
                    },
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(f"line 1: bad model entry: {exc}") from exc
    column = {m.model_id: j for j, m in enumerate(models)}
    if len(column) < len(models):
        raise TraceFormatError("line 1: duplicate model id in header")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        record = _parse_json_line(line, lineno)
        for key in ("job_id", "task_type", "modality", "size_units", "correctness"):
            if key not in record:
                raise TraceFormatError(f"line {lineno}: missing field {key!r}")
        if record["modality"] not in (TEXT, VISION):
            raise TraceFormatError(f"line {lineno}: unknown modality {record['modality']!r}")
        task = str(record["task_type"])
        recorded = modality.setdefault(task, record["modality"])
        if recorded != record["modality"]:
            raise TraceFormatError(
                f"line {lineno}: task {task!r} recorded as {record['modality']!r}, "
                f"earlier as {recorded!r}"
            )
        size = record["size_units"]
        if not isinstance(size, (int, float)) or size <= 0:
            raise TraceFormatError(f"line {lineno}: size_units must be positive")
        bits: list[int | None] = [None] * len(models)
        for model_id, value in record["correctness"].items():
            if model_id not in column:
                raise TraceFormatError(
                    f"line {lineno}: unknown model_id {model_id!r} in correctness"
                )
            if value not in (0, 1):
                raise TraceFormatError(
                    f"line {lineno}: correctness values must be 0 or 1, got {value!r}"
                )
            bits[column[model_id]] = int(value)
        missing = [m.model_id for m, bit in zip(models, bits) if bit is None]
        if missing:
            raise TraceFormatError(
                f"line {lineno}: correctness missing models {sorted(missing)}"
            )
        jobs.append(TraceRecord(task, float(size), tuple(bits)))
    return models, jobs, modality


def _parse_json_line(line: str, lineno: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc


def empirical_error_prob(
    models: Sequence[ModelSpec], jobs: Sequence[TraceRecord], task_modality: Mapping[str, str]
) -> list[ModelSpec]:
    """Fill missing per-task error rates from observed trace correctness."""
    tasks = sorted({j.task_type for j in jobs})
    counts: dict[str, dict[str, list[int]]] = {
        m.model_id: {t: [0, 0] for t in tasks} for m in models
    }
    for job in jobs:
        for model, bit in zip(models, job.correctness):
            tally = counts[model.model_id][job.task_type]
            tally[0] += 1 - bit
            tally[1] += 1
    out: list[ModelSpec] = []
    for model in models:
        errors = dict(model.error_prob)
        for task in tasks:
            if task in errors:
                continue
            if task_modality[task] not in model.modalities:
                continue
            wrong, total = counts[model.model_id][task]
            errors[task] = (wrong / total) if total else 1.0
        out.append(
            ModelSpec(
                model_id=model.model_id,
                memory_size=model.memory_size,
                modalities=model.modalities,
                error_prob=errors,
            )
        )
    return out


class TraceJobSampler:
    """Samples recorded jobs (with replacement) from per-task pools, one per
    task index; ``tasks`` are the recorded task ids, sorted."""

    def __init__(self, jobs: Sequence[TraceRecord]) -> None:
        pools: dict[str, list[tuple[float, tuple[int, ...]]]] = {}
        for job in jobs:
            pools.setdefault(job.task_type, []).append((job.size_units, job.correctness))
        self.tasks = sorted(pools)
        self.pools = [pools[t] for t in self.tasks]

    def mean_size(self, task: int) -> float:
        pool = self.pools[task]
        return sum(size for size, _ in pool) / len(pool)

    def __call__(self, task: int, rng: np.random.Generator) -> tuple[float, tuple[int, ...]]:
        """One recorded (size, correctness bits) pair of the task."""
        pool = self.pools[task]
        return pool[int(rng.integers(len(pool)))]
