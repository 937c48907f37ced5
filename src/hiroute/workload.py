"""Job stream generation, trace ingestion, confidence scores, local errors.

Two sources feed the simulator with jobs:

* a synthetic generator that draws per-(task, model) expected errors once
  from a structure seed and then realizes per-job correctness bits, and
* a JSONL trace whose records carry recorded correctness bits per model.

Either way a job freezes one correctness bit per model at creation time, so
the ground truth seen at a node never depends on the path taken to reach it.
A job is integers and floats only: task index, entry node index, and bits in
:class:`ErrorTable` column order (the model pool's order, or the trace
header's). :func:`build_workload` is the one place task, model and
entry-node ids are read, from the catalog or the trace; it turns them into
index tables once per run: the error table, per-task size ranges by task
index, task mixtures by entry node index, the id-sorted entry draw order,
and the mean job size that calibrates the static policies.

A slot's arrivals are decoded in Python from one block of the arrival
generator's raw 64-bit words (``bit_generator.random_raw``), with numpy's own
formulas, so the stream is the one numpy's ``Generator`` calls would draw:
a double is ``(word >> 11) * 2**-53``, and comparing it with a double p is
comparing the word with the least word whose double reaches p
(:func:`word_cuts`); ``integers(n)`` is Lemire's bounded draw on 32-bit
halves, low half first, the high half carried to the next bounded draw as
PCG64's ``next_uint32`` carries it (:class:`RawWords`). ``hiroute validate``
(``arrival-draws``) compares the decoding with numpy's calls.
"""
from __future__ import annotations

import json
import math
from bisect import bisect_right
from typing import Any, Collection, Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .topology import Topology

TEXT = "text"
VISION = "vision"
UNIT = 2.0 ** -53  # a double is a word's top 53 bits times UNIT
MASK32 = 0xFFFFFFFF


class TraceFormatError(ValueError):
    """Raised when a trace file violates the JSONL schema."""


class Job(NamedTuple):
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


class ErrorTable:
    """Expected error per (task index, model column), 1 where the model
    does not support the task's modality.

    Row i of ``matrix`` is task ``tasks[i]``, column j the model whose id is
    ``model_ids[j]`` and memory size ``sizes[j]``. ``by_id`` lists the
    columns in model-id order: the order of every tie-break and of every sum
    over a set of models.
    """

    def __init__(
        self,
        tasks: Sequence[str],
        model_ids: Sequence[str],
        sizes: Sequence[float],
        matrix: np.ndarray,
    ) -> None:
        self.tasks = tuple(tasks)
        self.model_ids = tuple(model_ids)
        self.sizes = tuple(sizes)
        self.by_id = tuple(sorted(range(len(self.model_ids)), key=self.model_ids.__getitem__))
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


def word_cuts(values: Iterable[float]) -> list[int]:
    """For each double p in [0, 1], the least raw word whose double,
    ``(word >> 11) * 2**-53``, is at least p: ``word >= cut`` is exactly
    ``random() >= p``, and ``bisect_right(cuts, word)`` over a CDF's cuts is
    ``bisect_right(cdf, random())``."""
    return [math.ceil(p * 2.0 ** 53) << 11 for p in np.asarray(values, dtype=float).tolist()]


class RawWords:
    """A bit generator's raw 64-bit words, read in order from blocks, and
    numpy's bounded integer draw on their 32-bit halves.

    ``block`` holds the current block and ``pos`` indexes its next unread
    word; a read past the block's end takes the words it needs with another
    ``random_raw`` call. ``half`` is the 32-bit half the last bounded draw
    left over, or None.
    """

    def __init__(self, bit_generator: np.random.BitGenerator) -> None:
        self._raw = bit_generator.random_raw
        self.block: list[int] = []
        self.pos = 0
        self.half: int | None = None

    def take(self, n: int) -> list[int]:
        """Start a new block of the next n words; the caller must read them
        all, or the stream moves past words nothing read."""
        self.block = self._raw(n).tolist()
        self.pos = 0
        return self.block

    def run(self, k: int) -> int:
        """Read the next k words; returns the index of the first in
        ``block``, extended to hold them."""
        i = self.pos
        end = self.pos = i + k
        if end > len(self.block):
            self.block += self._raw(end - len(self.block)).tolist()
        return i

    def word(self) -> int:
        """Read the next word."""
        return self.block[self.run(1)]

    @staticmethod
    def split(word: int) -> tuple[int, int]:
        """A word's 32-bit halves in draw order, as PCG64's ``next_uint32``
        hands them out: low, then high."""
        return word & MASK32, word >> 32

    def below(self, n: int) -> int:
        """numpy's ``integers(n)``, 1 <= n <= 2**32: Lemire's draw, the top
        32 bits of a half times n, redrawn while the product's low 32 bits
        are under ``2**32 % n``. Draws nothing for n = 1."""
        if n == 1:
            return 0
        while True:
            half = self.half
            if half is None:
                half, self.half = self.split(self.word())
            else:
                self.half = None
            m = half * n
            if m & MASK32 >= 0x100000000 % n:
                return m >> 32


class Workload:
    """A job source bound to one run: arrivals, sizes, correctness, confidence
    (``noise_std`` scales the Gaussian noise around the best loaded accuracy).

    Slot counts are Poisson with mean ``mean_jobs_per_slot``; a job's task
    is drawn from ``task_mixture[entry]``, one probability vector over task
    indices per entry node index. ``entry_order`` lists the entry node
    indices in the order the arrival draw picks from, sorted by node id
    (``n1_10`` before ``n1_2``).
    ``size_ranges`` holds each task index's uniform size range, or is None
    when ``trace_pools`` holds each task index's recorded (size, bits) pairs,
    drawn uniformly instead.
    ``mean_job_size`` is the expected size under the designed task mix.

    One generator draws the counts, the arrivals and the confidence noise.
    Counts and noise are numpy calls (``poisson``, ``standard_normal``); the
    arrivals are decoded from its raw words (:class:`RawWords`) in the order
    numpy's calls drew them: the entry node as
    ``integers(len(entry_order))``, the task as ``bisect_right`` of
    ``random()`` on the entry's task CDF, the size as ``uniform(lo, hi)``,
    i.e. ``lo + (hi - lo) * random()``, and bit j as 1 where
    ``random() >= error`` (one ``random()`` per model), or the recorded pair
    as ``pool[integers(len(pool))]``. The 32-bit half an ``integers`` draw
    leaves over is carried by :class:`RawWords`, not by the bit generator, so
    nothing else may call ``integers`` (or any other 32-bit draw) on this
    generator.
    """

    def __init__(
        self,
        error_table: ErrorTable,
        mean_jobs_per_slot: float,
        task_mixture: Sequence[np.ndarray],
        entry_order: Sequence[int],
        noise_std: float,
        size_ranges: Sequence[tuple[float, float]] | None,
        mean_job_size: float,
        seed: int,
        trace_pools: Sequence[Sequence[tuple[float, tuple[int, ...]]]] | None = None,
    ) -> None:
        self.error_table = error_table
        self.mean_jobs_per_slot = mean_jobs_per_slot
        self.task_mixture = list(task_mixture)
        self.noise_std = noise_std
        self.mean_job_size = mean_job_size
        self._rng = np.random.default_rng(np.random.SeedSequence(seed))
        self._words = RawWords(self._rng.bit_generator)
        self._entry_order = tuple(entry_order)
        # one task CDF per entry node, built as rng.choice(p=...) builds it
        cdfs = [np.cumsum(p) for p in self.task_mixture]
        self._task_cuts = [word_cuts(cdf / cdf[-1]) for cdf in cdfs]
        self._pools = trace_pools
        if trace_pools is None:
            # uniform(lo, hi) takes hi - lo in doubles
            self._sizes = [(float(lo), float(hi) - float(lo)) for lo, hi in size_ranges]
            self._error_cuts = [word_cuts(row) for row in error_table.matrix]
        self._counter = 0

    def generate_slot(self, t: int) -> list[Job]:
        """Draw the slot's arrivals: count, then each job's entry node, task,
        and size and bits or recorded pair.

        The words come in one ``random_raw`` call of as many as the slot is
        sure to use: per job one for the task and, for a synthetic job, one
        for the size and one per model, plus the entry draws' words if none
        is rejected. A rejection or a trace pool draw reads past the block,
        so the block never takes a word the slot does not use.
        """
        count = int(self._rng.poisson(self.mean_jobs_per_slot))
        if not count:
            return []
        words = self._words
        entries = self._entry_order
        spread = len(entries)
        pools = self._pools
        width = 1 if pools is not None else 2 + len(self.error_table.model_ids)
        need = count * width
        if spread > 1:  # a half per entry draw, the carried one first
            need += (count - (words.half is not None) + 1) // 2
        block = words.take(need)
        task_cuts = self._task_cuts
        first = self._counter
        self._counter = first + count
        jobs = []
        for seq in range(first, first + count):
            entry = entries[words.below(spread)]
            i = words.run(width)
            task = bisect_right(task_cuts[entry], block[i])
            if pools is None:
                lo, span = self._sizes[task]
                size = lo + span * ((block[i + 1] >> 11) * UNIT)
                bits = tuple([1 if w >= cut else 0
                              for w, cut in zip(block[i + 2:i + width], self._error_cuts[task])])
            else:
                pool = pools[task]
                size, bits = pool[words.below(len(pool))]
            jobs.append(Job(seq, task, entry, size, bits))
        return jobs

    def confidence_noise(self, num_jobs: int, num_nodes: int) -> np.ndarray:
        """Pre-draw one unit-normal per (job, node) of a slot, so a job's
        score at a node is the same no matter how often or in what order it
        is queried. Row j holds the values, and leaves the generator in the
        state, of the j-th of ``num_jobs`` draws of ``num_nodes`` each."""
        return self._rng.standard_normal((num_jobs, num_nodes))


def build_workload(cfg: Mapping[str, Any], topo: Topology, seed: int) -> Workload:
    """Assemble the per-seed job source described by the config.

    The task/model universe comes from the structure seed (identical across
    seeds) or the trace; the mixtures come from spawn key 1 of the run seed,
    and arrival counts, correctness bits, sizes and confidence noise from
    spawn key 2. The mean job size weighs each task's mean size by the
    designed task mix, not the per-seed mixtures, so a calibration derived
    from it is identical across seeds. A trace task's mean size is the mean
    of its recorded sizes, since jobs are drawn uniformly from its pool.
    """
    w = cfg["workload"]
    entries = topo.entry_nodes()
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(1,)))
    if w["kind"] == "synthetic":
        hard_count = w["hard_task_types"] if w["hard_task_fraction"] > 0 else 0
        table, modality, tiers = synthetic_catalog(
            num_task_types=w["num_task_types"],
            vision_fraction=w["vision_fraction"],
            hard_task_count=hard_count,
            medium_task_count=w["medium_task_types"],
            trap_task_count=w["trap_task_types"],
            model_pool=w["model_pool"],
            structure_seed=w["structure_seed"],
        )
        tasks = table.tasks
        pools = None
        hard = [i for i, t in enumerate(tasks) if tiers[t] == "hard"]
        hard_fraction = w["hard_task_fraction"] if hard else 0.0
        # escalation-bound tiers carry short payloads; easy tasks span the
        # full per-modality range
        size_ranges = [
            tuple(w["vision_size_range"]) if modality[t] == VISION
            else tuple(w["text_size_range"]) if tiers[t] == "easy"
            else tuple(w["escalation_size_range"])
            for t in tasks
        ]
        mean_sizes = [(lo + hi) / 2.0 for lo, hi in size_ranges]
    else:
        models, records, modality = load_trace(w["trace_path"])
        tasks, pools = trace_pools(records)
        # the header's rate where it gives one, else the recorded one
        matrix = np.ones((len(tasks), len(models)))
        for j, model in enumerate(models):
            for i, (task, pool) in enumerate(zip(tasks, pools)):
                if modality[task] not in model.modalities:
                    continue
                rate = model.error_prob.get(task)
                if rate is None:
                    rate = sum(1 - bits[j] for _, bits in pool) / len(pool)
                matrix[i, j] = rate
        table = ErrorTable(
            tasks, [m.model_id for m in models], [m.size for m in models], matrix
        )
        hard = []
        hard_fraction = 0.0
        size_ranges = None  # trace jobs keep their recorded sizes
        mean_sizes = [sum(size for size, _ in pool) / len(pool) for pool in pools]
    mixtures = dirichlet_mixtures(
        len(tasks), hard, len(entries), hard_fraction, w["mixture_concentration"], rng
    )
    mean_job_size = 0.0
    for i, size in enumerate(mean_sizes):
        if i in hard:
            mass = hard_fraction / len(hard)
        else:
            mass = (1.0 - hard_fraction) / (len(tasks) - len(hard))
        mean_job_size += mass * size
    return Workload(
        error_table=table,
        mean_jobs_per_slot=w["mean_jobs_per_slot"],
        task_mixture=mixtures,
        entry_order=sorted(entries, key=topo.node),
        noise_std=w["confidence_noise_std"],
        size_ranges=size_ranges,
        mean_job_size=mean_job_size,
        seed=int(np.random.SeedSequence(entropy=seed, spawn_key=(2,)).generate_state(1)[0]),
        trace_pools=pools,
    )


def dirichlet_mixtures(
    num_tasks: int,
    hard_tasks: Sequence[int],
    num_entries: int,
    hard_fraction: float,
    alpha: float,
    rng: np.random.Generator,
) -> list[np.ndarray]:
    """Task mixtures by entry node index, with hard-task mass pinned exactly.

    Easy and hard task indices each get an independent Dirichlet(alpha)
    draw; the groups are then scaled to (1 - hard_fraction) and hard_fraction
    so the generator hits the configured hard share irrespective of the
    draws.
    """
    hard = sorted(hard_tasks)
    easy = [i for i in range(num_tasks) if i not in hard]
    mixtures: list[np.ndarray] = []
    for _ in range(num_entries):
        probs = np.zeros(num_tasks)
        if easy:
            scale = 1.0 - (hard_fraction if hard else 0.0)
            probs[easy] = scale * rng.dirichlet(np.full(len(easy), alpha))
        if hard:
            scale = hard_fraction if easy else 1.0
            probs[hard] = scale * rng.dirichlet(np.full(len(hard), alpha))
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
) -> tuple[ErrorTable, dict[str, str], dict[str, str]]:
    """Build the fixed task/model universe shared by every seed of a config:
    the error table (columns in model-pool order), and each task id's
    modality and tier.

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

    # hard tasks and unsupported modalities keep error 1
    matrix = np.ones((len(tasks), len(model_pool)))
    n_niche = max(1, num_task_types // 6)
    for j, spec in enumerate(model_pool):
        small = float(spec["size"]) <= small_model_cutoff
        tilt = float(spec["base_error"]) - 0.35  # ranks models within a class
        niche = set(rng.choice(tasks, size=n_niche, replace=False).tolist())
        for i, t in enumerate(tasks):
            if t in hard_tasks or modality[t] not in spec["modalities"]:
                continue
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
            matrix[i, j] = min(0.98, max(0.02, err))
    table = ErrorTable(
        tasks, [str(s["id"]) for s in model_pool], [float(s["size"]) for s in model_pool], matrix
    )
    return table, modality, tiers


class TraceModel(NamedTuple):
    """One model of a trace header; ``error_prob`` maps task ids to the
    header's expected error, where it gives one."""

    model_id: str
    size: float
    modalities: frozenset[str]
    error_prob: dict[str, float]


class TraceRecord(NamedTuple):
    """One recorded job of a trace, with its bits in header order."""

    task_type: str
    size_units: float
    correctness: tuple[int, ...]


def _positive_finite(value: Any) -> bool:
    """True for a JSON number (not a boolean) that is finite and above 0."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value) and value > 0)


def load_trace(path: str) -> tuple[list[TraceModel], list[TraceRecord], dict[str, str]]:
    """Read a JSONL trace: a header object listing models, then job records.

    Returns the header's models, the records and each task's recorded
    modality. A model's size must be a positive finite number and its
    ``error_prob`` values numbers in [0, 1], keyed by recorded task ids. Job
    records carry a correctness bit, the integer 0 or 1, for every model,
    and every record of a task must carry the same modality. Violations
    raise :class:`TraceFormatError` naming the offending line.
    """
    models: list[TraceModel] = []
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
            if not isinstance(entry, dict):
                raise TypeError("must be an object")
            modalities, error_prob = entry["modalities"], entry.get("error_prob", {})
            if not (isinstance(modalities, list) and modalities
                    and all(m in (TEXT, VISION) for m in modalities)):
                raise ValueError("modalities must be a non-empty list of 'text'/'vision'")
            if not isinstance(error_prob, dict):
                raise TypeError("error_prob must be an object")
            if not _positive_finite(entry["size"]):
                raise ValueError("size must be a positive finite number")
            for task, p in error_prob.items():
                if isinstance(p, bool) or not isinstance(p, (int, float)) or not 0 <= p <= 1:
                    raise ValueError(f"error_prob of task {task!r} must be a number in [0, 1]")
            models.append(TraceModel(
                str(entry["id"]), float(entry["size"]), frozenset(modalities),
                {str(k): float(v) for k, v in error_prob.items()},
            ))
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
        if not _positive_finite(size):
            raise TraceFormatError(f"line {lineno}: size_units must be a positive finite number")
        if not isinstance(record["correctness"], dict):
            raise TraceFormatError(f"line {lineno}: correctness must be an object")
        bits: list[int | None] = [None] * len(models)
        for model_id, value in record["correctness"].items():
            if model_id not in column:
                raise TraceFormatError(
                    f"line {lineno}: unknown model_id {model_id!r} in correctness"
                )
            if type(value) is not int or value not in (0, 1):
                raise TraceFormatError(
                    f"line {lineno}: correctness values must be 0 or 1, got {value!r}"
                )
            bits[column[model_id]] = value
        missing = [m.model_id for m, bit in zip(models, bits) if bit is None]
        if missing:
            raise TraceFormatError(
                f"line {lineno}: correctness missing models {sorted(missing)}"
            )
        jobs.append(TraceRecord(task, float(size), tuple(bits)))
    for model in models:
        for task in model.error_prob:
            if task not in modality:
                raise TraceFormatError(
                    f"line 1: error_prob of model {model.model_id!r} names task {task!r}, "
                    "which no record carries"
                )
    return models, jobs, modality


def _parse_json_line(line: str, lineno: int) -> dict:
    try:
        value = json.loads(line)
    except json.JSONDecodeError as exc:
        raise TraceFormatError(f"line {lineno}: invalid JSON: {exc}") from exc
    if not isinstance(value, dict):
        raise TraceFormatError(f"line {lineno}: expected a JSON object")
    return value


def trace_pools(
    jobs: Sequence[TraceRecord],
) -> tuple[list[str], list[list[tuple[float, tuple[int, ...]]]]]:
    """The recorded task ids, sorted, and one pool of (size, bits) pairs per
    task index, in record order."""
    pools: dict[str, list[tuple[float, tuple[int, ...]]]] = {}
    for job in jobs:
        pools.setdefault(job.task_type, []).append((job.size_units, job.correctness))
    tasks = sorted(pools)
    return tasks, [pools[t] for t in tasks]
