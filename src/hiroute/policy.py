"""Per-node, per-task expert machinery: joint threshold-destination experts,
action distributions with exploration mixing, and exponential weights.

A joint expert pairs an offload threshold with a destination: it recommends
offloading there when the local confidence falls below the threshold, and
local termination otherwise. Weights over the joint expert grid are the
softmax of negated cumulative estimated losses; each action's probability
aggregates the weights of every expert recommending it, into one row over
{terminate} + destinations that is sampled by one uniform draw against its
cumulative sum.

:meth:`ExpertTable.action_probs` applies the threshold rule per job; the
distribution keeps its cut, ``bisect_right(thresholds, z)``, for the losses.
:func:`raw_rows` gives the same raw rows in bulk, for the regret diagnostic.
A job sees a node's experts only through that cut: rows ``[:cut]`` terminate
and rows ``[cut:]`` offload, so one job's losses at a node take D+1 distinct
values, a terminate value and an offload row of D, which
:meth:`ExpertTable.accumulate_loss` adds as ``(cut, terminate, offload)``.

A slot's end queues the tables it touched, and their weights are computed
later, in one batch of every queued table: :func:`stacked_weights` per grid
shape. This is deferred, not delayed: a queued table's losses cannot change
before its weights are computed (see :class:`ExpertTable`), so the batch
gives the weights, entropies and running entropy sum that refreshing each
table at its slot's end gives, bit for bit. A table's weights are the value
of the snapshot holder its last refresh made, ``None`` while it is queued.
Weights change only in :meth:`ExpertTable.update_weights`, the batch, which
fills each holder with a new array that is never written, so a reference to
a table's weights, or to its holder, stays a snapshot.

Between two refreshes of a table its action distribution depends only on
the cut. Each table caches its distributions by cut, at most T+1 of them,
and drops them when it is queued; a distribution holds tuples, since jobs
and slots share it. numpy makes the raw row in two reductions, read straight
into a list; the rest of the build is a handful of Python float operations
in numpy's order, with :func:`add_reduce` for numpy's summation order, so it
keeps numpy's bits.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate
from operator import add
from typing import Mapping, Sequence

import numpy as np

DEFAULT_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(11))

# ndarray.sum() and .max() reach these reductions through a Python-level
# wrapper; the per-job paths call them directly, for the same bits
_sum = np.add.reduce
_max = np.maximum.reduce


def add_reduce(values: Sequence[float]) -> float:
    """``np.add.reduce`` of a contiguous float64 run, bit for bit: left to
    right below 8 values; up to 128, eight running sums over the whole
    blocks of 8, added as a tree, then the rest left to right; beyond that,
    the sums of two halves split at a multiple of 8."""
    n = len(values)
    if n < 8:
        return reduce(add, values, 0.0)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return add_reduce(values[:half]) + add_reduce(values[half:])
    stop = n - n % 8
    r = values[:8]
    for i in range(8, stop, 8):
        r = [a + b for a, b in zip(r, values[i:i + 8])]
    tree = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]))
    return reduce(add, values[stop:], tree)


def raw_rows(stack: np.ndarray) -> np.ndarray:
    """Every cut's raw row of each of ``B`` stacked weights arrays of one
    shape ``(B, rows, D)``: entry ``[b, cut]`` is the row of D+1 that
    :meth:`ExpertTable.action_probs` builds from ``stack[b]`` at that cut,
    bit for bit. A row of ``c·D`` weights reduced along axis 1 adds as
    ``add.reduce`` of the contiguous block ``w[:c]``, and ``(B, rows - c, D)``
    reduced along axis 1 as ``w[c:]`` along axis 0."""
    count, rows, d = stack.shape
    out = np.empty((count, rows + 1, d + 1))
    for cut in range(rows + 1):
        out[:, cut, 0] = _sum(stack[:, :cut].reshape(count, cut * d), axis=1)
        out[:, cut, 1:] = _sum(stack[:, cut:], axis=1)
    return out


def stacked_weights(
    losses: np.ndarray, learning_rate: float
) -> tuple[np.ndarray, np.ndarray]:
    """The weights and entropies of ``B`` tables' cumulative losses stacked
    ``(B, rows, D)``: per table the softmax of ``-learning_rate`` times its
    losses, less their maximum first, and ``-Σ w·log w`` over its nonzero
    weights. A row of the ``(B, rows·D)`` block reduced along axis 1 adds
    as ``axis=None`` on its table alone, so each table gets the bits it
    would alone. Both results are new arrays."""
    scaled = -learning_rate * losses.reshape(len(losses), -1)
    scaled -= _max(scaled, axis=1, keepdims=True)
    expd = np.exp(scaled)
    w = expd / _sum(expd, axis=1, keepdims=True)
    logs = np.log(w, out=np.zeros(w.shape), where=w > 0)
    return w.reshape(losses.shape), -_sum(w * logs, axis=1)


@dataclass(frozen=True)
class ExpertGrid:
    """Joint expert space at one node: thresholds x uplink destination indices."""

    thresholds: tuple[float, ...]
    destinations: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.thresholds or not self.destinations:
            raise ValueError("expert grid needs thresholds and destinations")
        arr = np.asarray(self.thresholds)
        if np.any(arr < 0) or np.any(arr > 1):
            raise ValueError("thresholds must lie in [0, 1]")
        if np.any(np.diff(arr) <= 0):
            raise ValueError("thresholds must be strictly increasing")

    @property
    def shape(self) -> tuple[int, int]:
        return (len(self.thresholds), len(self.destinations))

    @property
    def size(self) -> int:
        return len(self.thresholds) * len(self.destinations)


class ActionDistribution:
    """Raw and exploration-mixed probabilities over {terminate} + destinations.

    ``raw``, ``mixed`` and ``cdf`` are tuples of Python floats with one entry
    per action: index 0 terminates, index i offloads to the node's i-th
    destination. ``cut`` is the number of thresholds at or below the job's
    confidence: the experts of rows ``[:cut]`` terminate, those of rows
    ``[cut:]`` offload.

    The build keeps the bits of numpy's formula on the raw row r of n
    entries at exploration rate λ: ``mixed = (1 - λ) * r + λ / n``, then
    ``cdf = cumsum(mixed / add.reduce(mixed))`` as a running sum, divided by
    its last entry.
    """

    __slots__ = ("raw", "mixed", "cdf", "cut")

    def __init__(self, raw: Sequence[float], exploration_rate: float, cut: int) -> None:
        keep = 1.0 - exploration_rate
        floor = exploration_rate / len(raw)
        self.raw = raw = tuple(raw)
        self.mixed = mixed = tuple([keep * p + floor for p in raw])
        total = add_reduce(mixed)
        cdf = list(accumulate([p / total for p in mixed]))
        last = cdf[-1]
        self.cdf = tuple([c / last for c in cdf])
        self.cut = cut

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one action index from the mixed distribution.

        One uniform draw against the cumulative sum: the same index, and the
        same generator state afterwards, as ``rng.choice(len(p), p=p)``.
        """
        return bisect_right(self.cdf, rng.random())


class _Snapshot:
    """A value the batch that computes it fills in: one refresh's weights
    array, or one slot's mean entropy. Never written afterwards."""

    __slots__ = ("value",)

    def __init__(self, value=None) -> None:
        self.value = value


class _TableEntry:
    """One (node, task) table. Its weights are ``snapshot.value``; each
    refresh installs a new holder, ``None`` while the table waits in the
    queue for its batch."""

    __slots__ = ("thresholds", "row", "cum_loss", "snapshot", "entropy", "dists")

    def __init__(self, thresholds: tuple[float, ...], block: np.ndarray, row: int) -> None:
        _, rows, cols = block.shape
        self.thresholds = thresholds
        # row ``row`` of the (tables, rows, cols) block of the grid's shape
        self.row = row
        self.cum_loss = block[row]
        self.snapshot = _Snapshot(np.full((rows, cols), 1.0 / (rows * cols)))
        self.entropy = float(np.log(rows * cols))
        # the current weights' action distribution per cut
        self.dists: dict[int, ActionDistribution] = {}


class ExpertTable:
    """Weights and cumulative losses for every (node, task) expert grid, keyed
    by node index and task index, node-major. The cumulative losses of all
    tables of one grid shape are rows of one ``(tables, rows, D)`` block.

    Weight refreshes happen between slots: ``accumulate_loss`` only adds to
    the cumulative losses, and ``refresh_dirty``, called once at the end of
    each slot, queues the touched tables in the order they first
    accumulated (``_dirty`` holds the tables themselves, in that order),
    gives each a new, empty ``snapshot`` and drops its cached
    distributions. ``update_weights``
    then computes every queued table in one batch, one stacked kernel per
    grid shape, and replays the running entropy sum table by table in queue
    order, so it is the same in every process. A batch runs when a queued
    table is next read, when losses reach a queued table, and on
    :meth:`flush`. The engine accumulates at a node only after reading its
    table in the same slot, and an accumulate into a queued table computes
    the batch first, so a queued table's losses never change before its
    weights are computed: they are the weights a refresh at the end of the
    slot would have given, and all decisions and reach probabilities within
    a slot see the slot-start weights.

    A table's weights are its ``snapshot.value``, ``None`` while it is
    queued. ``update_weights`` is the only writer of them: it fills each
    queued table's ``snapshot``, a holder made at each refresh, with a new
    array that nobody writes into. A reference to a table's ``snapshot``
    taken before the end of a slot therefore holds that slot's start
    weights once a batch has run.
    """

    def __init__(
        self,
        grids: Mapping[int, ExpertGrid],
        num_tasks: int,
        learning_rate: float,
        exploration_rate: float,
    ) -> None:
        if not 0.0 < exploration_rate < 1.0:
            raise ValueError("exploration rate must lie in (0, 1)")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.grids = dict(grids)
        self.num_tasks = num_tasks
        self.learning_rate = float(learning_rate)
        self.exploration_rate = float(exploration_rate)
        shapes = [grid.shape for grid in self.grids.values()]
        self._blocks = {
            shape: np.zeros((shapes.count(shape) * num_tasks, *shape)) for shape in shapes
        }
        free_row = {shape: iter(range(len(block))) for shape, block in self._blocks.items()}
        self._entries: dict[tuple[int, int], _TableEntry] = {
            (node, task): _TableEntry(
                grid.thresholds, self._blocks[grid.shape], next(free_row[grid.shape])
            )
            for node, grid in self.grids.items()
            for task in range(num_tasks)
        }
        # the tables that accumulated since the last slot end, in
        # first-accumulate order
        self._dirty: dict[_TableEntry, None] = {}
        # the queued tables in refresh order, each slot end's mean-entropy
        # holder after the tables it queued
        self._queue: list[_TableEntry | _Snapshot] = []
        # left to right: sum() of floats compensates from Python 3.12
        self._entropy_sum = reduce(add, (e.entropy for e in self._entries.values()), 0.0)

    def update_weights(self) -> None:
        """Compute every queued table's weights and entropy, one
        :func:`stacked_weights` per grid shape; then replay the running
        entropy sum in queue order and fill each queued slot end's mean."""
        queue = self._queue
        groups: dict[tuple[int, int], list[_TableEntry]] = {}
        for entry in queue:
            if type(entry) is _TableEntry:
                groups.setdefault(entry.cum_loss.shape, []).append(entry)
        entropy_of = {}
        for shape, entries in groups.items():
            weights, entropies = stacked_weights(
                self._blocks[shape][[entry.row for entry in entries]], self.learning_rate
            )
            for entry, w, h in zip(entries, weights, entropies.tolist()):
                # an array of its own: a view would keep the batch alive as
                # long as any of its tables goes unrefreshed
                entry.snapshot.value = w.copy()
                entropy_of[entry] = h
        total = self._entropy_sum
        for item in queue:
            if type(item) is _Snapshot:
                item.value = total / len(self._entries)
            else:
                total -= item.entropy
                item.entropy = entropy_of[item]
                total += item.entropy
        self._entropy_sum = total
        queue.clear()

    def flush(self) -> None:
        """Compute the queued tables, if there are any."""
        if self._queue:
            self.update_weights()

    def weights(self, node: int, task: int) -> np.ndarray:
        snapshot = self._entries[(node, task)].snapshot
        if snapshot.value is None:
            self.update_weights()
        return snapshot.value

    def entries(self, node: int) -> list[_TableEntry]:
        """The node's tables by task index; each one's ``snapshot`` attribute
        holds its current refresh's weights, once computed."""
        return [self._entries[(node, task)] for task in range(self.num_tasks)]

    def action_probs(self, node: int, task: int, z: float) -> ActionDistribution:
        """Aggregate expert weights into action probabilities given confidence z.

        Experts whose threshold exceeds z vote for their destination; all
        others vote for local termination. Thresholds increase, so the
        offloading experts are the rows from the first threshold above z on;
        the returned distribution keeps that row as its ``cut``. It is built
        on the first call for its cut since the table's last refresh, and
        shared by every later one; the first build of a queued table
        computes the batch.
        """
        entry = self._entries[(node, task)]
        cut = bisect_right(entry.thresholds, z)
        dist = entry.dists.get(cut)
        if dist is None:
            w = entry.snapshot.value
            if w is None:
                self.update_weights()
                w = entry.snapshot.value
            raw = [float(_sum(w[:cut], axis=None)), *_sum(w[cut:], axis=0).tolist()]
            dist = entry.dists[cut] = ActionDistribution(raw, self.exploration_rate, cut)
        return dist

    def accumulate_loss(
        self, node: int, task: int, cut: int, terminate, offload
    ) -> None:
        """Add one job's estimated expert losses at (node, task).

        The float ``terminate`` is added to the experts of rows ``[:cut]``,
        ``offload`` (a list or array of one value per destination) to those
        of rows ``[cut:]``. An array ``offload`` broadcasts, so ``cut=0``
        with a full matrix as ``offload`` adds that matrix. A non-finite
        value that would land in the table is rejected before anything is
        added. A queued table's batch is computed before its losses change.
        """
        entry = self._entries[(node, task)]
        cum = entry.cum_loss
        rows = len(cum)
        values = offload.ravel().tolist() if type(offload) is np.ndarray else offload
        if (cut and not math.isfinite(terminate)) or (
            cut < rows and not all(map(math.isfinite, values))
        ):
            raise ValueError(f"non-finite loss estimate at ({node}, {task})")
        if entry.snapshot.value is None:
            self.update_weights()
        if cut:
            cum[:cut] += terminate
        if cut < rows:
            cum[cut:] += offload
        self._dirty[entry] = None

    def refresh_dirty(self) -> _Snapshot:
        """End a slot: queue every table that accumulated losses since the
        last call. Returns the holder of the mean entropy over all tables
        after their refreshes, filled by the batch that computes them."""
        queue = self._queue
        for entry in self._dirty:
            entry.snapshot = _Snapshot()
            entry.dists.clear()
            queue.append(entry)
        self._dirty.clear()
        slot_end = _Snapshot()
        if queue:
            queue.append(slot_end)
        else:
            slot_end.value = self._entropy_sum / len(self._entries)
        return slot_end

    def mean_entropy(self) -> float:
        """Mean expert-weight entropy over all (node, task) tables, after
        every refresh queued so far; computes the queued tables."""
        self.flush()
        return self._entropy_sum / len(self._entries)
