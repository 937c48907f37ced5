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

Weights change only in :meth:`ExpertTable.update_weights`, so between two
refreshes of a table its action distribution depends only on the cut. Each
table caches its distributions by cut, at most T+1 of them, and drops them
when it refreshes; a distribution holds tuples, since jobs and slots share
it. numpy makes the raw row in two reductions; the rest of the build is a
handful of Python float operations in numpy's order, with
:func:`add_reduce` for numpy's summation order, so it keeps numpy's bits.
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


class _TableEntry:
    __slots__ = ("thresholds", "cum_loss", "weights", "entropy", "dists")

    def __init__(self, grid: ExpertGrid) -> None:
        rows, cols = grid.shape
        self.thresholds = grid.thresholds
        self.cum_loss = np.zeros((rows, cols))
        self.weights = np.full((rows, cols), 1.0 / (rows * cols))
        self.entropy = float(np.log(rows * cols))
        # the current weights' action distribution per cut
        self.dists: dict[int, ActionDistribution] = {}


class ExpertTable:
    """Weights and cumulative losses for every (node, task) expert grid, keyed
    by node index and task index, node-major.

    Weight refreshes happen between slots: ``accumulate_loss`` only adds to
    the cumulative losses, and ``refresh_dirty``, called once at the end of
    each slot, recomputes the touched tables. All decisions and reach
    probabilities within a slot therefore see the slot-start weights. Tables
    refresh in the order they first accumulated, so the running entropy sum
    is the same in every process. ``update_weights`` is the only writer of a
    table's weights: it replaces the array, never writing into it, so a
    reference to it is a snapshot, and it drops the table's cached
    distributions.
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
        self._entries: dict[tuple[int, int], _TableEntry] = {
            (node, task): _TableEntry(grid)
            for node, grid in self.grids.items()
            for task in range(num_tasks)
        }
        self._dirty: dict[tuple[int, int], None] = {}
        # left to right: sum() of floats compensates from Python 3.12
        self._entropy_sum = reduce(add, (e.entropy for e in self._entries.values()), 0.0)

    def update_weights(self, node: int, task: int) -> np.ndarray:
        """Recompute the softmax of negated cumulative losses (stable form)."""
        entry = self._entries[(node, task)]
        scaled = -self.learning_rate * entry.cum_loss
        scaled -= _max(scaled, axis=None)
        expd = np.exp(scaled)
        entry.weights = w = expd / _sum(expd, axis=None)
        entry.dists.clear()
        logs = np.log(w, out=np.zeros(w.shape), where=w > 0)
        self._entropy_sum -= entry.entropy
        entry.entropy = float(-_sum(w * logs, axis=None))
        self._entropy_sum += entry.entropy
        return w

    def weights(self, node: int, task: int) -> np.ndarray:
        return self._entries[(node, task)].weights

    def entries(self, node: int) -> list[_TableEntry]:
        """The node's tables by task index; each one's ``weights`` attribute
        is its current weights array."""
        return [self._entries[(node, task)] for task in range(self.num_tasks)]

    def action_probs(self, node: int, task: int, z: float) -> ActionDistribution:
        """Aggregate expert weights into action probabilities given confidence z.

        Experts whose threshold exceeds z vote for their destination; all
        others vote for local termination. Thresholds increase, so the
        offloading experts are the rows from the first threshold above z on;
        the returned distribution keeps that row as its ``cut``. It is built
        on the first call for its cut since the table's last refresh, and
        shared by every later one.
        """
        entry = self._entries[(node, task)]
        cut = bisect_right(entry.thresholds, z)
        dist = entry.dists.get(cut)
        if dist is None:
            w = entry.weights
            raw = np.empty(w.shape[1] + 1)
            raw[0] = _sum(w[:cut], axis=None)
            raw[1:] = _sum(w[cut:], axis=0)
            dist = entry.dists[cut] = ActionDistribution(
                raw.tolist(), self.exploration_rate, cut
            )
        return dist

    def accumulate_loss(
        self, node: int, task: int, cut: int, terminate, offload
    ) -> None:
        """Add one job's estimated expert losses at (node, task).

        The float ``terminate`` is added to the experts of rows ``[:cut]``,
        ``offload`` (one value per destination) to those of rows ``[cut:]``.
        The array ``offload`` broadcasts, so ``cut=0`` with a full matrix as
        ``offload`` adds that matrix. A non-finite value that would land in the table is
        rejected before anything is added.
        """
        key = (node, task)
        cum = self._entries[key].cum_loss
        rows = len(cum)
        if (cut and not math.isfinite(terminate)) or (
            cut < rows and not all(map(math.isfinite, offload.ravel().tolist()))
        ):
            raise ValueError(f"non-finite loss estimate at ({node}, {task})")
        if cut:
            cum[:cut] += terminate
        if cut < rows:
            cum[cut:] += offload
        self._dirty[key] = None

    def refresh_dirty(self) -> None:
        """Recompute the weights of every table that accumulated losses."""
        for node, task in self._dirty:
            self.update_weights(node, task)
        self._dirty.clear()

    def mean_entropy(self) -> float:
        """Mean expert-weight entropy over all (node, task) tables."""
        return self._entropy_sum / len(self._entries)
