"""Per-node, per-task expert machinery: joint threshold-destination experts,
action distributions with exploration mixing, and exponential weights.

A joint expert pairs an offload threshold with a destination: it recommends
offloading there when the local confidence falls below the threshold, and
local termination otherwise. Weights over the joint expert grid are the
softmax of negated cumulative estimated losses; each action's probability
aggregates the weights of every expert recommending it, into one array over
{terminate} + destinations that is sampled by one uniform draw against its
cumulative sum.
"""
from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

DEFAULT_THRESHOLDS = tuple(round(0.1 * i, 1) for i in range(11))


@dataclass(frozen=True)
class ExpertGrid:
    """Joint expert space at one node: thresholds x uplink destinations."""

    thresholds: tuple[float, ...]
    destinations: tuple[str, ...]

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

    Both arrays have one entry per action: index 0 terminates, index i
    offloads to the node's i-th destination.
    """

    __slots__ = ("raw", "mixed")

    def __init__(self, raw: np.ndarray, exploration_rate: float) -> None:
        self.raw = raw
        self.mixed = (1.0 - exploration_rate) * raw + exploration_rate / len(raw)

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one action index from the mixed distribution.

        One uniform draw against the cumulative sum: the same index, and the
        same generator state afterwards, as ``rng.choice(len(p), p=p)``.
        """
        p = self.mixed / self.mixed.sum()
        cdf = p.cumsum()
        cdf /= cdf[-1]
        return int(cdf.searchsorted(rng.random(), side="right"))


class _TableEntry:
    __slots__ = ("cum_loss", "weights", "entropy")

    def __init__(self, shape: tuple[int, int]) -> None:
        self.cum_loss = np.zeros(shape)
        self.weights = np.full(shape, 1.0 / (shape[0] * shape[1]))
        self.entropy = float(np.log(shape[0] * shape[1]))


class ExpertTable:
    """Weights and cumulative losses for every (node, task) expert grid.

    Weight refreshes happen between slots: ``accumulate_loss`` only adds to
    the cumulative losses, and ``refresh_dirty``, called once at the end of
    each slot, recomputes the touched tables. All decisions and reach
    probabilities within a slot therefore see the slot-start weights. Tables
    refresh in the order they first accumulated, so the running entropy sum
    is the same in every process.
    """

    def __init__(
        self,
        grids: Mapping[str, ExpertGrid],
        tasks: Sequence[str],
        learning_rate: float,
        exploration_rate: float,
    ) -> None:
        if not 0.0 < exploration_rate < 1.0:
            raise ValueError("exploration rate must lie in (0, 1)")
        if learning_rate <= 0:
            raise ValueError("learning rate must be positive")
        self.grids = dict(grids)
        self.tasks = tuple(tasks)
        self.learning_rate = float(learning_rate)
        self.exploration_rate = float(exploration_rate)
        self._entries: dict[tuple[str, str], _TableEntry] = {
            (node, task): _TableEntry(grid.shape)
            for node, grid in self.grids.items()
            for task in self.tasks
        }
        self._dirty: dict[tuple[str, str], None] = {}
        self._entropy_sum = float(sum(e.entropy for e in self._entries.values()))

    def entry_keys(self) -> tuple[tuple[str, str], ...]:
        return tuple(self._entries)

    def cum_loss(self, node: str, task: str) -> np.ndarray:
        return self._entries[(node, task)].cum_loss

    def update_weights(self, node: str, task: str) -> np.ndarray:
        """Recompute the softmax of negated cumulative losses (stable form)."""
        entry = self._entries[(node, task)]
        scaled = -self.learning_rate * entry.cum_loss
        scaled -= scaled.max()
        expd = np.exp(scaled)
        entry.weights = expd / expd.sum()
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.where(entry.weights > 0, np.log(entry.weights), 0.0)
        self._entropy_sum -= entry.entropy
        entry.entropy = float(-(entry.weights * logs).sum())
        self._entropy_sum += entry.entropy
        return entry.weights

    def weights(self, node: str, task: str) -> np.ndarray:
        return self._entries[(node, task)].weights

    def action_probs(self, node: str, task: str, z: float) -> ActionDistribution:
        """Aggregate expert weights into action probabilities given confidence z.

        Experts whose threshold exceeds z vote for their destination; all
        others vote for local termination. Thresholds increase, so the
        offloading experts are the rows from the first threshold above z on.
        """
        w = self._entries[(node, task)].weights
        cut = bisect_right(self.grids[node].thresholds, z)
        raw = np.empty(w.shape[1] + 1)
        raw[0] = w[:cut].sum()
        raw[1:] = w[cut:].sum(axis=0)
        return ActionDistribution(raw, self.exploration_rate)

    def accumulate_loss(self, node: str, task: str, per_expert_losses: np.ndarray) -> None:
        """Add one job's estimated losses for every expert of (node, task)."""
        if not np.all(np.isfinite(per_expert_losses)):
            raise ValueError(f"non-finite loss estimate at ({node}, {task})")
        self._entries[(node, task)].cum_loss += per_expert_losses
        self._dirty[(node, task)] = None

    def refresh_dirty(self) -> None:
        """Recompute the weights of every table that accumulated losses."""
        for node, task in self._dirty:
            self.update_weights(node, task)
        self._dirty.clear()

    def mean_entropy(self) -> float:
        """Mean expert-weight entropy over all (node, task) tables."""
        return self._entropy_sum / len(self._entries)
