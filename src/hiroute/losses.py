"""Loss estimation under terminal-only feedback.

A job's loss at a node is only observed when its realized path reaches the
terminal layer, which happens with a reach probability that shrinks
multiplicatively with depth. Two estimators of the per-expert full-feedback
loss are provided:

* importance-weighted ("naive"): loss / reach_prob on feedback, else 0;
* variance-reduced: (loss - baseline) / reach_prob + baseline on feedback,
  else the baseline alone.

Both are exactly unbiased over the feedback Bernoulli; the second trades the
importance weight's full magnitude for the residual against a task- and
expert-conditioned baseline (see :class:`BaselineTable`).

The recursion helpers compute, per job, the probability of reaching the
terminal layer from each node and the expected downstream loss of standing
at each node, walking the hierarchy backward from the terminal layer. They
query one node at a time so the structure mirrors the message exchange a
distributed deployment would need.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .policy import ActionDistribution, ExpertGrid
from .topology import Topology


def naive_estimate(f: float, rho: float, fb: bool) -> float:
    """Importance-weighted loss estimate: f / rho on feedback, else 0."""
    if not 0.0 < rho <= 1.0:
        raise ValueError("reach probability must lie in (0, 1]")
    return f / rho if fb else 0.0


def vr_estimate(f: float, baseline: float, rho: float, fb: bool) -> float:
    """Variance-reduced estimate: baseline plus importance-weighted residual.

    Without feedback the estimate is the baseline itself, so learning can
    proceed between observations.
    """
    if not 0.0 < rho <= 1.0:
        raise ValueError("reach probability must lie in (0, 1]")
    return (f - baseline) / rho + baseline if fb else baseline


def variance_pair(f: float, baseline: float, rho: float) -> tuple[float, float]:
    """Closed-form variances of both estimators over the feedback Bernoulli.

    var_naive = f^2 (1-rho)/rho, var_vr = (f-baseline)^2 (1-rho)/rho. Used by
    tests; the variance-reduced form is never larger when 0 < baseline <= 2f.
    """
    if not 0.0 < rho < 1.0:
        raise ValueError("variance comparison needs rho in (0, 1)")
    factor = (1.0 - rho) / rho
    return f * f * factor, (f - baseline) ** 2 * factor


class BaselineTable:
    """Queue-aware baselines for the variance-reduced estimator.

    Any baseline that is measurable at decision time cancels in expectation,
    so the estimator stays exactly unbiased. The baseline is a plug-in
    estimate of each expert's loss: the parts of the loss that are
    observable when the job is routed (the threshold indicator, the hop
    cost, the uplink queue values) enter exactly; only the hidden quantities
    are EMA-estimated from feedback — the local error rate and each
    destination's expected downstream loss. Because queue values enter live,
    the baseline follows congestion within a slot instead of waiting for the
    next terminal observation.
    """

    def __init__(
        self,
        grids: Mapping[str, ExpertGrid],
        tasks: Sequence[str],
        ema_rate: float,
    ) -> None:
        if not 0.0 < ema_rate <= 1.0:
            raise ValueError("EMA rate must lie in (0, 1]")
        self.ema_rate = float(ema_rate)
        # hidden state per (node, task): the local error rate and each
        # destination's queue-free expected downstream loss (the
        # queue-dependent share of the downstream loss is deliberately left
        # out of the baseline: it is small, and chasing it through the
        # estimate stream adds churn without information)
        self._local_error: dict[tuple[str, str], float] = {
            (node, task): 0.0 for node in grids for task in tasks
        }
        self._down_base: dict[tuple[str, str], np.ndarray] = {
            (node, task): np.zeros(len(grid.destinations))
            for node, grid in grids.items()
            for task in tasks
        }
        self.condition_violations = 0  # times a used baseline fell outside (0, 2f]

    def plugin_values(
        self,
        node: str,
        task: str,
        offload_mask: np.ndarray,
        queue_row: np.ndarray,
        hop_cost: float,
        error_weight: float,
        zero_downstream: bool = False,
    ) -> np.ndarray:
        """Queue-aware baseline matrix for one visited job.

        ``offload_mask`` is the per-threshold indicator (threshold above the
        job's confidence), ``queue_row`` the uplink queue values at the
        job's slot. Offload experts pay the live queue-weighted hop cost
        plus the estimated queue-free downstream loss; local experts pay the
        weighted estimated local error rate.
        """
        key = (node, task)
        offload_row = queue_row * hop_cost
        if not zero_downstream:
            offload_row = offload_row + self._down_base[key]
        local = error_weight * self._local_error[key]
        return np.where(offload_mask[:, None], offload_row[None, :], local)

    def update_hidden(
        self,
        node: str,
        task: str,
        local_error: float,
        down_base: np.ndarray,
    ) -> None:
        """EMA the hidden quantities revealed by one terminal observation."""
        key = (node, task)
        r = self.ema_rate
        self._local_error[key] = (1.0 - r) * self._local_error[key] + r * float(local_error)
        self._down_base[key] *= 1.0 - r
        self._down_base[key] += r * down_base

    def mean_local_error(self) -> float:
        """Mean estimated local error rate across all (node, task) baselines."""
        return float(np.mean(list(self._local_error.values())))

    def count_violations(self, beta: np.ndarray, losses: np.ndarray) -> None:
        bad = ~((beta > 0.0) & (beta <= 2.0 * losses))
        self.condition_violations += int(bad.sum())


# Per-job view of one node used by the backward recursion.
@dataclass(frozen=True)
class NodeJobView:
    dists: ActionDistribution
    local_error: int
    confidence: float


class DownstreamLossOracle:
    """Backward recursion over one job: reach probabilities and expected losses.

    ``view_of(node_id)`` must return the node's slot-start action
    distributions, realized local error, and confidence for the job; terminal
    nodes are never queried. The reach probability uses the mixed
    distribution the route was actually sampled from, which keeps the
    estimators unbiased; the expected loss uses the raw expert aggregate.
    """

    def __init__(
        self,
        topo: Topology,
        view_of: Callable[[str], NodeJobView],
        queue: Mapping[str, float],
        error_weight: float,
        hop_cost: float,
    ) -> None:
        self.topo = topo
        self.view_of = view_of
        self.queue = queue
        self.error_weight = float(error_weight)
        self.hop_cost = float(hop_cost)
        self._rho: dict[str, float] = {}
        self._fbar: dict[str, float] = {}
        self._decomp: dict[str, tuple[float, np.ndarray]] = {}

    def reach_prob(self, node_id: str) -> float:
        """Probability the job reaches the terminal layer from this node."""
        if node_id in self._rho:
            return self._rho[node_id]
        if self.topo.is_terminal(node_id):
            rho = 1.0
        else:
            dists = self.view_of(node_id).dists
            rho = float(
                sum(
                    p * self.reach_prob(dest)
                    for p, dest in zip(dists.mixed_offload, dists.destinations)
                )
            )
        if rho <= 0.0:
            raise ValueError(f"reach probability vanished at {node_id}")
        self._rho[node_id] = rho
        return rho

    def expected_loss(self, node_id: str) -> float:
        """Expected loss of the job standing at this node under current policies.

        Terminal nodes answer perfectly at no further cost. Elsewhere the
        termination branch pays the weighted local error and each offload
        branch pays the queue-weighted hop cost plus the destination's own
        expected loss.
        """
        if node_id in self._fbar:
            return self._fbar[node_id]
        if self.topo.is_terminal(node_id):
            self._fbar[node_id] = 0.0
            return 0.0
        view = self.view_of(node_id)
        total = self.error_weight * view.dists.raw_terminate * view.local_error
        for p, dest in zip(view.dists.raw_offload, view.dists.destinations):
            total += p * (
                self.queue.get(dest, 0.0) * self.hop_cost + self.expected_loss(dest)
            )
        self._fbar[node_id] = float(total)
        return self._fbar[node_id]

    def expected_loss_decomposition(
        self, node_id: str, queue_index: Mapping[str, int]
    ) -> tuple[float, np.ndarray]:
        """Split the expected loss into a queue-free part and queue weights.

        The expected loss is affine in the current queue vector:
        base + hop_cost * (weights . q), where the weights are visit
        probabilities accumulated along the downstream action distributions.
        Both pieces are queue-value-free, so a baseline can re-evaluate them
        against fresh queue readings.
        """
        if node_id in self._decomp:
            return self._decomp[node_id]
        if self.topo.is_terminal(node_id):
            result = (0.0, np.zeros(len(queue_index)))
            self._decomp[node_id] = result
            return result
        view = self.view_of(node_id)
        base = self.error_weight * view.dists.raw_terminate * view.local_error
        weights = np.zeros(len(queue_index))
        for p, dest in zip(view.dists.raw_offload, view.dists.destinations):
            down_base, down_weights = self.expected_loss_decomposition(dest, queue_index)
            base += p * down_base
            weights += p * down_weights
            weights[queue_index[dest]] += p
        result = (float(base), weights)
        self._decomp[node_id] = result
        return result

    def expert_loss_matrix(
        self, node_id: str, grid: ExpertGrid, zero_downstream: bool = False
    ) -> np.ndarray:
        """All experts' full-feedback losses at once, shaped like the grid."""
        view = self.view_of(node_id)
        local = self.error_weight * view.local_error
        offload_row = np.array(
            [
                self.queue.get(dest, 0.0) * self.hop_cost
                + (0.0 if zero_downstream else self.expected_loss(dest))
                for dest in grid.destinations
            ]
        )
        mask = np.asarray(grid.thresholds) > view.confidence
        return np.where(mask[:, None], offload_row[None, :], local)
