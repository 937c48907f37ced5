"""Loss estimation under terminal-only feedback.

A job's loss at a node is only observed when its realized path reaches the
terminal layer, which happens with a reach probability that shrinks
multiplicatively with depth. :func:`estimate` is the one estimator of every
expert's full-feedback loss: (loss - baseline) / reach_prob + baseline on
feedback, else the baseline alone. A zero baseline gives the
importance-weighted ("naive") estimate; the variance-reduced one uses the
task- and expert-conditioned baselines of :class:`BaselineTable`. Both are
exactly unbiased over the feedback Bernoulli.

:class:`DownstreamLossOracle` makes one backward sweep per job over integer
node indices, from the deepest non-terminal layer up to the job's entry
node. Per node it computes the probability of reaching the terminal layer,
the expected downstream loss of standing there, and that loss with every
queue at zero; the estimators and the regret diagnostic then look these
values up. It and :class:`BaselineTable` read the threshold rule from the
cut kept by the job's action distribution.

A job's expert losses, baselines and estimates at a node take D+1 distinct
values: every expert of rows ``[:cut]`` terminates and pays one value, every
expert of rows ``[cut:]`` offloads and pays its destination's. They are
passed as a ``(terminate, offload_row)`` pair under the job's cut, never as
a T×D matrix; :func:`estimate` is applied to each part.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from .policy import ActionDistribution, ExpertGrid


def estimate(losses, baseline, rho: float, fb: bool):
    """Loss estimate of every expert: the baseline plus the importance-weighted
    residual on feedback, the baseline alone otherwise.

    A zero baseline gives the importance-weighted estimate, ``losses / rho``
    on feedback and 0 otherwise. Works elementwise on arrays and on scalars.
    """
    if not fb:
        return baseline
    if not 0.0 < rho <= 1.0:
        raise ValueError("reach probability must lie in (0, 1]")
    return (losses - baseline) / rho + baseline


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
        grids: Mapping[int, ExpertGrid],
        num_tasks: int,
        ema_rate: float,
    ) -> None:
        if not 0.0 < ema_rate <= 1.0:
            raise ValueError("EMA rate must lie in (0, 1]")
        self.grids = dict(grids)
        self.ema_rate = float(ema_rate)
        # hidden state per (node index, task index), node-major: the local
        # error rate and each destination's queue-free expected downstream
        # loss (the queue-dependent share of the downstream loss is
        # deliberately left out of the baseline: it is small, and chasing it
        # through the estimate stream adds churn without information)
        self._local_error: dict[tuple[int, int], float] = {
            (node, task): 0.0 for node in grids for task in range(num_tasks)
        }
        self._down_base: dict[tuple[int, int], np.ndarray] = {
            (node, task): np.zeros(len(grid.destinations))
            for node, grid in grids.items()
            for task in range(num_tasks)
        }
        self.condition_violations = 0  # times a used baseline fell outside (0, 2f]

    def plugin_values(
        self,
        node: int,
        task: int,
        cut: int,
        queue_row: np.ndarray,
        hop_cost: float,
        error_weight: float,
        zero_downstream: bool = False,
    ) -> tuple[float, np.ndarray]:
        """Queue-aware baselines of one visited job: ``(terminate, offload_row)``.

        ``cut`` is the job's :attr:`ActionDistribution.cut` at the node (rows
        from ``cut`` on hold thresholds above its confidence), ``queue_row``
        the uplink queue values at the job's slot. Offload experts pay the
        live queue-weighted hop cost plus the estimated queue-free downstream
        loss; local experts pay the weighted estimated local error rate. The
        cut does not change the values, only which rows take them.
        """
        key = (node, task)
        offload_row = queue_row * hop_cost
        if not zero_downstream:
            offload_row = offload_row + self._down_base[key]
        return error_weight * self._local_error[key], offload_row

    def update_hidden(
        self,
        node: int,
        task: int,
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

    def count_violations(
        self,
        node: int,
        cut: int,
        beta: tuple[float, np.ndarray],
        losses: tuple[float, np.ndarray],
    ) -> None:
        """Count the experts whose baseline falls outside (0, 2f].

        ``beta`` and ``losses`` are ``(terminate, offload_row)`` pairs under
        ``cut``: a terminate violation counts once per expert of rows
        ``[:cut]``, an offload violation once per row of ``[cut:]``.
        """
        rows, cols = self.grids[node].shape
        (beta_stop, beta_row), (loss_stop, loss_row) = beta, losses
        bad_stop = not (beta_stop > 0.0 and beta_stop <= 2.0 * loss_stop)
        bad_row = ~((beta_row > 0.0) & (beta_row <= 2.0 * loss_row))
        self.condition_violations += cut * cols * bad_stop + (rows - cut) * int(bad_row.sum())


# A job's record at one node: its realized local error, and the node's
# slot-start action distribution for the job's task, whose ``cut`` places the
# job's confidence on the threshold grid.
NodeRecord = tuple[int, ActionDistribution]


class DownstreamLossOracle:
    """One backward sweep over one job: reach probabilities and expected losses.

    Nodes are integer indices. ``layers`` lists each layer's nodes, entry
    layer first; ``dests`` gives each node's destination indices in the
    order of its action distribution; ``queue`` the slot-start queue of
    every node. ``nodes`` maps the job's entry node and every node strictly
    between the entry and terminal layers to the job's :data:`NodeRecord`
    there.

    The constructor walks the hierarchy once, from the deepest non-terminal
    layer up to the entry node. Each node's values are summed over its
    destinations in destination order, in Python floats:

    * the reach probability of the terminal layer, under the mixed
      distribution the route was actually sampled from, which keeps the
      estimators unbiased;
    * the expected loss, under the raw expert aggregate: the termination
      branch pays the weighted local error, each offload branch the
      destination's offload cost (queue-weighted hop cost plus the
      destination's expected loss);
    * the queue-free expected loss, the same sum with every queue at zero.

    Terminal nodes answer perfectly at no further cost: reach probability 1,
    losses 0. The query methods only look these values up.
    """

    def __init__(
        self,
        layers: Sequence[Sequence[int]],
        entry: int,
        dests: Sequence[Sequence[int]],
        nodes: Mapping[int, NodeRecord],
        queue: Sequence[float],
        error_weight: float,
        hop_cost: float,
    ) -> None:
        self.nodes = nodes
        self.dests = dests
        self.error_weight = error_weight = float(error_weight)
        hop_cost = float(hop_cost)
        terminal = layers[-1]
        self._rho = rhos = dict.fromkeys(terminal, 1.0)
        self._fbar = fbars = dict.fromkeys(terminal, 0.0)
        self._free = frees = dict.fromkeys(terminal, 0.0)
        self._queue_cost = queue_costs = {}
        # queue-weighted hop cost plus expected loss, per node of layers 2..K
        self.offload_cost: dict[int, float] = {}
        offload_costs = self.offload_cost
        for k in range(len(layers) - 1, 0, -1):
            for dest in layers[k]:
                queue_cost = queue[dest] * hop_cost
                queue_costs[dest] = queue_cost
                offload_costs[dest] = queue_cost + fbars[dest]
            for node in layers[k - 1] if k > 1 else (entry,):
                local_error, dist = nodes[node]
                raw = dist.raw_list
                mixed = dist.mixed_list
                rho = 0.0
                fbar = free = error_weight * raw[0] * local_error
                for p_mixed, p_raw, dest in zip(mixed[1:], raw[1:], dests[node]):
                    rho += p_mixed * rhos[dest]
                    fbar += p_raw * offload_costs[dest]
                    free += p_raw * frees[dest]
                rhos[node] = rho
                fbars[node] = fbar
                frees[node] = free

    def reach_prob(self, node: int) -> float:
        """Probability the job reaches the terminal layer from this node."""
        rho = self._rho[node]
        if rho <= 0.0:
            raise ValueError(f"reach probability vanished at node {node}")
        return rho

    def expected_loss(self, node: int) -> float:
        """Expected loss of the job standing at this node under current policies."""
        return self._fbar[node]

    def expected_loss_decomposition(self, node: int) -> float:
        """The queue-free part of the expected loss: every queue at zero.

        Only this part feeds :class:`BaselineTable`, which leaves the
        queue-dependent share of the downstream loss out of the baseline on
        purpose and adds the live queue values at decision time instead.
        """
        return self._free[node]

    def expert_loss_matrix(
        self, node: int, zero_downstream: bool = False
    ) -> tuple[float, np.ndarray]:
        """All experts' full-feedback losses as ``(terminate, offload_row)``.

        Under the cut of the job's distribution at the node, every expert of
        rows ``[:cut]`` pays ``terminate`` and every expert of rows
        ``[cut:]`` its destination's entry of ``offload_row``.
        """
        local_error = self.nodes[node][0]
        costs = self._queue_cost if zero_downstream else self.offload_cost
        return (
            self.error_weight * local_error,
            np.array([costs[dest] for dest in self.dests[node]]),
        )
