"""Loss estimation under terminal-only feedback.

A job's loss at a node is only observed when its realized path reaches the
terminal layer, which happens with a reach probability that shrinks
multiplicatively with depth. :func:`estimate` is the one estimator of every
expert's full-feedback loss: (loss - baseline) / reach_prob + baseline on
feedback, else the baseline alone. A zero baseline gives the
importance-weighted ("naive") estimate; the variance-reduced one uses the
task- and expert-conditioned baselines of :class:`BaselineTable`. Both are
exactly unbiased over the feedback Bernoulli.

:func:`backward_sweep` is the one backward recursion over node indices: in
Python floats for one fed job, whose :class:`DownstreamLossOracle` looks its
values up, and in arrays over the logged jobs the regret diagnostic settles.

A job's expert losses, baselines and estimates at a node take D+1 distinct
values: every expert of rows ``[:cut]`` terminates and pays one value, every
expert of rows ``[cut:]`` offloads and pays its destination's. They are
passed as a ``(terminate, offload_row)`` pair under the job's cut, never as
a T×D matrix; :func:`estimate` is applied to the terminate value and to each
entry of the row. A job's rows are lists of Python floats, each entry the
IEEE operations numpy's elementwise formula makes, in its order: on rows of
1-8 entries a numpy call costs more than its arithmetic. Only the regret
settle's :func:`backward_sweep` works on arrays.
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

    Each (node, task) holds one hidden record, ``(local_error, down_row)``.
    The hidden downstream rows and every row a method returns are lists of
    Python floats, one entry per destination.
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
        # one hidden record per (node index, task index), node-major: the
        # local error rate and each destination's queue-free expected
        # downstream loss (the queue-dependent share of the downstream loss
        # is deliberately left out of the baseline: it is small, and chasing
        # it through the estimate stream adds churn without information)
        self._hidden: dict[tuple[int, int], tuple[float, list[float]]] = {
            (node, task): (0.0, [0.0] * len(grid.destinations))
            for node, grid in grids.items()
            for task in range(num_tasks)
        }
        self.condition_violations = 0  # times a used baseline fell outside (0, 2f]

    def plugin_values(
        self, node: int, task: int, queue_row: Sequence[float], hop_cost: float,
        error_weight: float, zero_downstream: bool = False,
    ) -> tuple[float, list[float]]:
        """Queue-aware baselines of one visited job: ``(terminate, offload_row)``.

        ``queue_row`` holds the uplink queue values at the job's slot. Offload
        experts pay the live queue-weighted hop cost plus the estimated
        queue-free downstream loss; local experts pay the weighted estimated
        local error rate. The job's cut decides which rows take which value.
        """
        local_error, down_row = self._hidden[(node, task)]
        if zero_downstream:
            offload_row = [q * hop_cost for q in queue_row]
        else:
            offload_row = [q * hop_cost + b for q, b in zip(queue_row, down_row)]
        return error_weight * local_error, offload_row

    def update_hidden(
        self, node: int, task: int, local_error: float, down_base: Sequence[float]
    ) -> None:
        """EMA the hidden quantities revealed by one terminal observation:
        each entry ``b * (1 - r) + r * d``, numpy's ``*=`` then ``+=``."""
        r = self.ema_rate
        keep = 1.0 - r
        error, down_row = self._hidden[(node, task)]
        self._hidden[(node, task)] = (keep * error + r * float(local_error),
                                      [b * keep + r * d for b, d in zip(down_row, down_base)])

    def mean_local_error(self) -> float:
        """Mean estimated local error rate across all (node, task) baselines."""
        return float(np.mean([error for error, _ in self._hidden.values()]))

    def count_violations(
        self,
        node: int,
        cut: int,
        beta: tuple[float, Sequence[float]],
        losses: tuple[float, Sequence[float]],
    ) -> None:
        """Count the experts whose baseline falls outside (0, 2f].

        ``beta`` and ``losses`` are ``(terminate, offload_row)`` pairs under
        ``cut``: a terminate violation counts once per expert of rows
        ``[:cut]``, an offload violation once per row of ``[cut:]``. A NaN
        on either side counts as a violation.
        """
        rows, cols = self.grids[node].shape
        (beta_stop, beta_row), (loss_stop, loss_row) = beta, losses
        bad_stop = not (beta_stop > 0.0 and beta_stop <= 2.0 * loss_stop)
        bad_row = sum([not (b > 0.0 and b <= 2.0 * f) for b, f in zip(beta_row, loss_row)])
        self.condition_violations += cut * cols * bad_stop + (rows - cut) * bad_row


# A job's record at one node: its realized local error, and the node's
# slot-start action distribution for the job's task, whose ``cut`` places the
# job's confidence on the threshold grid.
NodeRecord = tuple[int, ActionDistribution]


def backward_sweep(layers, entries, dests, records, queue, hop_cost, error_weight):
    """The backward recursion, from the deepest non-terminal layer up.

    Operands are Python floats for one job, or arrays with one element per
    job for a batch; both give the same bits. ``dests`` gives each node's
    destinations in the order of its probability rows, ``queue`` the
    slot-start queue by node. ``records[n]`` is ``(local_error, raw,
    mixed)`` for every node n of ``entries`` and of the middle layers, the
    rows indexed by action (0 terminates); ``mixed`` may be None.

    Returns four maps by node: the offload cost of layers 2..K (queue-weighted
    hop cost plus expected loss); the expected loss under the raw row
    (weighted local error on termination, the destination's offload cost on
    each offload, in destination order); its queue-free part; and, where
    ``mixed`` is given, the reach probability of the terminal layer under the
    mixed row the route was sampled from. Terminal nodes cost nothing.
    """
    terminal = layers[-1]
    rho = dict.fromkeys(terminal, 1.0)
    loss = dict.fromkeys(terminal, 0.0)
    free = dict.fromkeys(terminal, 0.0)
    offload = {}
    for k in range(len(layers) - 1, 0, -1):
        for dest in layers[k]:
            offload[dest] = queue[dest] * hop_cost + loss[dest]
        for node in layers[k - 1] if k > 1 else entries:
            local_error, raw, mixed = records[node]
            reach = 0.0
            f = g = (error_weight * raw[0]) * local_error
            for i, dest in enumerate(dests[node], 1):
                p = raw[i]
                f = f + p * offload[dest]
                g = g + p * free[dest]
                if mixed:
                    reach = reach + mixed[i] * rho[dest]
            loss[node] = f
            free[node] = g
            if mixed:
                rho[node] = reach
    return offload, loss, free, rho


class DownstreamLossOracle:
    """One fed job's :func:`backward_sweep`, looked up by node index.

    ``layers``, ``dests`` and ``queue`` are as the sweep takes them;
    ``nodes`` maps the job's entry node and every node strictly between the
    entry and terminal layers to the job's :data:`NodeRecord` there. It must
    hold every such node, the middle nodes the job skipped included: the
    recursion reads them all.
    """

    def __init__(
        self, layers: Sequence[Sequence[int]], entry: int, dests: Sequence[Sequence[int]],
        nodes: Mapping[int, NodeRecord], queue: Sequence[float], error_weight: float,
        hop_cost: float,
    ) -> None:
        self.nodes = nodes
        self.dests = dests
        self.queue = queue
        self.error_weight = error_weight = float(error_weight)
        self.hop_cost = hop_cost = float(hop_cost)
        records = {}
        for layer in ((entry,), *layers[1:-1]):
            for node in layer:
                local_error, dist = nodes[node]
                records[node] = (local_error, dist.raw, dist.mixed)
        # offload_cost: per node of layers 2..K
        self.offload_cost, self._loss, self._free, self._rho = backward_sweep(
            layers, (entry,), dests, records, queue, hop_cost, error_weight
        )

    def reach_prob(self, node: int) -> float:
        """Probability the job reaches the terminal layer from this node."""
        rho = self._rho[node]
        if rho <= 0.0:
            raise ValueError(f"reach probability vanished at node {node}")
        return rho

    def expected_loss(self, node: int) -> float:
        """Expected loss of the job standing at this node under current policies."""
        return self._loss[node]

    def expected_loss_decomposition(self, node: int) -> float:
        """The queue-free part of the expected loss: every queue at zero.

        Only this part feeds :class:`BaselineTable`, which leaves the
        queue-dependent share of the downstream loss out of the baseline on
        purpose and adds the live queue values at decision time instead.
        """
        return self._free[node]

    def expert_loss_matrix(
        self, node: int, zero_downstream: bool = False
    ) -> tuple[float, list[float]]:
        """All experts' full-feedback losses as ``(terminate, offload_row)``,
        the row a list of Python floats in destination order.

        Under the cut of the job's distribution at the node, every expert of
        rows ``[:cut]`` pays ``terminate`` and every expert of rows
        ``[cut:]`` its destination's offload cost, or with
        ``zero_downstream`` its queue-weighted hop cost alone.
        """
        dests = self.dests[node]
        if zero_downstream:
            row = [self.queue[dest] * self.hop_cost for dest in dests]
        else:
            row = [self.offload_cost[dest] for dest in dests]
        return self.error_weight * self.nodes[node][0], row
