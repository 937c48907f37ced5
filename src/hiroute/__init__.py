"""Discrete-slot simulator for online routing in multi-layer hierarchical
inference systems: variance-reduced expert routing under terminal-only
feedback, virtual-queue resource control, and greedy model placement."""

from .baselines import (
    EstimatorVariant,
    StaticPolicyConfig,
    calibrate_offload_prob,
    static_action,
    variant_flags,
)
from .config import ConfigError, apply_overrides, default_config, load_config, merge_config
from .control import QueueState, drift_penalty_diagnostic, queue_update
from .engine import PathRecord, RegretTracker, RunSummary, SlotMetrics, run_experiment, run_single
from .losses import BaselineTable, DownstreamLossOracle, estimate, variance_pair
from .placement import (
    Placement,
    PlacementContext,
    baseline_placement,
    greedy_onload,
    layer_groups,
    marginal_gain,
    utility,
)
from .policy import ActionDistribution, ExpertGrid, ExpertTable
from .topology import NodeRef, Topology, TopologyError, build_topology
from .workload import (
    ArrivalModel,
    ErrorTable,
    Job,
    ModelSpec,
    TraceFormatError,
    Workload,
    inference_error,
    load_trace,
)

__version__ = "0.1.0"
