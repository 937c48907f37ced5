"""Experiment configuration: JSON schema, defaults, dotted-key overrides.

Configs are plain nested dicts validated against a declarative schema;
unknown or missing keys are rejected and every leaf is type- and
range-checked, so a typo in a sweep override fails loudly instead of running
the default.
"""
from __future__ import annotations

import copy
import json
import math
from typing import Any, Mapping

from .baselines import LEARNING_KINDS, STATIC_KINDS
from .workload import TEXT, VISION

PLACEMENT_KINDS = ("greedy", "random_fixed", "layer_diverse")

# Default model pool: sizes in memory units (1 unit = 1B parameters), base
# errors declining with scale, vision support concentrated in larger models.
DEFAULT_MODEL_POOL = [
    {"id": "m00", "size": 2, "modalities": ["text"], "base_error": 0.50},
    {"id": "m01", "size": 2, "modalities": ["text"], "base_error": 0.52},
    {"id": "m02", "size": 3, "modalities": ["text"], "base_error": 0.47},
    {"id": "m03", "size": 4, "modalities": ["text", "vision"], "base_error": 0.46},
    {"id": "m04", "size": 5, "modalities": ["text", "vision"], "base_error": 0.44},
    {"id": "m05", "size": 6, "modalities": ["text"], "base_error": 0.42},
    {"id": "m06", "size": 8, "modalities": ["text", "vision"], "base_error": 0.38},
    {"id": "m07", "size": 10, "modalities": ["text"], "base_error": 0.36},
    {"id": "m08", "size": 14, "modalities": ["text", "vision"], "base_error": 0.32},
    {"id": "m09", "size": 20, "modalities": ["text", "vision"], "base_error": 0.28},
    {"id": "m10", "size": 28, "modalities": ["text", "vision"], "base_error": 0.24},
    {"id": "m11", "size": 45, "modalities": ["text", "vision"], "base_error": 0.20},
]

DEFAULT_CONFIG: dict[str, Any] = {
    "topology": {
        "layer_sizes": [4, 2, 1],
        "memory_budgets": [30, 100, None],
        "resource_budget": 0.4,
    },
    "workload": {
        "kind": "synthetic",
        "trace_path": None,
        "mean_jobs_per_slot": 1.33,
        "num_task_types": 13,
        "vision_fraction": 0.38,
        "hard_task_fraction": 0.11,
        "hard_task_types": 2,
        "medium_task_types": 3,
        "trap_task_types": 1,
        "mixture_concentration": 1.0,
        "text_size_range": [1.0, 3.0],
        "vision_size_range": [10.0, 20.0],
        "escalation_size_range": [1.0, 1.6],
        "confidence_noise_std": 0.1,
        "structure_seed": 1234,
        "model_pool": DEFAULT_MODEL_POOL,
    },
    "policy": "vr_ly_exp4",
    "learning": {
        # null -> sqrt(ln|experts| / total_jobs) scaled per estimator
        # (see engine.resolve_learning_rate)
        "learning_rate": None,
        "exploration_rate": 0.1,
        "error_weight": 70.0,
        "baseline_ema_rate": 0.2,
        "thresholds": None,  # null -> uniform 11-point grid on [0, 1]
    },
    "placement": {
        "kind": "greedy",
        "epoch_slots": 500,
        "switch_penalty": 0.1,
    },
    "static": {
        "offload_prob": None,  # null -> calibrate from workload stats
    },
    "run": {
        "total_jobs": 20000,
        "seeds": [0, 1, 2, 3, 4],
        "distance_factor": 1.0,
        "record_paths": False,
        "record_regret": True,
    },
    "output_dir": None,
    "sweep": None,  # {"axes": {dotted.key: [values, ...], ...}}
}


class ConfigError(ValueError):
    """Raised for malformed configs; the message names the offending field."""


def _check(cond: bool, field: str, message: str) -> None:
    if not cond:
        raise ConfigError(f"{field}: {message}")


_NUMBER = (int, float)


def _is_number(x: Any) -> bool:
    return isinstance(x, _NUMBER) and not isinstance(x, bool) and math.isfinite(x)


def _is_int(x: Any) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# field -> validator(value, field_name); nested dicts recurse through _SCHEMA.
def _validate_topology(t: Mapping, prefix: str) -> None:
    sizes = t["layer_sizes"]
    _check(isinstance(sizes, list) and len(sizes) >= 2, f"{prefix}.layer_sizes",
           "need at least two layers")
    _check(all(_is_int(s) and s > 0 for s in sizes), f"{prefix}.layer_sizes",
           "layer sizes must be positive integers")
    budgets = t["memory_budgets"]
    _check(isinstance(budgets, list) and len(budgets) == len(sizes),
           f"{prefix}.memory_budgets", "one entry per layer (last may be null)")
    for i, b in enumerate(budgets[:-1]):
        _check(_is_number(b) and b > 0, f"{prefix}.memory_budgets[{i}]",
               "must be a positive number")
    _check(_is_number(t["resource_budget"]) and t["resource_budget"] > 0,
           f"{prefix}.resource_budget", "must be positive")


def _validate_workload(w: Mapping, prefix: str) -> None:
    _check(w["kind"] in ("synthetic", "trace"), f"{prefix}.kind",
           "must be 'synthetic' or 'trace'")
    if w["kind"] == "trace":
        _check(isinstance(w["trace_path"], str) and w["trace_path"],
               f"{prefix}.trace_path", "required for trace workloads")
    _check(_is_number(w["mean_jobs_per_slot"]) and w["mean_jobs_per_slot"] >= 0,
           f"{prefix}.mean_jobs_per_slot", "must be nonnegative")
    _check(_is_int(w["num_task_types"]) and w["num_task_types"] >= 2,
           f"{prefix}.num_task_types", "must be an integer >= 2")
    _check(_is_number(w["vision_fraction"]) and 0 <= w["vision_fraction"] <= 1,
           f"{prefix}.vision_fraction", "must lie in [0, 1]")
    _check(_is_number(w["hard_task_fraction"]) and 0 <= w["hard_task_fraction"] < 1,
           f"{prefix}.hard_task_fraction", "must lie in [0, 1)")
    for key in ("hard_task_types", "medium_task_types", "trap_task_types"):
        _check(_is_int(w[key]) and w[key] >= 0, f"{prefix}.{key}",
               "must be a nonnegative integer")
    _check(w["hard_task_types"] + w["medium_task_types"] + w["trap_task_types"]
           < w["num_task_types"], f"{prefix}.num_task_types",
           "must exceed the special-tier task counts")
    _check(_is_number(w["mixture_concentration"]) and w["mixture_concentration"] > 0,
           f"{prefix}.mixture_concentration", "must be positive")
    for key in ("text_size_range", "vision_size_range", "escalation_size_range"):
        rng = w[key]
        _check(isinstance(rng, list) and len(rng) == 2 and all(_is_number(x) for x in rng)
               and 0 < rng[0] <= rng[1], f"{prefix}.{key}", "must be [lo, hi] with 0 < lo <= hi")
    _check(_is_number(w["confidence_noise_std"]) and w["confidence_noise_std"] >= 0,
           f"{prefix}.confidence_noise_std", "must be nonnegative")
    _check(_is_int(w["structure_seed"]) and w["structure_seed"] >= 0,
           f"{prefix}.structure_seed", "must be a nonnegative integer")
    pool = w["model_pool"]
    _check(isinstance(pool, list) and pool, f"{prefix}.model_pool", "must be a non-empty list")
    seen = set()
    for i, m in enumerate(pool):
        _check(isinstance(m, dict), f"{prefix}.model_pool[{i}]", "must be an object")
        _check_keys(m, DEFAULT_MODEL_POOL[0], f"{prefix}.model_pool[{i}]")
        _check(isinstance(m["id"], str) and m["id"], f"{prefix}.model_pool[{i}].id",
               "must be a non-empty string")
        _check(m["id"] not in seen, f"{prefix}.model_pool[{i}].id", "duplicate id")
        seen.add(m["id"])
        _check(_is_number(m["size"]) and m["size"] > 0,
               f"{prefix}.model_pool[{i}].size", "must be positive")
        mods = m["modalities"]
        _check(isinstance(mods, list) and mods and all(x in (TEXT, VISION) for x in mods),
               f"{prefix}.model_pool[{i}].modalities",
               "must be a non-empty list drawn from 'text' and 'vision'")
        _check(_is_number(m["base_error"]) and 0 <= m["base_error"] <= 1,
               f"{prefix}.model_pool[{i}].base_error", "must lie in [0, 1]")


def _validate_learning(l: Mapping, prefix: str) -> None:
    if l["learning_rate"] is not None:
        _check(_is_number(l["learning_rate"]) and l["learning_rate"] > 0,
               f"{prefix}.learning_rate", "must be positive or null")
    _check(_is_number(l["exploration_rate"]) and 0 < l["exploration_rate"] < 1,
           f"{prefix}.exploration_rate", "must lie in (0, 1)")
    _check(_is_number(l["error_weight"]) and l["error_weight"] >= 0,
           f"{prefix}.error_weight", "must be nonnegative")
    _check(_is_number(l["baseline_ema_rate"]) and 0 < l["baseline_ema_rate"] <= 1,
           f"{prefix}.baseline_ema_rate", "must lie in (0, 1]")
    if l["thresholds"] is not None:
        th = l["thresholds"]
        _check(isinstance(th, list) and len(th) >= 1
               and all(_is_number(x) and 0 <= x <= 1 for x in th)
               and all(b > a for a, b in zip(th, th[1:])),
               f"{prefix}.thresholds",
               "must be a strictly increasing list within [0, 1] or null")


def _validate_run(r: Mapping, prefix: str) -> None:
    _check(_is_int(r["total_jobs"]) and r["total_jobs"] > 0,
           f"{prefix}.total_jobs", "must be a positive integer")
    _check(isinstance(r["seeds"], list) and r["seeds"]
           and all(_is_int(s) and s >= 0 for s in r["seeds"]),
           f"{prefix}.seeds", "must be a non-empty list of nonnegative integers")
    # two runs of one seed would write one run directory
    _check(len(set(r["seeds"])) == len(r["seeds"]), f"{prefix}.seeds", "must not repeat a seed")
    _check(_is_number(r["distance_factor"]) and r["distance_factor"] > 0,
           f"{prefix}.distance_factor", "must be positive")
    _check(isinstance(r["record_paths"], bool), f"{prefix}.record_paths",
           "must be a boolean")
    _check(isinstance(r["record_regret"], bool), f"{prefix}.record_regret",
           "must be a boolean")


def validate_config(cfg: Mapping[str, Any]) -> None:
    """Check shape, types, and ranges; reject unknown or missing keys at any level."""
    _check_keys(cfg, DEFAULT_CONFIG, "")
    _validate_topology(cfg["topology"], "topology")
    _validate_workload(cfg["workload"], "workload")
    _check(cfg["policy"] in STATIC_KINDS + LEARNING_KINDS, "policy",
           f"must be one of {STATIC_KINDS + LEARNING_KINDS}")
    _validate_learning(cfg["learning"], "learning")
    _check(cfg["placement"]["kind"] in PLACEMENT_KINDS, "placement.kind",
           f"must be one of {PLACEMENT_KINDS}")
    _check(_is_int(cfg["placement"]["epoch_slots"])
           and cfg["placement"]["epoch_slots"] > 1,
           "placement.epoch_slots", "must be an integer > 1")
    _check(_is_number(cfg["placement"]["switch_penalty"])
           and cfg["placement"]["switch_penalty"] >= 0,
           "placement.switch_penalty", "must be nonnegative")
    if cfg["static"]["offload_prob"] is not None:
        _check(_is_number(cfg["static"]["offload_prob"])
               and 0 <= cfg["static"]["offload_prob"] <= 1,
               "static.offload_prob", "must lie in [0, 1] or be null")
    _validate_run(cfg["run"], "run")
    if cfg["output_dir"] is not None:
        _check(isinstance(cfg["output_dir"], str), "output_dir",
               "must be a string or null")
    if cfg["sweep"] is not None:
        sweep = cfg["sweep"]
        _check(isinstance(sweep, dict) and set(sweep) == {"axes"}, "sweep",
               "must be {'axes': {...}} or null")
        axes = sweep["axes"]
        _check(isinstance(axes, dict) and axes, "sweep.axes",
               "must be a non-empty object of dotted-key -> list of values")
        for key, values in axes.items():
            _check(isinstance(values, list) and values, f"sweep.axes.{key}",
                   "must be a non-empty list")
            # every axis value must land on a known leaf of the same config
            for value in values:
                probe = copy.deepcopy({k: v for k, v in cfg.items() if k != "sweep"})
                probe["sweep"] = None
                _set_dotted(probe, key, value)


def _check_keys(cfg: Mapping, reference: Mapping, prefix: str) -> None:
    """Name the first unknown or missing key, by dotted path, at any level."""
    for key in {**cfg, **reference}:
        path = f"{prefix}.{key}" if prefix else key
        _check(key in reference, path, "unknown key")
        _check(key in cfg, path, "missing")
        if isinstance(reference[key], dict):
            _check(isinstance(cfg[key], dict), path, "must be an object")
            _check_keys(cfg[key], reference[key], path)


def default_config() -> dict[str, Any]:
    return copy.deepcopy(DEFAULT_CONFIG)


def merge_config(partial: Mapping[str, Any]) -> dict[str, Any]:
    """Overlay a partial config onto the defaults and validate the result."""
    cfg = default_config()
    _deep_merge(cfg, partial, "")
    validate_config(cfg)
    return cfg


def _deep_merge(base: dict, overlay: Mapping, prefix: str) -> None:
    for key, value in overlay.items():
        path = f"{prefix}.{key}" if prefix else key
        if key not in base:
            raise ConfigError(f"{path}: unknown key")
        if isinstance(base[key], dict) and isinstance(value, Mapping) and key != "sweep":
            _deep_merge(base[key], value, path)
        else:
            base[key] = copy.deepcopy(value)


def load_config(path: str) -> dict[str, Any]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: cannot read: not UTF-8 at byte {exc.start}")
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read: {exc.strerror or exc}")
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return merge_config(raw)


def _set_dotted(cfg: dict, dotted: str, value: Any) -> None:
    parts = dotted.split(".")
    cursor: Any = cfg
    for part in parts[:-1]:
        if not isinstance(cursor, dict) or part not in cursor:
            raise ConfigError(f"{dotted}: unknown key")
        cursor = cursor[part]
    leaf = parts[-1]
    if not isinstance(cursor, dict) or leaf not in cursor:
        raise ConfigError(f"{dotted}: unknown key")
    if isinstance(cursor[leaf], dict) and cursor[leaf] is not None:
        raise ConfigError(f"{dotted}: cannot override a whole section")
    cursor[leaf] = value


def apply_overrides(cfg: Mapping[str, Any], overrides: list[str]) -> dict[str, Any]:
    """Apply ``key.path=value`` overrides (values parsed as JSON, else string)."""
    out = copy.deepcopy(dict(cfg))
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like key=value")
        key, raw_value = item.split("=", 1)
        try:
            value = json.loads(raw_value)
        except json.JSONDecodeError:
            value = raw_value
        _set_dotted(out, key.strip(), value)
    validate_config(out)
    return out
