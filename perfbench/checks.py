"""Checks on the public outputs of each seed-run.

Every check reads only the files a run writes (``metrics.csv``,
``summary.json``, ``placements.csv``) and the config that produced them, so
the checks hold across any refactor that keeps the output formats. Rows are
streamed, never held, so checking adds nothing to the measured peak memory.
"""
from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import re
from typing import Any, Mapping

FIXED_COLUMNS = [
    "slot", "jobs", "errors", "hard_jobs", "oracle_hits", "feedback",
    "mean_entropy", "drift_penalty",
]
NODE_ID = re.compile(r"n(\d+)_(\d+)")


class OutputError(ValueError):
    """A seed-run's outputs break one of the checks."""


def check_outputs(out_root: str, cfg: Mapping[str, Any]) -> dict[int, dict[str, Any] | str]:
    """Check every seed-run below ``out_root``.

    Returns, per configured seed, either the run's simulated statistics or
    the message of the first check it failed.
    """
    found: dict[int, str] = {}
    for entry in sorted(os.listdir(out_root)):
        run_dir = os.path.join(out_root, entry)
        try:
            with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
                found[int(json.load(fh)["seed"])] = run_dir
        except (OSError, ValueError, KeyError, TypeError):
            continue
    results: dict[int, dict[str, Any] | str] = {}
    for seed in cfg["run"]["seeds"]:
        if seed not in found:
            results[seed] = f"seed {seed}: no run directory with its summary.json"
            continue
        try:
            results[seed] = check_run(found[seed], cfg)
        except OutputError as exc:
            results[seed] = f"seed {seed}: {exc}"
    return results


def check_run(run_dir: str, cfg: Mapping[str, Any]) -> dict[str, Any]:
    """Check one seed-run's outputs and return its simulated statistics."""
    path = os.path.join(run_dir, "metrics.csv")
    totals, rows = _check_metrics(path)
    try:
        with open(os.path.join(run_dir, "summary.json"), encoding="utf-8") as fh:
            summary = json.load(fh)
    except (OSError, ValueError) as exc:
        raise OutputError(f"summary.json unreadable: {exc}") from None
    total_jobs = cfg["run"]["total_jobs"]
    if totals["jobs"] != total_jobs:
        raise OutputError(f"jobs column sums to {totals['jobs']}, not {total_jobs}")
    try:
        if summary["total_jobs"] != total_jobs:
            raise OutputError(f"summary total_jobs {summary['total_jobs']} != {total_jobs}")
        if summary["total_slots"] != rows:
            raise OutputError(f"{rows} metrics rows but total_slots {summary['total_slots']}")
        rates = {
            "error_rate": totals["errors"] / totals["jobs"],
            "feedback_rate": totals["feedback"] / totals["jobs"],
            "hit_rate": (
                totals["oracle_hits"] / totals["hard_jobs"] if totals["hard_jobs"] else None
            ),
        }
        for key, expected in rates.items():
            if expected is None:
                # no hard jobs: the rate is undefined, reported as 0.0 or null
                if summary[key] not in (None, 0.0):
                    raise OutputError(f"summary {key} {summary[key]!r} without hard jobs")
            elif not math.isclose(summary[key], expected, rel_tol=1e-12, abs_tol=1e-15):
                raise OutputError(f"summary {key} {summary[key]!r} != column sums {expected!r}")
    except (KeyError, TypeError) as exc:
        raise OutputError(f"summary.json malformed: {exc!r}") from None
    _check_placements(os.path.join(run_dir, "placements.csv"), cfg)
    return {
        **rates,
        "feedback_jobs": totals["feedback"],
        "metrics_sha256": _sha256(path),
    }


def _check_metrics(path: str) -> tuple[dict[str, int], int]:
    totals = dict.fromkeys(FIXED_COLUMNS[1:6], 0)
    rows = 0
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            header = next(reader, [])
            if header[:8] != FIXED_COLUMNS:
                raise OutputError(f"metrics.csv header starts {header[:8]}")
            costs = [i for i, h in enumerate(header) if h.startswith("cost_")]
            queues = [i for i, h in enumerate(header) if h.startswith("queue_")]
            if not costs or len(costs) != len(queues) or len(header) != 8 + 2 * len(costs):
                raise OutputError("metrics.csv needs one cost_ and queue_ column per node")
            for row in reader:
                rows += 1
                if len(row) != len(header):
                    raise OutputError(f"row {rows} has {len(row)} fields")
                slot, jobs, errors, hard, hits, feedback = (int(x) for x in row[:6])
                if slot != rows:
                    raise OutputError(f"row {rows} holds slot {slot}")
                if not (0 <= errors <= jobs and 0 <= feedback <= jobs):
                    raise OutputError(f"slot {slot}: errors/feedback outside [0, jobs]")
                if not 0 <= hits <= hard <= jobs:
                    raise OutputError(f"slot {slot}: oracle_hits > hard_jobs")
                if not all(math.isfinite(float(x)) for x in row[6:8]):
                    raise OutputError(f"slot {slot}: non-finite entropy or drift")
                if not all(float(row[i]) >= 0.0 for i in costs + queues):
                    raise OutputError(f"slot {slot}: negative or NaN cost/queue")
                for key, value in zip(FIXED_COLUMNS[1:6], (jobs, errors, hard, hits, feedback)):
                    totals[key] += value
    except OSError as exc:
        raise OutputError(f"metrics.csv unreadable: {exc}") from None
    except ValueError as exc:
        if isinstance(exc, OutputError):
            raise
        raise OutputError(f"metrics.csv row {rows}: {exc}") from None
    if rows == 0:
        raise OutputError("metrics.csv has no rows")
    return totals, rows


def _check_placements(path: str, cfg: Mapping[str, Any]) -> None:
    """Every placement row must fit its node's memory budget, recomputed
    from the config's model pool and per-layer budgets."""
    sizes = {m["id"]: m["size"] for m in cfg["workload"]["model_pool"]}
    layer_sizes = cfg["topology"]["layer_sizes"]
    budgets = cfg["topology"]["memory_budgets"]
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            if next(reader, None) != ["epoch_slot", "node_id", "model_ids"]:
                raise OutputError("placements.csv header mismatch")
            count = 0
            for count, row in enumerate(reader, start=1):
                if len(row) != 3 or not row[0].isdigit():
                    raise OutputError(f"placements.csv row {count} malformed")
                match = NODE_ID.fullmatch(row[1])
                if not match:
                    raise OutputError(f"placements.csv row {count}: bad node {row[1]!r}")
                layer, index = int(match[1]), int(match[2])
                if not (1 <= layer <= len(layer_sizes) and index < layer_sizes[layer - 1]):
                    raise OutputError(f"placements.csv row {count}: unknown node {row[1]}")
                models = row[2].split("|") if row[2] else []
                if any(m not in sizes for m in models):
                    raise OutputError(f"placements.csv row {count}: unknown model")
                budget = budgets[layer - 1] if layer < len(layer_sizes) else None
                used = sum(sizes[m] for m in models)
                if budget is not None and used > budget + 1e-9:
                    raise OutputError(f"{row[1]} at slot {row[0]} uses {used} > {budget}")
            if count == 0:
                raise OutputError("placements.csv has no rows")
    except OSError as exc:
        raise OutputError(f"placements.csv unreadable: {exc}") from None


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
