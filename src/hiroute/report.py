"""Aggregation of run summaries into comparison tables."""
from __future__ import annotations

import csv
import json
import os
from typing import Any, Mapping, Sequence

import numpy as np

from .config import _is_number


def mean_std(values: Sequence[float]) -> tuple[float | None, float | None]:
    """Mean and population std, or (None, None) for no values."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return None, None
    return float(arr.mean()), float(arr.std(ddof=0))


def summarize_cell(summaries: Sequence[Mapping[str, Any]]) -> dict[str, float | None]:
    """Mean and std of the comparison metrics across one cell's seeds.

    Null values are skipped: a run that saw no hard jobs has no hit rate.
    A metric that is null in every run is null in the cell.
    """
    out: dict[str, float | None] = {"runs": len(summaries)}
    for metric in ("error_rate", "hit_rate", "feedback_rate"):
        mean, std = mean_std([s[metric] for s in summaries if s[metric] is not None])
        out[f"{metric}_mean"] = mean
        out[f"{metric}_std"] = std
    return out


def format_table_row(label: str, cell: Mapping[str, float | None]) -> str:
    fields = [f"feedback {cell['feedback_rate_mean']:.4f}"]
    if cell["hit_rate_mean"] is not None:
        fields.append(f"hit {cell['hit_rate_mean']:.4f}")
    fields.append(f"error {cell['error_rate_mean']:.4f} ± {cell['error_rate_std']:.4f}")
    return f"{label:<40s} " + "  ".join(fields)


def write_table_csv(path: str, rows: Sequence[tuple[dict[str, Any], dict[str, float]]]) -> None:
    """One row per sweep cell: the axis values, then the aggregated metrics."""
    if not rows:
        raise ValueError("no rows to write")
    axis_keys = sorted(rows[0][0])
    metric_keys = sorted(rows[0][1])
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(axis_keys + metric_keys)
        for axes, cell in rows:
            writer.writerow(
                [json.dumps(axes[k]) if isinstance(axes[k], (list, dict)) else axes[k]
                 for k in axis_keys]
                + [cell[k] for k in metric_keys]
            )


def collect_summaries(root: str) -> list[dict[str, Any]]:
    """Load every summary.json found under a results directory.

    Raises ValueError naming the file if one cannot be read, is not UTF-8
    JSON, is not an object, or lacks a field the report reads or holds one
    of the wrong type: ``policy`` must be a string, ``error_rate`` and
    ``feedback_rate`` finite numbers (not booleans), ``hit_rate`` one or null.
    """
    found: list[dict[str, Any]] = []
    for dirpath, _, filenames in sorted(os.walk(root)):
        if "summary.json" in filenames:
            path = os.path.join(dirpath, "summary.json")
            try:  # JSONDecodeError and UnicodeDecodeError are ValueErrors
                with open(path, encoding="utf-8") as fh:
                    summary = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ValueError(f"{path}: {exc}") from exc
            if not isinstance(summary, dict):
                raise ValueError(f"{path}: not a JSON object")
            missing = {"policy", "error_rate", "hit_rate", "feedback_rate"}.difference(summary)
            if missing:
                raise ValueError(f"{path}: missing {', '.join(sorted(missing))}")
            if not isinstance(summary["policy"], str):
                raise ValueError(f"{path}: policy must be a string")
            for field in ("error_rate", "feedback_rate"):
                if not _is_number(summary[field]):
                    raise ValueError(f"{path}: {field} must be a finite number")
            if summary["hit_rate"] is not None and not _is_number(summary["hit_rate"]):
                raise ValueError(f"{path}: hit_rate must be a finite number or null")
            summary["_dir"] = dirpath
            found.append(summary)
    return found
