"""Command-line front end: run, sweep, validate, report."""
from __future__ import annotations

import argparse
import concurrent.futures
import copy
import itertools
import json
import os
import sys
import traceback
from typing import Any, Mapping

from .config import ConfigError, apply_overrides, default_config, load_config, validate_config
from .engine import run_experiment
from .report import (
    collect_summaries,
    format_table_row,
    summarize_cell,
    write_table_csv,
)
from .validation import INJECT_MODES, run_property_suite

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hiroute",
        description="Discrete-slot simulator for hierarchical inference routing",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", default=None, help="JSON experiment config")
        p.add_argument(
            "--override", action="append", default=[], metavar="K=V",
            help="dotted-key config override, repeatable",
        )
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed-offset", type=int, default=0, metavar="K",
                       help="shift every configured seed by K")

    run_p = sub.add_parser("run", help="run one experiment over its seeds")
    common(run_p)

    sweep_p = sub.add_parser("sweep", help="run the config's sweep cross-product")
    common(sweep_p)
    sweep_p.add_argument("--jobs", type=int, default=1, metavar="N",
                         help="concurrent sweep cells, at most one per cell and per CPU")

    val_p = sub.add_parser("validate", help="run the fast property suite")
    val_p.add_argument("--inject-bug", default=None, choices=INJECT_MODES,
                       help=argparse.SUPPRESS)

    rep_p = sub.add_parser("report", help="aggregate summaries under a directory")
    rep_p.add_argument("--out", required=True, help="results directory to scan")
    return parser


def _load(args: argparse.Namespace) -> dict[str, Any]:
    cfg = load_config(args.config) if args.config else default_config()
    if args.override:
        cfg = apply_overrides(cfg, args.override)
    if args.out:
        cfg["output_dir"] = args.out
    if args.seed_offset:
        cfg["run"]["seeds"] = [s + args.seed_offset for s in cfg["run"]["seeds"]]
        validate_config(cfg)
    return cfg


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = _load(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        summaries = run_experiment(cfg)
    except Exception as exc:  # noqa: BLE001 - surface with context, exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_RUNTIME
    cell = summarize_cell([s.to_dict() for s in summaries])
    print(format_table_row(cfg["policy"], cell))
    if cfg.get("output_dir"):
        with open(os.path.join(cfg["output_dir"], "aggregate.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(cell, fh, indent=2, sort_keys=True)
    return EXIT_OK


def sweep_cells(cfg: Mapping[str, Any]) -> list[dict[str, Any]]:
    """Cross-product of the sweep axes as {dotted key: value} cells."""
    sweep = cfg.get("sweep")
    if not sweep or not sweep.get("axes"):
        raise ConfigError("sweep: missing or empty axes")
    axes = sweep["axes"]
    keys = sorted(axes)
    cells = []
    for combo in itertools.product(*(axes[k] for k in keys)):
        cells.append(dict(zip(keys, combo)))
    return cells


def _run_cell(payload: tuple[dict[str, Any], dict[str, Any], str | None]) -> dict[str, Any]:
    cfg, cell, out_root = payload
    cell_cfg = copy.deepcopy(cfg)
    cell_cfg["sweep"] = None
    overrides = [f"{k}={json.dumps(v)}" for k, v in cell.items()]
    cell_cfg = apply_overrides(cell_cfg, overrides)
    label = "__".join(
        f"{k.split('.')[-1]}-{_slug(v)}" for k, v in sorted(cell.items())
    )
    if out_root:
        cell_cfg["output_dir"] = os.path.join(out_root, label)
    try:
        summaries = run_experiment(cell_cfg)
        return {"cell": cell, "label": label, "ok": True,
                "summaries": [s.to_dict() for s in summaries]}
    except Exception as exc:  # noqa: BLE001 - recorded per cell
        return {"cell": cell, "label": label, "ok": False, "error": str(exc)}


def _slug(value: Any) -> str:
    text = json.dumps(value) if isinstance(value, (list, dict)) else str(value)
    return "".join(c if c.isalnum() else "-" for c in text).strip("-")


def cmd_sweep(args: argparse.Namespace) -> int:
    try:
        if args.jobs < 1:
            raise ConfigError(f"--jobs: must be at least 1, got {args.jobs}")
        cfg = _load(args)
        cells = sweep_cells(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_root = cfg.get("output_dir")
    payloads = [(cfg, cell, out_root) for cell in cells]
    # a fork-started pool forks every worker up front, needed or not
    workers = min(args.jobs, len(cells), os.cpu_count() or 1)
    if workers > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_cell, payloads))
    else:
        results = [_run_cell(p) for p in payloads]

    rows = []
    failed = 0
    for result in results:
        if result["ok"]:
            cell_stats = summarize_cell(result["summaries"])
            rows.append((result["cell"], cell_stats))
            print(format_table_row(result["label"], cell_stats))
        else:
            failed += 1
            print(f"{result['label']:<40s} FAILED: {result['error']}")
    if rows and out_root:
        os.makedirs(out_root, exist_ok=True)
        write_table_csv(os.path.join(out_root, "sweep_table.csv"), rows)
    print(f"sweep: {len(results) - failed}/{len(results)} cells succeeded")
    return EXIT_OK if failed == 0 else EXIT_RUNTIME


def cmd_validate(args: argparse.Namespace) -> int:
    results = run_property_suite(inject=args.inject_bug)
    all_ok = True
    for result in results:
        status = "PASS" if result.passed else "FAIL"
        print(f"{status}  {result.name}: {result.detail}")
        all_ok &= result.passed
    return EXIT_OK if all_ok else EXIT_RUNTIME


def cmd_report(args: argparse.Namespace) -> int:
    summaries = collect_summaries(args.out)
    if not summaries:
        print(f"no summary.json files under {args.out}", file=sys.stderr)
        return EXIT_CONFIG
    groups: dict[str, list[dict]] = {}
    for summary in summaries:
        groups.setdefault(summary["policy"], []).append(summary)
    rows = []
    for policy in sorted(groups):
        cell = summarize_cell(groups[policy])
        rows.append(({"policy": policy}, cell))
        print(format_table_row(policy, cell))
    write_table_csv(os.path.join(args.out, "report_table.csv"), rows)
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "run": cmd_run,
        "sweep": cmd_sweep,
        "validate": cmd_validate,
        "report": cmd_report,
    }
    return handlers[args.subcommand](args)


if __name__ == "__main__":
    sys.exit(main())
