"""Self-tests of the benchmark, run from the repository root:

    python3 perfbench/selftest.py

1. A tiny smoke run of every workload, untraced and traced, must succeed and
   print every metric BENCHMARK.json names, with the unit it names, and
   the structural zeros the workloads are built for.
2. Fault injection: corrupted copies of one run's outputs must each be
   caught by the output checks, while the clean copy passes.

Exits 1 when any check fails.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from typing import Callable

import run
from checks import check_outputs
from workloads import WORKLOADS, overlay

TINY_JOBS = {"edge3-learn": 400, "deep5-learn": 300, "burst3-learn": 600, "deep5-static": 600}
failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {what}")
    if not ok:
        failures.append(what)


def smoke(bench: dict) -> None:
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run.run_one(workload, 0, 0.01, trace, total_jobs=TINY_JOBS[workload])
            metrics = result["metrics"]
            expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                   f"{workload} --trace {trace}: every seed-run passes its checks")
            wanted = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in metrics.items()}
            expect(got == wanted, f"{workload} --trace {trace}: every metric with its unit")
            if trace and workload == "deep5-static":
                learning = [n for n in metrics if n.startswith(("policy.", "losses."))
                            and n.endswith(("calls", "per_job"))]
                expect(bool(learning) and all(metrics[n]["value"] == 0 for n in learning),
                       "deep5-static: no policy or losses calls")
            if trace and workload == "deep5-learn":
                expect(metrics["engine.regret.s"]["value"] == 0,
                       "deep5-learn: regret tracking bypassed")


def absent_boundary() -> None:
    """A boundary removed by a refactor leaves its metrics absent, not a crash."""
    hiroute = run.load_hiroute()
    losses = sys.modules["hiroute.losses"]
    removed = losses.DownstreamLossOracle
    del losses.DownstreamLossOracle
    try:
        tracer = run.Tracer(hiroute)
        tracer.install()
        tracer.uninstall()
    finally:
        losses.DownstreamLossOracle = removed
    metrics, absent = tracer.metrics(jobs_per_pass=1, feedback_per_pass=0)
    gone = {"losses.oracle.per_job", "losses.oracle.useful_ratio", "losses.recursion.calls",
            "losses.recursion.self_s", "losses.expert_matrix.self_s"}
    expect(set(absent) == gone and not gone & set(metrics) and "engine.slot.calls" in metrics,
           f"removed DownstreamLossOracle leaves absent: {sorted(absent)}")


def _rewrite(path: str, edit: Callable[[list[str]], list[str]]) -> None:
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(edit(lines)) + "\n")


def _set_field(lines: list[str], row: int, column: int, value: str) -> list[str]:
    fields = lines[row].split(",")
    fields[column] = value
    return lines[:row] + [",".join(fields)] + lines[row + 1:]


def _summary_edit(run_dir: str) -> None:
    path = os.path.join(run_dir, "summary.json")
    with open(path, encoding="utf-8") as fh:
        summary = json.load(fh)
    summary["error_rate"] += 0.01
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh)


CORRUPTIONS: dict[str, Callable[[str], None]] = {
    "metrics.csv row dropped": lambda d: _rewrite(
        os.path.join(d, "metrics.csv"), lambda ls: ls[:5] + ls[6:]),
    "metrics.csv jobs bumped": lambda d: _rewrite(
        os.path.join(d, "metrics.csv"),
        lambda ls: _set_field(ls, 3, 1, str(int(ls[3].split(",")[1]) + 1))),
    "metrics.csv errors above jobs": lambda d: _rewrite(
        os.path.join(d, "metrics.csv"),
        lambda ls: _set_field(ls, 3, 2, str(int(ls[3].split(",")[1]) + 1))),
    "metrics.csv negative queue": lambda d: _rewrite(
        os.path.join(d, "metrics.csv"), lambda ls: _set_field(ls, 4, -1, "-0.5")),
    "summary.json error_rate off": _summary_edit,
    "placements.csv over budget": lambda d: _rewrite(
        os.path.join(d, "placements.csv"),
        lambda ls: ls[:1] + ["1,n1_0,m09|m10|m11"] + ls[1:]),
}


def fault_injection() -> None:
    hiroute = run.load_hiroute()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=run.ROOT)
    try:
        clean = os.path.join(scratch, "clean")
        cfg = hiroute.merge_config(overlay("edge3-learn", [0], clean, total_jobs=400))
        hiroute.run_experiment(cfg)
        expect(all(isinstance(r, dict) for r in check_outputs(clean, cfg).values()),
               "clean outputs pass the checks")
        for name, corrupt in CORRUPTIONS.items():
            copy = os.path.join(scratch, "corrupt")
            shutil.copytree(clean, copy)
            (run_dir,) = (e.path for e in os.scandir(copy) if e.is_dir())
            corrupt(run_dir)
            results = check_outputs(copy, {**cfg, "output_dir": copy})
            expect(all(isinstance(r, str) for r in results.values()),
                   f"caught: {name} ({next(iter(results.values()))})")
            shutil.rmtree(copy)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    smoke(bench)
    absent_boundary()
    fault_injection()
    print(f"{len(failures)} self-test failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
