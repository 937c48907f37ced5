"""hiroute benchmark: host throughput of the simulator on fixed workloads.

Usage, from the repository root:

    python3 perfbench/run.py --workload edge3-learn --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 25

One pass is one call of ``hiroute.run_experiment`` over one simulator seed
with ``output_dir`` set, the path ``hiroute run --out`` takes. After every
pass the outputs are checked (see checks.py); a seed-run that raises, fails a
check, or writes a ``metrics.csv`` that differs from the first pass of the
same seed counts as failed.

``--trace 0`` reports the end-to-end metrics: ``jobs_per_s`` (median over the
timed passes), ``setup_s`` (median over fresh interpreters of importing
hiroute and validating the config) and ``peak_rss_mb``. Both times are
normalised by a fixed reference loop timed next to each measurement, because
the host's speed drifts by tens of percent over minutes (see README.md).
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of tracer.py plus the tracer's overhead. ``--workload all``
runs every workload both ways, one child process at a time. The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""
from __future__ import annotations

import os

# one thread for BLAS/OpenMP, set before numpy is first imported
THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from types import ModuleType  # noqa: E402
from typing import Any  # noqa: E402

from checks import check_outputs  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, overlay, seed_list  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MIN_PASSES = 3
SETUP_RUNS = 7
# reference() runs REF_ITERATIONS steps; end-to-end times are reported as
# they would read on a host where that takes REF_SECONDS (see README.md)
REF_ITERATIONS = 20_000
REF_SECONDS = 0.1
SETUP_CODE = (
    "import json, sys, time\n"
    "start = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hiroute\n"
    "hiroute.merge_config(json.loads(sys.argv[2]))\n"
    "print(time.perf_counter() - start)\n"
)
CHILD_TIMEOUT_S = 900


def load_hiroute() -> ModuleType:
    """Import hiroute from this checkout's ``src``, and nowhere else."""
    package = SRC / "hiroute"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no hiroute sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import hiroute

    if Path(hiroute.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"perfbench: imported hiroute from {hiroute.__file__}")
    return hiroute


class Session:
    """Runs passes of one workload and accounts for every seed-run."""

    def __init__(
        self, hiroute: ModuleType, workload: str, scratch: str,
        total_jobs: int | None = None,
    ) -> None:
        self.hiroute = hiroute
        self.workload = workload
        self.scratch = scratch
        self.total_jobs = total_jobs
        self.attempted = 0
        self.failed = 0
        self.outputs: dict[int, dict[str, Any]] = {}  # first pass, per seed
        self.jobs_per_pass = 0

    def run_pass(self, seeds: list[int]) -> float | None:
        """Run, time and check one pass; None when run_experiment raised."""
        out_dir = tempfile.mkdtemp(prefix="pass-", dir=self.scratch)
        try:
            cfg = self.hiroute.merge_config(
                overlay(self.workload, seeds, out_dir, self.total_jobs)
            )
            seeds = cfg["run"]["seeds"]
            self.attempted += len(seeds)
            self.jobs_per_pass = cfg["run"]["total_jobs"] * len(seeds)
            start = time.perf_counter()
            try:
                self.hiroute.run_experiment(cfg)
            except Exception:
                traceback.print_exc()
                self.failed += len(seeds)
                return None
            elapsed = time.perf_counter() - start
            for seed, result in check_outputs(out_dir, cfg).items():
                reference = self.outputs.setdefault(seed, result)
                if isinstance(result, str):
                    print(f"perfbench: check failed: {result}", file=sys.stderr)
                    self.failed += 1
                elif isinstance(reference, str) or (
                    result["metrics_sha256"] != reference["metrics_sha256"]
                ):
                    print(f"perfbench: seed {seed}: metrics.csv differs between passes",
                          file=sys.stderr)
                    self.failed += 1
            return elapsed
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)

    def feedback_per_pass(self) -> int:
        return sum(
            r["feedback_jobs"] for r in self.outputs.values() if not isinstance(r, str)
        )


def reference() -> float:
    """Seconds taken by a fixed CPU-bound mix of interpreter and small numpy
    work, like the simulator's own mix. Timed next to every measurement, it
    tracks the host's current speed."""
    import numpy

    start = time.perf_counter()
    rng = numpy.random.default_rng(0)
    table: dict[tuple[str, int], float] = {}
    total = 0.0
    for i in range(REF_ITERATIONS):
        key = (f"n{i % 37}", i % 13)
        table[key] = table.get(key, 0.0) + 1.0
        draw = rng.random(8)
        total += float(draw.sum()) + float(numpy.exp(-draw).max())
    if not total > 0:
        raise RuntimeError("reference loop computed nothing")
    return time.perf_counter() - start


def normalise(seconds: float, ref_seconds: float) -> float:
    """``seconds`` as they would read on a host whose reference() takes
    REF_SECONDS."""
    return seconds * REF_SECONDS / ref_seconds


def measure_setup(workload: str, seed: int) -> tuple[float, float]:
    """Median seconds, normalised and raw, to import hiroute and validate the
    config, each in a fresh interpreter; the first, unmeasured one writes the
    bytecode cache."""
    config = json.dumps(overlay(workload, seed_list(seed), None))
    ref_before = reference()
    raw, scaled = [], []
    for i in range(SETUP_RUNS + 1):
        child = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), config],
            cwd=ROOT, capture_output=True, text=True, check=True, timeout=120,
        )
        ref_after = reference()
        seconds = float(child.stdout.strip().splitlines()[-1])
        if i:
            raw.append(seconds)
            scaled.append(normalise(seconds, (ref_before + ref_after) / 2))
        ref_before = ref_after
    return statistics.median(scaled), statistics.median(raw)


def measure(
    session: Session, seeds: list[int], seconds: float
) -> tuple[list[float], list[float]]:
    """Untraced passes, one seed each in turn, after one warm-up, until
    ``seconds`` have passed; returns jobs/s per pass, normalised and raw."""
    session.run_pass(seeds[:1])
    ref_before = reference()
    scaled: list[float] = []
    raw: list[float] = []
    deadline = time.perf_counter() + seconds
    while len(raw) < MIN_PASSES or time.perf_counter() < deadline:
        elapsed = session.run_pass([seeds[len(raw) % len(seeds)]])
        if elapsed is None:
            break
        ref_after = reference()
        raw.append(session.jobs_per_pass / elapsed)
        scaled.append(
            session.jobs_per_pass / normalise(elapsed, (ref_before + ref_after) / 2)
        )
        ref_before = ref_after
    return scaled, raw


def measure_traced(
    session: Session, seeds: list[int], seconds: float
) -> tuple[dict[str, Any], list[str]]:
    """Alternate untraced and traced passes over the first seed after one
    warm-up, so that counts repeat exactly; return the per-layer metrics and
    the names of absent ones."""
    seeds = seeds[:1]
    session.run_pass(seeds)
    tracer = Tracer(session.hiroute)
    plain: list[float] = []
    traced: list[float] = []
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        elapsed = session.run_pass(seeds)
        tracer.install()
        try:
            elapsed_traced = session.run_pass(seeds)
        finally:
            tracer.uninstall()
        if elapsed is None or elapsed_traced is None:
            break
        tracer.passes += 1
        plain.append(elapsed)
        traced.append(elapsed_traced)
    metrics, absent = tracer.metrics(session.jobs_per_pass, session.feedback_per_pass())
    if traced:
        metrics["trace.overhead_ratio"] = {
            "value": statistics.median(traced) / statistics.median(plain),
            "unit": "ratio",
        }
    return metrics, absent


def run_metadata(hiroute: ModuleType) -> dict[str, Any]:
    import numpy

    lines = 0
    for path in sorted((SRC / "hiroute").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "hiroute": getattr(hiroute, "__version__", None),
        "cpu": platform.processor() or platform.machine(),
        "nproc": os.cpu_count(),
        "src_hiroute_lines": lines,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        # metrics.csv digests repeat across processes only with a fixed hash seed
        "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
    }


def run_one(
    workload: str, seed: int, seconds: float, trace: int, total_jobs: int | None = None
) -> dict[str, Any]:
    """Measure one workload; ``total_jobs`` shrinks it for the self-test only."""
    hiroute = load_hiroute()
    scratch = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        session = Session(hiroute, workload, scratch, total_jobs)
        seeds = seed_list(seed)
        meta = {"workload": workload, "seed": seed, "trace": trace,
                **run_metadata(hiroute)}
        if trace:
            metrics, absent = measure_traced(session, seeds, seconds)
            meta["absent_metrics"] = absent
        else:
            setup, setup_raw = measure_setup(workload, seed)
            rates, rates_raw = measure(session, seeds, seconds)
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            meta["jobs_per_s_passes"] = rates
            meta["jobs_per_s_raw"] = statistics.median(rates_raw) if rates_raw else None
            meta["setup_s_raw"] = setup_raw
            metrics = {
                "jobs_per_s": {
                    "value": statistics.median(rates) if rates else 0.0, "unit": "jobs/s",
                },
                "setup_s": {"value": setup, "unit": "s"},
                "peak_rss_mb": {"value": peak_mb, "unit": "MB"},
            }
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps({"meta": meta}))
    print(json.dumps({"outputs": {str(s): r for s, r in session.outputs.items()}}))
    return {
        "correct": session.failed == 0 and session.attempted > 0,
        "attempted": session.attempted,
        "failed": session.failed,
        "metrics": metrics,
    }


def run_all(args: argparse.Namespace) -> dict[str, Any]:
    """Every workload untraced then traced, one child process at a time."""
    combined: dict[str, Any] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        for trace in (0, 1):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(trace)],
                cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
            )
            sys.stderr.write(child.stderr)
            lines = child.stdout.strip().splitlines()
            if child.returncode != 0 or not lines:
                raise SystemExit(f"perfbench: {workload} --trace {trace} exited "
                                 f"{child.returncode}")
            result = json.loads(lines[-1])
            print(f"== {workload} --trace {trace}: attempted {result['attempted']}, "
                  f"failed {result['failed']}")
            for name, metric in result["metrics"].items():
                print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
                combined["metrics"][f"{workload}/{name}"] = metric
            combined["correct"] = combined["correct"] and result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
    return combined


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    result = (
        run_all(args) if args.workload == "all"
        else run_one(args.workload, args.seed, args.seconds, args.trace)
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
