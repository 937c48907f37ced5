import copy
import csv
import json
import os
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

import hiroute
from hiroute.baselines import calibrate_offload_prob
from hiroute.config import default_config
from hiroute.engine import (
    RegretTracker,
    _Run,
    build_topology_from_config,
    build_workload,
    run_experiment,
    run_single,
)
from hiroute.losses import DownstreamLossOracle
from hiroute.placement import Placement
from hiroute.policy import ExpertTable
from hiroute.workload import Job, best_loaded_accuracy, inference_error, select_model


def small_config(**overrides):
    cfg = default_config()
    cfg["run"]["total_jobs"] = 600
    cfg["run"]["seeds"] = [0]
    cfg["placement"]["epoch_slots"] = 200
    for key, value in overrides.items():
        section, _, leaf = key.partition(".")
        if leaf:
            cfg[section][leaf] = value
        else:
            cfg[section] = value
    return cfg


def read_metrics(path):
    """Parse a metrics.csv back into one record per slot: the counts, the two
    float columns, and per-node costs and queues keyed by node id."""
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    out = []
    for row in rows:
        cells = dict(zip(header, row))
        out.append(SimpleNamespace(
            **{k: int(cells[k]) for k in header[:6]},
            mean_entropy=float(cells["mean_entropy"]),
            drift_penalty=float(cells["drift_penalty"]),
            node_costs={k[5:]: float(v) for k, v in cells.items() if k.startswith("cost_")},
            node_queues={k[6:]: float(v) for k, v in cells.items() if k.startswith("queue_")},
        ))
    return out


def run_with_paths(cfg, seed=0):
    """Run one seed with path recording; return the run, its metrics rows and
    its ``paths.jsonl`` records (node ids, as written)."""
    cfg = copy.deepcopy(cfg)
    cfg["run"]["record_paths"] = True
    with tempfile.TemporaryDirectory() as out:
        run = run_single(cfg, seed, out)
        metrics = read_metrics(os.path.join(out, "metrics.csv"))
        with open(os.path.join(out, "paths.jsonl"), encoding="utf-8") as fh:
            paths = [SimpleNamespace(**json.loads(line)) for line in fh]
    return run, metrics, paths


class TestHardTagging:
    def test_all_zero_is_hard(self):
        job = Job(0, 0, 0, 1.0, (0, 0))
        assert job.is_hard()

    def test_any_one_is_not_hard(self):
        job = Job(0, 0, 0, 1.0, (0, 1))
        assert not job.is_hard()


class TestRunSlotInvariants:
    def test_pure_local_exits_at_entry(self):
        _, metrics, paths = run_with_paths(small_config(policy="pure_local"))
        assert all(m.feedback == 0 for m in metrics)
        assert len(paths) == 600
        assert all(rec.exit_layer == 1 for rec in paths)
        assert all(len(rec.path) == 1 for rec in paths)

    def test_paths_strictly_ascend_one_layer_at_a_time(self):
        run, _, paths = run_with_paths(small_config())
        for rec in paths:
            layers = [run.topo.layer_of(n) for n in rec.path]
            assert layers == list(range(1, len(layers) + 1))
            assert rec.exit_layer <= run.topo.num_layers

    def test_terminal_jobs_have_zero_error_and_feedback(self):
        run, _, paths = run_with_paths(small_config())
        for rec in paths:
            if rec.reached_oracle:
                assert rec.exit_error == 0
                assert rec.exit_layer == run.topo.num_layers

    def test_slot_costs_match_replayed_paths(self):
        cfg = small_config()
        _, metrics, paths = run_with_paths(cfg)
        by_slot = {}
        for rec in paths:
            for i, dest in enumerate(rec.path[1:]):
                by_slot.setdefault(rec.slot, {}).setdefault(dest, 0.0)
                by_slot[rec.slot][dest] += rec.size_units
        for m in metrics:
            expected = by_slot.get(m.slot, {})
            for node, cost in m.node_costs.items():
                assert cost == pytest.approx(expected.get(node, 0.0))

    def test_cost_conservation(self):
        _, metrics, paths = run_with_paths(small_config())
        total_inbound = sum(sum(m.node_costs.values()) for m in metrics)
        total_hops = sum(
            rec.size_units * (len(rec.path) - 1) for rec in paths
        )
        assert total_inbound == pytest.approx(total_hops)

    def test_feedback_counts_match_paths(self):
        _, metrics, paths = run_with_paths(small_config())
        assert sum(m.feedback for m in metrics) == sum(
            rec.reached_oracle for rec in paths
        )
        for m in metrics:
            assert m.feedback <= m.jobs

    def test_naive_variant_learns_only_from_feedback(self, monkeypatch):
        # every loss the naive learner accumulates comes from a fed job, at a
        # node on that job's path, for that job's task
        learning = []
        calls = []
        learn_from = _Run._learn_from
        accumulate = ExpertTable.accumulate_loss

        def spy_learn(self, job, path, fb, *args):
            learning.append((job, path, fb))
            try:
                return learn_from(self, job, path, fb, *args)
            finally:
                learning.pop()

        def spy_accumulate(self, node, task, cut, terminate, offload):
            job, path, fb = learning[-1]
            calls.append(fb and node in path and task == job.task)
            return accumulate(self, node, task, cut, terminate, offload)

        monkeypatch.setattr(_Run, "_learn_from", spy_learn)
        monkeypatch.setattr(ExpertTable, "accumulate_loss", spy_accumulate)
        run_single(small_config(policy="ly_exp4"), 0)
        assert calls and all(calls)

    def test_vr_variant_accumulates_on_visits_without_feedback(self):
        cfg = small_config()
        run, _, _ = run_with_paths(cfg)
        # visited-but-unfed jobs contribute the baseline; with live queues the
        # baseline is typically nonzero once any learning happened
        touched = sum(
            1 for node in run.table.grids for task in range(run.table.num_tasks)
            if not np.allclose(run.table.cum_loss(node, task), 0.0)
        )
        assert touched > 0

    def test_queue_snapshot_discipline(self):
        # drift diagnostic uses slot-start queues: first slot always sees zeros
        run, metrics, _ = run_with_paths(small_config())
        assert metrics[0].drift_penalty == pytest.approx(
            run.v * metrics[0].errors
        )


class TestDeterminism:
    def test_same_seed_same_metrics(self, tmp_path):
        cfg = small_config()
        cfg["output_dir"] = str(tmp_path / "a")
        run_experiment(cfg)
        cfg["output_dir"] = str(tmp_path / "b")
        run_experiment(cfg)
        a = (tmp_path / "a" / "vr_ly_exp4_4-2-1_greedy_s0" / "metrics.csv").read_bytes()
        b = (tmp_path / "b" / "vr_ly_exp4_4-2-1_greedy_s0" / "metrics.csv").read_bytes()
        assert a == b

    def test_metrics_independent_of_hash_seed(self, tmp_path):
        # string hashing differs between interpreter processes; the metrics
        # stream must not depend on it
        script = (
            "import sys\n"
            "from hiroute.config import default_config\n"
            "from hiroute.engine import run_single\n"
            "cfg = default_config()\n"
            "cfg['run']['total_jobs'] = 2000\n"
            "run_single(cfg, 0, sys.argv[1])\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(hiroute.__file__)))
        outputs = []
        for hash_seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed,
                       PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
            out = tmp_path / hash_seed
            subprocess.run([sys.executable, "-c", script, str(out)], env=env, check=True,
                           timeout=300)
            outputs.append((out / "metrics.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_different_seeds_differ(self):
        cfg = small_config()
        s0 = run_single(cfg, 0).summary()
        s1 = run_single(cfg, 1).summary()
        assert s0.error_rate != s1.error_rate or s0.total_slots != s1.total_slots


class TestSlotStartWeights:
    def test_no_weight_refresh_during_routing_or_learning(self, monkeypatch):
        # every reach probability must come from the distribution the job was
        # sampled from, so weights may only change between slots
        phase = []
        refreshes = []
        update_weights = ExpertTable.update_weights

        def spy_update(self, node, task):
            refreshes.append(tuple(phase))
            return update_weights(self, node, task)

        def in_phase(method):
            def wrapper(self, *args):
                phase.append(method.__name__)
                try:
                    return method(self, *args)
                finally:
                    phase.pop()
            return wrapper

        monkeypatch.setattr(ExpertTable, "update_weights", spy_update)
        for name in ("_route", "_learn_from"):
            monkeypatch.setattr(_Run, name, in_phase(getattr(_Run, name)))
        cfg = small_config()
        cfg["run"]["total_jobs"] = 2000
        run_single(cfg, 0)
        assert refreshes
        assert [p for p in refreshes if p] == []


class TestLossMatrixBuilds:
    def test_each_expert_loss_matrix_built_once_per_visited_node(self, monkeypatch):
        # with regret on, a fed job's full-feedback matrix serves both the
        # estimate and the regret tracker
        builds = {}
        oracles = []  # kept alive, so that id() names one job's oracle
        original = DownstreamLossOracle.expert_loss_matrix

        def spy(oracle, node, zero_downstream=False):
            if not oracles or oracles[-1] is not oracle:
                oracles.append(oracle)
            key = (id(oracle), node, zero_downstream)
            builds[key] = builds.get(key, 0) + 1
            return original(oracle, node, zero_downstream)

        monkeypatch.setattr(DownstreamLossOracle, "expert_loss_matrix", spy)
        for policy in ("vr_ly_exp4", "ly_exp4", "vr_local_loss"):
            run_single(small_config(policy=policy), 0)
        assert builds and max(builds.values()) == 1


class TestPlacementTables:
    def test_tables_match_reference_functions(self):
        run = _Run(small_config(), 0, None)
        table = run.error_table
        m05, m08 = table.model_ids.index("m05"), table.model_ids.index("m08")
        # two models with equal errors everywhere: selection breaks the tie
        # by id, and the accuracy is the same either way
        table.matrix[:, m05] = table.matrix[:, m08]
        rng = np.random.default_rng(4)
        columns = range(len(table.model_ids))
        for _ in range(20):
            loaded = []
            for _ in run.node_ids:
                k = int(rng.integers(0, len(columns) + 1))
                loaded.append(frozenset(rng.choice(columns, size=k, replace=False).tolist()))
            loaded[0] = frozenset({m05, m08})
            loaded[1] = frozenset()
            run.placement = Placement(loaded=loaded)
            run._index_placement()
            for i in range(len(run.node_ids)):
                for task in range(len(run.task_ids)):
                    assert run.accuracy[i][task] == best_loaded_accuracy(table, task, loaded[i])
                    assert run.selected[i][task] == select_model(table, task, loaded[i])
        # the tie and a loaded set that supports no model of a task both occur
        assert m05 in run.selected[0].values()
        assert None in run.selected[1].values()

    def test_entries_built_on_first_lookup_through_engine_names(self, monkeypatch):
        # each epoch's entries come from engine.best_loaded_accuracy and
        # engine.select_model, the names the benchmark tracer wraps, and only
        # once a job looks them up
        run = _Run(small_config(), 0, None)
        calls = []
        monkeypatch.setattr(hiroute.engine, "best_loaded_accuracy",
                            lambda *args: calls.append("accuracy") or 0.5)
        monkeypatch.setattr(hiroute.engine, "select_model",
                            lambda *args: calls.append("model") or 5)
        run._index_placement()
        assert calls == []
        task = 3
        for _ in range(3):
            assert run.accuracy[2][task] == 0.5
            assert run.selected[2][task] == 5
        assert calls == ["accuracy", "model"]


class TestPlacementEpochs:
    def test_greedy_refreshes_on_epoch_grid(self):
        cfg = small_config()
        run, _, _ = run_with_paths(cfg)
        slots = sorted({slot for slot, _, _ in run.placement_log})
        assert slots[0] == 1
        assert all((s % cfg["placement"]["epoch_slots"]) == 1 for s in slots)
        assert len(slots) >= 2

    def test_placements_feasible_every_epoch(self):
        cfg = small_config()
        run, _, _ = run_with_paths(cfg)
        sizes = run.error_table.sizes
        for slot, node, columns in run.placement_log:
            node_id = run.node_ids[node]
            if run.topo.is_terminal(node_id):
                assert columns == frozenset()
                continue
            assert sum(sizes[c] for c in columns) <= run.topo.memory_budget[node_id] + 1e-9

    def test_static_placement_fixed(self):
        cfg = small_config()
        cfg["placement"]["kind"] = "random_fixed"
        run, _, _ = run_with_paths(cfg)
        slots = {slot for slot, _, _ in run.placement_log}
        assert slots == {0}


class TestRunExperiment:
    def test_one_summary_per_seed(self):
        cfg = small_config()
        cfg["run"]["seeds"] = [0, 1, 2]
        summaries = run_experiment(cfg)
        assert [s.seed for s in summaries] == [0, 1, 2]
        for s in summaries:
            assert s.total_jobs == 600
            assert 0.0 <= s.error_rate <= 1.0
            assert 0.0 <= s.hit_rate <= 1.0
            assert 0.0 <= s.feedback_rate <= 1.0

    def test_writes_artifacts(self, tmp_path):
        cfg = small_config()
        cfg["output_dir"] = str(tmp_path)
        cfg["run"]["record_paths"] = True
        run_experiment(cfg)
        run_dir = tmp_path / "vr_ly_exp4_4-2-1_greedy_s0"
        assert (run_dir / "metrics.csv").exists()
        assert (run_dir / "summary.json").exists()
        assert (run_dir / "placements.csv").exists()
        assert (run_dir / "paths.jsonl").exists()
        summary = json.loads((run_dir / "summary.json").read_text())
        assert summary["total_jobs"] == 600
        header = (run_dir / "metrics.csv").read_text().splitlines()[0]
        assert header.split(",")[:8] == [
            "slot", "jobs", "errors", "hard_jobs", "oracle_hits", "feedback",
            "mean_entropy", "drift_penalty",
        ]

    def test_zero_rate_is_an_error(self):
        cfg = small_config()
        cfg["workload"]["mean_jobs_per_slot"] = 0.0
        with pytest.raises(ValueError):
            run_single(cfg, 0)

    def test_zero_rate_writes_no_files(self, tmp_path):
        # the rate is rejected before any output is opened, so no zero-job
        # summary.json is left for `hiroute report` to count as a run
        cfg = small_config()
        cfg["workload"]["mean_jobs_per_slot"] = 0.0
        out = tmp_path / "run"
        with pytest.raises(ValueError, match="mean_jobs_per_slot"):
            run_single(cfg, 0, str(out))
        assert not (out / "summary.json").exists()
        assert not out.exists() or not any(out.iterdir())


class TestRegretOracle:
    def test_single_expert_degenerate_enumeration(self):
        cfg = small_config()
        cfg["learning"]["thresholds"] = [0.5]
        run, _, _ = run_with_paths(cfg)
        # with one threshold per destination the hindsight minimum is over
        # |destinations| experts only; regret can be negative via sampling
        for (node, task), sums in run.regret.expert_sums.items():
            assert sums.shape[0] == 1

    def test_best_expert_matches_bruteforce_over_logs(self):
        # a hand-made log of (job, key, realized loss, expert loss matrix)
        rng = np.random.default_rng(5)
        node_ids = ("n1_0", "n2_0")
        task_ids = ("a", "b")
        keys = [(0, 0), (0, 1), (1, 0)]
        tracker = RegretTracker({0}, checkpoints=[10, 40], rows=3)
        log = []
        for job in range(40):
            for key in keys:
                if rng.random() < 0.7:
                    realized = float(rng.uniform(0, 10))
                    losses = rng.uniform(0, 10, size=(3, 2))
                    log.append((job, key, realized, losses))
                    # cut 0: every row takes the offload part, the full matrix
                    tracker.add(*key, realized, 0, 0.0, losses)
            tracker.job_done()

        def brute(jobs):
            regret, best = {}, {}
            for key in keys:
                entries = [(r, m) for j, k, r, m in log if k == key and j < jobs]
                sums = {
                    (i, d): sum(m[i, d] for _, m in entries)
                    for i in range(3) for d in range(2)
                }
                best[key] = min(sums, key=sums.get)
                regret[key] = sum(r for r, _ in entries) - sums[best[key]]
            return regret, best

        regret, best = brute(40)
        for (node, task), value in regret.items():
            final = tracker.final_map(node_ids, task_ids)
            assert final[node_ids[node]][task_ids[task]] == pytest.approx(value)
            sums = tracker.expert_sums[(node, task)]
            assert np.unravel_index(sums.argmin(), sums.shape) == best[(node, task)]
        assert tracker.curve_gamma == [10, 40]
        for gamma, entry, total in zip(
            tracker.curve_gamma, tracker.curve_entry, tracker.curve_total
        ):
            regret, _ = brute(gamma)
            assert total == pytest.approx(sum(regret.values()))
            assert entry == pytest.approx(
                sum(v for (node, _), v in regret.items() if node == 0)
            )


class TestTraceMode:
    def trace_path(self, tmp_path):
        header = {"models": [
            {"id": "small", "size": 2, "modalities": ["text"]},
            {"id": "big", "size": 40, "modalities": ["text", "vision"]},
        ]}
        records = []
        for k in range(400):
            task = f"q{k % 3}"
            records.append({
                "job_id": f"j{k}", "task_type": task, "modality": "text",
                "size_units": 1.0 + (k % 3),
                "correctness": {"small": int(k % 3 == 0), "big": int(k % 2 == 0)},
            })
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [header] + records))
        return str(path)

    def test_trace_workload_runs(self, tmp_path):
        cfg = small_config()
        cfg["workload"]["kind"] = "trace"
        cfg["workload"]["trace_path"] = self.trace_path(tmp_path)
        cfg["run"]["total_jobs"] = 300
        summary = run_single(cfg, 0).summary()
        assert summary.total_jobs == 300

    def test_trace_jobs_reuse_recorded_bits(self, tmp_path):
        cfg = small_config()
        cfg["workload"]["kind"] = "trace"
        cfg["workload"]["trace_path"] = self.trace_path(tmp_path)
        topo = build_topology_from_config(cfg)
        wl = build_workload(cfg, topo, 0)
        jobs = []
        t = 0
        while len(jobs) < 100:
            t += 1
            jobs.extend(wl.generate_slot(t))
        recorded = {(int(k % 3 == 0), int(k % 2 == 0)) for k in range(400)}
        for job in jobs:
            # one bit per header model, small then big
            assert job.correctness in recorded

    def test_recorded_modality_kept_for_large_text_payload(self, tmp_path):
        # a 12-unit text payload is as large as a vision one; the task must
        # stay text, so the text-only model keeps its recorded bits
        header = {"models": [
            {"id": "small", "size": 2, "modalities": ["text"]},
            {"id": "big", "size": 40, "modalities": ["text", "vision"]},
        ]}
        records = [
            {"job_id": f"j{k}", "task_type": "q0", "modality": "text", "size_units": 12.0,
             "correctness": {"small": 1, "big": 0}}
            for k in range(20)
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [header] + records))
        cfg = small_config()
        cfg["workload"]["kind"] = "trace"
        cfg["workload"]["trace_path"] = str(path)
        topo = build_topology_from_config(cfg)
        wl = build_workload(cfg, topo, 0)
        assert wl.task_modality == {"q0": "text"}
        assert wl.error_table.model_ids == ("small", "big")
        assert wl.error_table.error(0, 0) == 0.0
        jobs = []
        t = 0
        while not jobs:
            t += 1
            jobs = wl.generate_slot(t)
        selected = select_model(wl.error_table, 0, {0, 1})
        assert selected == 0
        assert inference_error(jobs[0], selected) == 0

    def test_static_calibration_uses_recorded_sizes(self, tmp_path):
        # text jobs of 12 units on average (q0 alternates 8 and 16): the
        # configured text size range (mean 2.0) must not stand in for the
        # recorded payloads
        header = {"models": [{"id": "small", "size": 2, "modalities": ["text"]}]}
        sizes = {0: 8.0, 1: 12.0, 2: 16.0, 3: 12.0}
        records = [
            {"job_id": f"j{k}", "task_type": f"q{k % 2}", "modality": "text",
             "size_units": sizes[k % 4], "correctness": {"small": int(k % 3 == 0)}}
            for k in range(40)
        ]
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(json.dumps(r) for r in [header] + records))
        cfg = small_config()
        cfg["workload"]["kind"] = "trace"
        cfg["workload"]["trace_path"] = str(path)
        topo = build_topology_from_config(cfg)
        stats = build_workload(cfg, topo, 0).stats()
        assert stats.mean_job_size == pytest.approx(12.0)
        # layer-2 allowance per entry node: 0.4 * 2 / 4, over 1.33 / 4 jobs of 12 units
        prob = calibrate_offload_prob(topo, stats, cfg["topology"]["resource_budget"])
        assert prob == pytest.approx(0.4 * 2 / 4 / (1.33 / 4 * 12.0))
