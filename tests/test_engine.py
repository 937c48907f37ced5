import copy
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from types import SimpleNamespace

import numpy as np
import pytest

import hiroute
from hiroute.config import default_config
from hiroute.engine import (
    RegretTracker,
    _Run,
    run_experiment,
    run_single,
)
from hiroute.losses import DownstreamLossOracle
from hiroute.placement import Placement
from hiroute.policy import ExpertGrid, ExpertTable
from hiroute.topology import build_topology
from hiroute.workload import (
    Job,
    Workload,
    best_loaded_accuracy,
    build_workload,
    confidence_from_noise,
    inference_error,
    select_model,
)
from tests.test_policy import cum_loss


def expert_sums(tracker):
    """A tracker's settled expert loss sums per (node, task), thresholds by
    destinations."""
    return {key: sums[1:].reshape(tracker.rows, -1) for key, sums in tracker._sums.items()}


def realized(tracker):
    """A tracker's settled realized loss sum per (node, task)."""
    return {key: float(sums[0]) for key, sums in tracker._sums.items()}


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
            layers = [run.topo.layer_of(run.node_ids.index(n)) for n in rec.path]
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
            if not np.allclose(cum_loss(run.table, node, task), 0.0)
        )
        assert touched > 0

    def test_queue_snapshot_discipline(self):
        # drift diagnostic uses slot-start queues: first slot always sees zeros
        run, metrics, _ = run_with_paths(small_config())
        assert metrics[0].drift_penalty == pytest.approx(
            run.v * metrics[0].errors
        )


class TestSparseSlots:
    def test_empty_slots_draw_no_noise(self, monkeypatch):
        # a (0, N) standard_normal draw consumes no generator state, so an
        # empty slot skips it and the stream is unchanged
        calls = []
        noise = Workload.confidence_noise

        def spy(self, num_jobs, num_nodes):
            calls.append(num_jobs)
            return noise(self, num_jobs, num_nodes)

        monkeypatch.setattr(Workload, "confidence_noise", spy)
        _, metrics, _ = run_with_paths(small_config())
        assert any(m.jobs == 0 for m in metrics)
        assert calls == [m.jobs for m in metrics if m.jobs]

    def test_metrics_line_bytes_equal_csv_writer(self, tmp_path):
        # crafted job sizes make cost, queue and drift cells such as 1e-07,
        # 1e+16, 5e-324 and 0.30000000000000004; every line must be the
        # bytes csv.writer writes for the ints and floats it spells
        cfg = small_config(policy="random")
        cfg["static"]["offload_prob"] = 1.0  # every job climbs to the terminal node
        run = _Run(cfg, 0, str(tmp_path))
        bits = (1,) * len(run.error_table.model_ids)
        sizes = [1e-07, None, 1e16, 5e-324, 0.1 + 0.2, 0.0, None, 2.5]
        for t, size in enumerate(sizes, start=1):
            run.run_slot(t, [] if size is None else [Job(t, 0, t % 4, size, bits)])
        run.close()
        written = (tmp_path / "metrics.csv").read_bytes()
        header, *rows = csv.reader(io.StringIO(written.decode("utf-8"), newline=""))
        text = io.StringIO(newline="")
        writer = csv.writer(text)
        writer.writerow(header)
        for row in rows:
            writer.writerow([int(c) for c in row[:6]] + [float(c) for c in row[6:]])
        assert written == text.getvalue().encode("utf-8")
        cells = {c for row in rows for c in row[8:]}
        assert {"1e-07", "1e+16", "5e-324", "0.30000000000000004", "0.0"} <= cells


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
        # with regret on, a fed job's full-feedback matrix is built for its
        # estimate only: the regret log reads the batched sweep
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
            if run.topo.is_terminal(node):
                assert columns == frozenset()
                continue
            assert sum(sizes[c] for c in columns) <= run.topo.memory_budget[node] + 1e-9

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


class TestRegretIsDiagnostic:
    @pytest.mark.parametrize("policy", ["vr_ly_exp4", "ly_exp4", "vr_local_loss"])
    def test_regret_leaves_outputs_unchanged(self, tmp_path, policy):
        # recording regret adds summary fields and nothing else: the metrics,
        # the placements and every other summary field are the same bytes
        outputs = {}
        for record in (True, False):
            cfg = small_config(policy=policy)
            cfg["run"]["total_jobs"] = 1500
            cfg["run"]["record_regret"] = record
            out = tmp_path / str(record)
            run_single(cfg, 1, str(out))
            summary = json.loads((out / "summary.json").read_text())
            outputs[record] = (
                (out / "metrics.csv").read_bytes(),
                (out / "placements.csv").read_bytes(),
                {k: v for k, v in summary.items() if k not in ("regret_final", "regret_curve")},
            )
        assert outputs[True] == outputs[False]
        assert json.loads((tmp_path / "True" / "summary.json").read_text())["regret_curve"]


class StreamingRegret:
    """The per-job regret reference: one oracle sweep per job, and each
    visited node's losses added to the sums at once."""

    def __init__(self, layers, dests, error_weight, checkpoints, rows):
        self.layers, self.dests, self.v = layers, dests, error_weight
        self.entries = set(layers[0])
        self.checkpoints = set(checkpoints)
        self.rows = rows
        self.realized = {}
        self.expert_sums = {}
        self.jobs_seen = 0
        self.curve_gamma, self.curve_entry, self.curve_total = [], [], []

    def add(self, task, path, records, hop_cost, queue):
        oracle = DownstreamLossOracle(
            self.layers, path[0], self.dests, records, queue, self.v, hop_cost
        )
        visited = path[:-1] if len(path) == len(self.layers) else path
        for i, node in enumerate(visited):
            local_error, dist = records[node]
            cut = dist.cut
            terminate, offload = oracle.expert_loss_matrix(node)
            if i + 1 < len(path):
                realized = oracle.offload_cost[path[i + 1]]
            else:
                realized = self.v * local_error
            key = (node, task)
            self.realized[key] = self.realized.get(key, 0.0) + realized
            sums = self.expert_sums.get(key)
            if sums is None:
                sums = self.expert_sums[key] = np.empty((self.rows, len(offload)))
                sums[:cut] = terminate
                sums[cut:] = offload
            else:
                sums[:cut] += terminate
                sums[cut:] += offload

    def regret(self, node, task):
        key = (node, task)
        return self.realized[key] - float(self.expert_sums[key].min())

    def job_done(self):
        self.jobs_seen += 1
        if self.jobs_seen in self.checkpoints:
            entry_total = total = 0.0
            for key in self.realized:
                r = self.regret(*key)
                total += r
                if key[0] in self.entries:
                    entry_total += r
            self.curve_gamma.append(self.jobs_seen)
            self.curve_entry.append(entry_total)
            self.curve_total.append(total)


BUDGETS = {
    (4, 2, 1): [30, 100, None],
    (16, 8, 4, 2, 1): [30, 80, 150, 200, None],
    (3, 12, 2, 1): [30, 100, 150, None],
}


class TestRegretOracle:
    def test_single_expert_degenerate_enumeration(self):
        cfg = small_config()
        cfg["learning"]["thresholds"] = [0.5]
        run, _, _ = run_with_paths(cfg)
        # with one threshold per destination the hindsight minimum is over
        # |destinations| experts only; regret can be negative via sampling
        for (node, task), sums in expert_sums(run.regret).items():
            assert sums.shape[0] == 1

    @pytest.mark.parametrize("sizes,thresholds", [
        *((sizes, None) for sizes in BUDGETS),
        ((3, 12, 2, 1), [0.5]),  # one expert at each layer-3 node
    ])
    @pytest.mark.parametrize("policy", ["vr_ly_exp4", "ly_exp4", "vr_local_loss"])
    def test_batched_settle_matches_per_job_reference(
        self, monkeypatch, policy, sizes, thresholds
    ):
        # a log cap of 7 puts settles mid-slot and between checkpoints
        monkeypatch.setattr(RegretTracker, "LOG_CAP", 7)
        self.check_against_reference(monkeypatch, policy, sizes, thresholds)

    @pytest.mark.parametrize("sizes", list(BUDGETS))
    def test_checkpoint_settles_match_per_job_reference(self, monkeypatch, sizes):
        # at the default cap every settle is a checkpoint's 150 jobs: long
        # enough per (node, task) that a pairwise sum would change the bits
        self.check_against_reference(monkeypatch, "vr_ly_exp4", sizes, None)

    @staticmethod
    def check_against_reference(monkeypatch, policy, sizes, thresholds):
        """Every sum, the final regrets and the curves of a 1,500-job run
        carry the bits of the per-job reference fed the same jobs: each job's
        own records from the engine, which evaluate the middle nodes it
        skipped on lookup, against the tracker's log of their inputs."""
        refs = {}
        learn_from, job_done = _Run._learn_from, RegretTracker.job_done

        def reference(tracker):
            if tracker not in refs:
                refs[tracker] = StreamingRegret(
                    tracker.layers, tracker.dests, tracker.error_weight,
                    tracker.checkpoints, tracker.rows,
                )
            return refs[tracker]

        def spy_learn_from(self, job, path, fb, records, queue):
            learn_from(self, job, path, fb, records, queue)
            reference(self.regret).add(
                job.task, path, records, job.size_units * self.distance_factor, queue
            )

        def spy_job_done(self):
            reference(self).job_done()
            job_done(self)

        monkeypatch.setattr(_Run, "_learn_from", spy_learn_from)
        monkeypatch.setattr(RegretTracker, "job_done", spy_job_done)
        cfg = small_config(policy=policy)
        cfg["topology"]["layer_sizes"] = list(sizes)
        cfg["topology"]["memory_budgets"] = BUDGETS[sizes]
        cfg["learning"]["thresholds"] = thresholds
        cfg["run"]["total_jobs"] = 1500
        run = run_single(cfg, 1)
        tracker = run.regret
        ref = refs[tracker]
        settled = expert_sums(tracker)
        assert list(settled) == list(ref.expert_sums)
        for key, sums in ref.expert_sums.items():
            assert settled[key].tobytes() == sums.tobytes()
        assert realized(tracker) == ref.realized
        want = {}
        for node, task in sorted(ref.realized):
            want.setdefault(run.node_ids[node], {})[run.task_ids[task]] = ref.regret(node, task)
        assert run.summary().regret_final == want
        assert tracker.curve_gamma == ref.curve_gamma == [*range(150, 1501, 150)]
        assert tracker.curve_entry == ref.curve_entry
        assert tracker.curve_total == ref.curve_total

    @pytest.mark.parametrize("policy", ["vr_ly_exp4", "ly_exp4", "vr_local_loss"])
    def test_one_oracle_per_fed_job(self, monkeypatch, policy):
        # regret on: the oracle serves the estimates of fed jobs only; the
        # regret log is settled by the batched sweep
        built = []
        init = DownstreamLossOracle.__init__

        def spy(self, *args):
            built.append(args[1])
            init(self, *args)

        monkeypatch.setattr(DownstreamLossOracle, "__init__", spy)
        cfg = small_config(policy=policy)
        cfg["run"]["record_regret"] = True
        run = run_single(cfg, 0)
        assert run.regret is not None and run.regret.curve_gamma
        assert 0 < len(built) == run.total_feedback < run.total_jobs_done

    def test_best_expert_matches_bruteforce_over_logs(self):
        # random jobs on 2-2-1: (job, key, realized loss, expert loss matrix)
        # per visited node, from each job's own oracle sweep over records the
        # engine's per-job functions build; the tracker logs the inputs of
        # those records: noise, bits, placement tables and a real table's
        # weights, which refresh between slots
        rng = np.random.default_rng(5)
        topo = build_topology([2, 2, 1], [10.0, 10.0, None], 0.4)
        layers, dests = topo.layers, topo.dests
        node_ids = topo.node_ids
        task_ids = ("a", "b")
        thresholds, v, std, models = (0.2, 0.5, 0.8), 70.0, 0.4, 3
        rows = len(thresholds)
        grids = {n: ExpertGrid(thresholds, dests[n]) for n in range(4)}
        table = ExpertTable(grids, 2, learning_rate=1.0, exploration_rate=0.1)
        tracker = RegretTracker(layers, dests, v, [10, 40], thresholds, std, table)
        log = []
        cuts = set()
        queue = epoch = None
        for job in range(40):
            if job % 3 == 0:  # a new slot: refreshed weights, a new queue snapshot
                for node, grid in grids.items():
                    for task in range(2):
                        table.accumulate_loss(node, task, 0, 0.0,
                                              rng.exponential(2.0, grid.shape))
                table.refresh_dirty()
                queue = (0.0, 0.0, *rng.uniform(0, 5, size=3).tolist())
            if job % 16 == 0:  # a new placement epoch
                epoch = (
                    rng.uniform(0, 1, (5, 2)).tolist(),
                    [[None if rng.random() < 0.2 else int(rng.integers(models))
                      for _ in range(2)] for _ in range(5)],
                )
            accuracy, selected = epoch
            task = int(rng.integers(2))
            entry = int(rng.integers(2))
            noise = rng.normal(0, 1, size=5).tolist()
            bits = tuple(rng.integers(2, size=models).tolist())
            records = {
                node: (inference_error(Job(job, task, entry, 1.0, bits), selected[node][task]),
                       table.action_probs(node, task, confidence_from_noise(
                           accuracy[node][task], noise[node], std)))
                for node in (entry, 2, 3)
            }
            cuts.update(dist.cut for _, dist in records.values())
            path = [entry]
            while path[-1] != 4 and rng.random() < 0.7:
                path.append(dests[path[-1]][int(rng.integers(len(dests[path[-1]])))])
            hop_cost = float(rng.uniform(0.5, 4))
            oracle = DownstreamLossOracle(layers, entry, dests, records, queue, v, hop_cost)
            for i, node in enumerate(path[:-1] if path[-1] == 4 else path):
                local_error, dist = records[node]
                terminate, offload = oracle.expert_loss_matrix(node)
                losses = np.empty((rows, len(offload)))
                losses[:dist.cut] = terminate
                losses[dist.cut:] = offload
                realized = (oracle.offload_cost[path[i + 1]] if i + 1 < len(path)
                            else v * local_error)
                log.append((job, (node, task), realized, losses))
            tracker.add(task, path, noise, bits, hop_cost, queue, epoch)
            tracker.job_done()

        def brute(jobs):
            regret, best = {}, {}
            for key in {k for _, k, _, _ in log}:
                entries = [(r, m) for j, k, r, m in log if k == key and j < jobs]
                if not entries:
                    continue
                sums = {
                    (i, d): sum(m[i, d] for _, m in entries)
                    for i in range(rows) for d in range(entries[0][1].shape[1])
                }
                best[key] = min(sums, key=sums.get)
                regret[key] = sum(r for r, _ in entries) - sums[best[key]]
            return regret, best

        regret, best = brute(40)
        assert len(regret) >= 6
        assert cuts == set(range(rows + 1))
        final = tracker.final_map(node_ids, task_ids)
        for (node, task), value in regret.items():
            assert final[node_ids[node]][task_ids[task]] == pytest.approx(value)
            sums = expert_sums(tracker)[(node, task)]
            assert np.unravel_index(sums.argmin(), sums.shape) == best[(node, task)]
        assert tracker.curve_gamma == [10, 40]
        for gamma, entry, total in zip(
            tracker.curve_gamma, tracker.curve_entry, tracker.curve_total
        ):
            regret, _ = brute(gamma)
            assert total == pytest.approx(sum(regret.values()))
            assert entry == pytest.approx(
                sum(v for (node, _), v in regret.items() if node in layers[0])
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
        topo = build_topology(**cfg["topology"])
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
        topo = build_topology(**cfg["topology"])
        wl = build_workload(cfg, topo, 0)
        assert wl.error_table.tasks == ("q0",)
        assert wl.error_table.model_ids == ("small", "big")
        # the text-only model keeps its recorded rate, not the unsupported 1
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
        cfg = small_config(policy="random")
        cfg["workload"]["kind"] = "trace"
        cfg["workload"]["trace_path"] = str(path)
        topo = build_topology(**cfg["topology"])
        assert build_workload(cfg, topo, 0).mean_job_size == pytest.approx(12.0)
        # layer-2 allowance per entry node: 0.4 * 2 / 4, over 1.33 / 4 jobs of 12 units
        prob = _Run(cfg, 0, None).static_cfg.offload_prob
        assert prob == pytest.approx(0.4 * 2 / 4 / (1.33 / 4 * 12.0))
