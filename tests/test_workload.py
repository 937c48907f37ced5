import json

import numpy as np
import pytest

from hiroute.config import DEFAULT_MODEL_POOL, default_config
from hiroute.engine import build_topology_from_config, build_workload
from hiroute.workload import (
    ErrorTable,
    Job,
    ModelSpec,
    TraceFormatError,
    best_loaded_accuracy,
    confidence_from_noise,
    dirichlet_mixtures,
    inference_error,
    load_trace,
    select_model,
    synthetic_catalog,
)


def toy_table():
    """Tasks a, b, v are rows 0, 1, 2; models m0, m1, mv columns 0, 1, 2."""
    models = [
        ModelSpec("m0", 2.0, frozenset(["text"]), {"a": 0.3, "b": 0.5}),
        ModelSpec("m1", 4.0, frozenset(["text"]), {"a": 0.1, "b": 0.6}),
        ModelSpec("mv", 8.0, frozenset(["text", "vision"]), {"a": 0.4, "v": 0.2}),
    ]
    modality = {"a": "text", "b": "text", "v": "vision"}
    return models, ErrorTable(["a", "b", "v"], models, modality)


class TestErrorTable:
    def test_unsupported_modality_forced_to_one(self):
        _, table = toy_table()
        assert table.error(2, 0) == 1.0
        assert table.error(2, 1) == 1.0
        assert table.error(2, 2) == 0.2

    def test_missing_entry_treated_as_hopeless(self):
        _, table = toy_table()
        assert table.error(1, 2) == 1.0


class TestConfidence:
    def test_no_capable_model_centers_at_zero(self):
        _, table = toy_table()
        rng = np.random.default_rng(0)
        center = best_loaded_accuracy(table, 2, [0, 1])
        zs = [
            confidence_from_noise(center, float(rng.standard_normal()), 0.01)
            for _ in range(200)
        ]
        assert max(zs) < 0.05

    def test_zero_noise_is_deterministic_plugin(self):
        _, table = toy_table()
        # best loaded model has error 0.3 -> accuracy 0.7; adding m1 (0.1) -> 0.9
        z = confidence_from_noise(best_loaded_accuracy(table, 0, [0]), 5.0, 0.0)
        assert z == pytest.approx(0.7)
        z = confidence_from_noise(best_loaded_accuracy(table, 0, [0, 1]), 5.0, 0.0)
        assert z == pytest.approx(0.9)

    def test_monte_carlo_mean_in_clamp_free_region(self):
        # center 0.8, sigma 0.1: mean over 10^4 draws within 3 sigma/sqrt(N)
        rng = np.random.default_rng(7)
        draws = [
            confidence_from_noise(0.8, float(rng.standard_normal()), 0.1)
            for _ in range(10_000)
        ]
        assert abs(np.mean(draws) - 0.8) < 3 * 0.1 / np.sqrt(10_000) + 1e-3

    def test_clamped_to_unit_interval(self):
        assert confidence_from_noise(0.95, 10.0, 0.1) == 1.0
        assert confidence_from_noise(0.05, -10.0, 0.1) == 0.0


class TestInferenceError:
    def test_empty_placement_always_fails(self):
        _, table = toy_table()
        job = Job(0, 0, 0, 1.0, (1, 1, 1))
        assert select_model(table, 0, []) is None
        assert inference_error(job, select_model(table, 0, [])) == 1

    def test_selection_rule_prefers_lowest_expected_error(self):
        _, table = toy_table()
        # m1 has error 0.1 on task a vs m0's 0.3; job correct under m1 only
        job = Job(0, 0, 0, 1.0, (0, 1, 0))
        assert select_model(table, 0, [0, 1]) == 1
        assert inference_error(job, select_model(table, 0, [0, 1])) == 0
        assert inference_error(job, 0) == 1

    def test_selection_tie_breaks_by_lowest_id(self):
        models = [
            ModelSpec("m1", 1.0, frozenset(["text"]), {"a": 0.2}),
            ModelSpec("m0", 1.0, frozenset(["text"]), {"a": 0.2}),
        ]
        table = ErrorTable(["a"], models, {"a": "text"})
        assert table.model_ids[1] == "m0"
        assert select_model(table, 0, [0, 1]) == 1

    def test_tie_break_by_id_reads_the_chosen_column(self):
        # columns run zb, ma, ab (not id order); ab and zb tie on task a, so
        # the rule picks ab, the lowest id, which is the last column, and the
        # job's bit there decides the error
        models = [
            ModelSpec("zb", 1.0, frozenset(["text"]), {"a": 0.2}),
            ModelSpec("ma", 1.0, frozenset(["text"]), {"a": 0.5}),
            ModelSpec("ab", 1.0, frozenset(["text"]), {"a": 0.2}),
        ]
        table = ErrorTable(["a"], models, {"a": "text"})
        assert table.by_id == (2, 1, 0)
        column = select_model(table, 0, {0, 1, 2})
        assert column == 2
        assert inference_error(Job(0, 0, 0, 1.0, (1, 1, 0)), column) == 1
        assert inference_error(Job(0, 0, 0, 1.0, (0, 0, 1)), column) == 0
        assert select_model(table, 0, {0, 1}) == 0

    def test_best_loaded_accuracy(self):
        _, table = toy_table()
        assert best_loaded_accuracy(table, 0, [0, 2]) == pytest.approx(0.7)
        assert best_loaded_accuracy(table, 2, [0, 1]) == 0.0


def make_workload(seed=0, mean=2.0):
    cfg = default_config()
    cfg["workload"]["mean_jobs_per_slot"] = mean
    topo = build_topology_from_config(cfg)
    return build_workload(cfg, topo, seed)


class TestGeneration:
    def test_zero_rate_gives_empty_slots(self):
        wl = make_workload(mean=0.0)
        for t in range(1, 50):
            assert wl.generate_slot(t) == []

    def test_reproducible_stream(self):
        a = make_workload(seed=3)
        b = make_workload(seed=3)
        for t in range(1, 30):
            ja, jb = a.generate_slot(t), b.generate_slot(t)
            assert ja == jb

    def test_jobs_carry_complete_correctness(self):
        wl = make_workload()
        jobs = []
        t = 0
        while len(jobs) < 50:
            t += 1
            jobs.extend(wl.generate_slot(t))
        for job in jobs:
            assert len(job.correctness) == len(wl.error_table.model_ids)
            assert all(v in (0, 1) for v in job.correctness)
            assert job.size_units > 0

    def test_empirical_mixture_matches_draw(self):
        # per-node task frequencies within multinomial bounds over 10^4 slots
        wl = make_workload(seed=11, mean=2.0)
        counts = [np.zeros(len(wl.tasks)) for _ in wl.arrivals.task_mixture]
        for t in range(1, 10_001):
            for job in wl.generate_slot(t):
                counts[job.entry][job.task] += 1
        for node, probs in enumerate(wl.arrivals.task_mixture):
            n = counts[node].sum()
            emp = counts[node] / n
            bound = 3.0 * np.sqrt(probs * (1 - probs) / n) + 5e-3
            assert np.all(np.abs(emp - probs) <= bound), node

    def test_hard_fraction_calibrated(self):
        wl = make_workload(seed=5, mean=4.0)
        jobs = []
        t = 0
        while len(jobs) < 20_000:
            t += 1
            jobs.extend(wl.generate_slot(t))
        hard = sum(j.is_hard() for j in jobs) / len(jobs)
        assert abs(hard - 0.11) < 0.02


class TestConfidenceNoise:
    @pytest.mark.parametrize("num_jobs", [0, 1, 20])
    def test_slot_draw_equals_per_job_draws(self, num_jobs):
        # one (jobs, nodes) draw per slot: the same values, and the same
        # generator state afterwards, as one draw of num_nodes per job
        batched, per_job = make_workload(seed=7), make_workload(seed=7)
        num_nodes = 31
        for t in range(1, 4):
            batched.generate_slot(t)
            per_job.generate_slot(t)
            got = batched.confidence_noise(num_jobs, num_nodes)
            want = [per_job._rng.standard_normal(num_nodes) for _ in range(num_jobs)]
            assert got.shape == (num_jobs, num_nodes)
            assert got.tolist() == [row.tolist() for row in want]
            assert batched._rng.bit_generator.state == per_job._rng.bit_generator.state


class TestDirichletMixtures:
    def test_mass_split_pinned(self):
        rng = np.random.default_rng(0)
        mix = dirichlet_mixtures(
            ["h", "a", "b"], ["h"], 2, hard_fraction=0.11, alpha=1.0, rng=rng
        )
        assert len(mix) == 2
        for probs in mix:
            assert probs.sum() == pytest.approx(1.0)
            assert probs[0] == pytest.approx(0.11)

    def test_distinct_mixtures_per_entry(self):
        rng = np.random.default_rng(0)
        mix = dirichlet_mixtures(
            [f"t{i}" for i in range(10)], ["t0"], 2, 0.11, 1.0, rng
        )
        assert not np.allclose(mix[0], mix[1])


class TestSyntheticCatalog:
    def test_tiers_and_hard_errors(self):
        tasks, modality, models, tiers = synthetic_catalog(
            13, 0.38, 2, 2, DEFAULT_MODEL_POOL, structure_seed=1
        )
        assert len(tasks) == 13
        hard = [t for t, tier in tiers.items() if tier == "hard"]
        assert len(hard) == 2
        table = ErrorTable(tasks, models, modality)
        for t in hard:
            assert modality[t] == "text"
            for column in range(len(models)):
                assert table.error(tasks.index(t), column) == 1.0

    def test_structure_seed_fixes_catalog(self):
        a = synthetic_catalog(13, 0.38, 2, 2, DEFAULT_MODEL_POOL, structure_seed=9)
        b = synthetic_catalog(13, 0.38, 2, 2, DEFAULT_MODEL_POOL, structure_seed=9)
        assert a[1] == b[1]
        assert [m.error_prob for m in a[2]] == [m.error_prob for m in b[2]]


TRACE_HEADER = {
    "models": [
        {"id": "m0", "size": 2, "modalities": ["text"], "error_prob": {"qa": 0.2}},
        {"id": "m1", "size": 8, "modalities": ["text", "vision"]},
    ]
}


def write_trace(tmp_path, records, header=TRACE_HEADER):
    path = tmp_path / "trace.jsonl"
    lines = [json.dumps(header)]
    lines += [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestTrace:
    def test_round_trip_toy_trace(self, tmp_path):
        records = [
            {"job_id": f"t{i}", "task_type": "qa", "modality": "text",
             "size_units": 2.0, "correctness": {"m0": i % 2, "m1": 1}}
            for i in range(3)
        ]
        path = write_trace(tmp_path, records)
        models, jobs, modality = load_trace(path)
        assert [m.model_id for m in models] == ["m0", "m1"]
        assert len(jobs) == 3
        assert modality == {"qa": "text"}
        assert jobs[0].correctness == (0, 1)
        assert jobs[1].correctness == (1, 1)

    def test_bits_kept_in_header_order(self, tmp_path):
        header = {"models": [
            {"id": "zz", "size": 1, "modalities": ["text"]},
            {"id": "aa", "size": 1, "modalities": ["text"]},
        ]}
        records = [{"job_id": "x", "task_type": "qa", "modality": "text",
                    "size_units": 1.0, "correctness": {"aa": 1, "zz": 0}}]
        _, jobs, _ = load_trace(write_trace(tmp_path, records, header))
        assert jobs[0].correctness == (0, 1)

    def test_non_binary_correctness_rejected(self, tmp_path):
        records = [{"job_id": "x", "task_type": "qa", "modality": "text",
                    "size_units": 1.0, "correctness": {"m0": 0.5, "m1": 1}}]
        path = write_trace(tmp_path, records)
        with pytest.raises(TraceFormatError, match="line 2"):
            load_trace(path)

    def test_unknown_model_rejected(self, tmp_path):
        records = [{"job_id": "x", "task_type": "qa", "modality": "text",
                    "size_units": 1.0, "correctness": {"m0": 1, "m1": 1, "zz": 0}}]
        path = write_trace(tmp_path, records)
        with pytest.raises(TraceFormatError, match="unknown model_id"):
            load_trace(path)

    def test_missing_model_names_line(self, tmp_path):
        records = [
            {"job_id": "x", "task_type": "qa", "modality": "text",
             "size_units": 1.0, "correctness": {"m0": 1, "m1": 1}},
            {"job_id": "y", "task_type": "qa", "modality": "text",
             "size_units": 1.0, "correctness": {"m1": 1}},
        ]
        path = write_trace(tmp_path, records)
        with pytest.raises(TraceFormatError, match=r"line 3: correctness missing models \['m0'\]"):
            load_trace(path)

    def test_duplicate_model_id_rejected(self, tmp_path):
        header = {"models": [
            {"id": "m0", "size": 1, "modalities": ["text"]},
            {"id": "m0", "size": 2, "modalities": ["text"]},
        ]}
        path = write_trace(tmp_path, [], header)
        with pytest.raises(TraceFormatError, match="line 1: duplicate model id"):
            load_trace(path)

    def test_missing_field_names_line(self, tmp_path):
        records = [{"job_id": "x", "task_type": "qa", "modality": "text",
                    "correctness": {"m0": 1, "m1": 0}}]
        path = write_trace(tmp_path, records)
        with pytest.raises(TraceFormatError, match="line 2.*size_units"):
            load_trace(path)

    def test_disagreeing_modality_names_line(self, tmp_path):
        records = [
            {"job_id": f"x{i}", "task_type": "qa", "modality": m,
             "size_units": 1.0, "correctness": {"m0": 1, "m1": 1}}
            for i, m in enumerate(["text", "text", "vision"])
        ]
        path = write_trace(tmp_path, records)
        with pytest.raises(TraceFormatError, match="line 4: task 'qa'"):
            load_trace(path)

    def test_large_catalog_accepted(self, tmp_path):
        header = {"models": [
            {"id": f"m{i:02d}", "size": 1 + i % 7, "modalities": ["text"]}
            for i in range(23)
        ]}
        ids = [f"m{i:02d}" for i in range(23)]
        records = [
            {"job_id": f"j{k}", "task_type": f"task{k % 114}", "modality": "text",
             "size_units": 1.5, "correctness": {m: (k + i) % 2 for i, m in enumerate(ids)}}
            for k in range(300)
        ]
        path = write_trace(tmp_path, records, header)
        models, jobs, _ = load_trace(path)
        assert len(models) == 23
        assert len({j.task_type for j in jobs}) == 114
