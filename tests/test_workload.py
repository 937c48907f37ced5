import json
import re

import numpy as np
import pytest

from hiroute.config import DEFAULT_MODEL_POOL, default_config
from hiroute.topology import build_topology
from hiroute.workload import (
    UNIT,
    ErrorTable,
    Job,
    Workload,
    TraceFormatError,
    best_loaded_accuracy,
    build_workload,
    confidence_from_noise,
    dirichlet_mixtures,
    inference_error,
    load_trace,
    select_model,
    synthetic_catalog,
    word_cuts,
)


def table_of(tasks, errors, sizes=None):
    """An ErrorTable from {model id: {task: error}}, one column per model in
    the dict's order; a task a model has no error for reads 1."""
    ids = list(errors)
    matrix = np.array([[errors[m].get(t, 1.0) for m in ids] for t in tasks])
    return ErrorTable(tasks, ids, [sizes[m] if sizes else 1.0 for m in ids], matrix)


def toy_table():
    """Tasks a, b, v are rows 0, 1, 2; models m0, m1, mv columns 0, 1, 2."""
    return table_of(
        ["a", "b", "v"],
        {"m0": {"a": 0.3, "b": 0.5}, "m1": {"a": 0.1, "b": 0.6}, "mv": {"a": 0.4, "v": 0.2}},
        {"m0": 2.0, "m1": 4.0, "mv": 8.0},
    )


class TestErrorTable:
    def test_unsupported_modality_forced_to_one(self, tmp_path):
        # synthetic: every text-only model fails every vision task
        table, modality, _ = synthetic_catalog(13, 0.38, 2, 2, DEFAULT_MODEL_POOL, 1)
        vision = [i for i, t in enumerate(table.tasks) if modality[t] == "vision"]
        text_only = [j for j, spec in enumerate(DEFAULT_MODEL_POOL)
                     if spec["modalities"] == ["text"]]
        assert vision and text_only
        assert (table.matrix[np.ix_(vision, text_only)] == 1.0).all()
        # trace: a header rate for an unsupported task is ignored
        header = {"models": [
            {"id": "m0", "size": 2, "modalities": ["text"], "error_prob": {"v": 0.2}},
            {"id": "mv", "size": 8, "modalities": ["text", "vision"], "error_prob": {"v": 0.3}},
        ]}
        records = [{"job_id": "x", "task_type": "v", "modality": "vision",
                    "size_units": 12.0, "correctness": {"m0": 1, "mv": 1}}]
        cfg = default_config()
        cfg["workload"].update(kind="trace", trace_path=write_trace(tmp_path, records, header))
        wl = build_workload(cfg, build_topology(**cfg["topology"]), 0)
        assert wl.error_table.matrix.tolist() == [[1.0, 0.3]]

    def test_missing_entry_treated_as_hopeless(self):
        # the catalog writes no error for a hard task: every model reads 1
        table, _, tiers = synthetic_catalog(13, 0.38, 2, 2, DEFAULT_MODEL_POOL, 1)
        hard = [i for i, t in enumerate(table.tasks) if tiers[t] == "hard"]
        assert hard
        assert (table.matrix[hard] == 1.0).all()


class TestConfidence:
    def test_no_capable_model_centers_at_zero(self):
        table = toy_table()
        rng = np.random.default_rng(0)
        center = best_loaded_accuracy(table, 2, [0, 1])
        zs = [
            confidence_from_noise(center, float(rng.standard_normal()), 0.01)
            for _ in range(200)
        ]
        assert max(zs) < 0.05

    def test_zero_noise_is_deterministic_plugin(self):
        table = toy_table()
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
        table = toy_table()
        job = Job(0, 0, 0, 1.0, (1, 1, 1))
        assert select_model(table, 0, []) is None
        assert inference_error(job, select_model(table, 0, [])) == 1

    def test_selection_rule_prefers_lowest_expected_error(self):
        table = toy_table()
        # m1 has error 0.1 on task a vs m0's 0.3; job correct under m1 only
        job = Job(0, 0, 0, 1.0, (0, 1, 0))
        assert select_model(table, 0, [0, 1]) == 1
        assert inference_error(job, select_model(table, 0, [0, 1])) == 0
        assert inference_error(job, 0) == 1

    def test_selection_tie_breaks_by_lowest_id(self):
        table = table_of(["a"], {"m1": {"a": 0.2}, "m0": {"a": 0.2}})
        assert table.model_ids[1] == "m0"
        assert select_model(table, 0, [0, 1]) == 1

    def test_tie_break_by_id_reads_the_chosen_column(self):
        # columns run zb, ma, ab (not id order); ab and zb tie on task a, so
        # the rule picks ab, the lowest id, which is the last column, and the
        # job's bit there decides the error
        table = table_of(["a"], {"zb": {"a": 0.2}, "ma": {"a": 0.5}, "ab": {"a": 0.2}})
        assert table.by_id == (2, 1, 0)
        column = select_model(table, 0, {0, 1, 2})
        assert column == 2
        assert inference_error(Job(0, 0, 0, 1.0, (1, 1, 0)), column) == 1
        assert inference_error(Job(0, 0, 0, 1.0, (0, 0, 1)), column) == 0
        assert select_model(table, 0, {0, 1}) == 0

    def test_best_loaded_accuracy(self):
        table = toy_table()
        assert best_loaded_accuracy(table, 0, [0, 2]) == pytest.approx(0.7)
        assert best_loaded_accuracy(table, 2, [0, 1]) == 0.0


def make_workload(seed=0, mean=2.0):
    cfg = default_config()
    cfg["workload"]["mean_jobs_per_slot"] = mean
    return build_workload(cfg, build_topology(**cfg["topology"]), seed)


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
        counts = [np.zeros(len(wl.error_table.tasks)) for _ in wl.task_mixture]
        for t in range(1, 10_001):
            for job in wl.generate_slot(t):
                counts[job.entry][job.task] += 1
        for node, probs in enumerate(wl.task_mixture):
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


class PerCallArrivals:
    """The per-call arrival draw the raw-word decoding must reproduce: one
    numpy ``Generator`` call per entry node, task, size, bit row and pool
    index, on the generator a :class:`Workload` of the same seed builds."""

    def __init__(self, mean, mixtures, entry_order, size_ranges, matrix, pools, seed):
        self.rng = np.random.default_rng(np.random.SeedSequence(seed))
        self.mean = mean
        self.entries = tuple(entry_order)
        cdfs = [np.cumsum(p) for p in mixtures]
        self.cdfs = [cdf / cdf[-1] for cdf in cdfs]
        self.size_ranges, self.matrix, self.pools = size_ranges, matrix, pools
        self.counter = 0

    def generate_slot(self):
        rng = self.rng
        count = int(rng.poisson(self.mean))
        entries = self.entries
        jobs = []
        for _ in range(count):
            entry = entries[int(rng.integers(len(entries)))]
            task = int(self.cdfs[entry].searchsorted(rng.random(), side="right"))
            if self.pools is not None:
                pool = self.pools[task]
                size, bits = pool[int(rng.integers(len(pool)))]
            else:
                lo, hi = self.size_ranges[task]
                size = float(rng.uniform(lo, hi))
                errors = self.matrix[task]
                bits = tuple((rng.random(errors.size) >= errors).astype(int).tolist())
            jobs.append(Job(self.counter, task, entry, size, bits))
            self.counter += 1
        return jobs


def stream_pair(seed, num_entries, rate, source):
    """A Workload and its per-call reference on one random spec: 6 tasks, 5
    models with errors of exactly 0 and 1 among them, mixtures with zero
    entries, entry nodes drawn in a shuffled order, integer and degenerate
    size ranges; ``source`` "trace-1" gives every task one recorded job,
    "trace" pools of 1 to 40."""
    spec = np.random.default_rng(10_000 + seed)
    n_tasks, n_models = 6, 5
    matrix = spec.uniform(0, 1, (n_tasks, n_models))
    matrix[0] = 1.0
    matrix[1, :2] = 0.0
    mixtures = []
    for _ in range(num_entries):
        probs = spec.dirichlet(np.ones(n_tasks))
        probs[spec.integers(n_tasks)] = 0.0
        mixtures.append(probs / probs.sum())
    entry_order = spec.permutation(num_entries).tolist()
    size_ranges = pools = None
    if source == "synthetic":
        size_ranges = [(1, 3), (2.0, 2.0)] + [
            tuple(sorted(spec.uniform(0.5, 20.0, 2).tolist())) for _ in range(n_tasks - 2)
        ]
    else:
        sizes = [1] * n_tasks if source == "trace-1" else spec.integers(1, 41, n_tasks)
        pools = [[(float(spec.uniform(1, 9)), tuple(spec.integers(0, 2, n_models).tolist()))
                  for _ in range(int(size))] for size in sizes]
    table = ErrorTable([f"t{i}" for i in range(n_tasks)], [f"m{j}" for j in range(n_models)],
                       [1.0] * n_models, matrix)
    wl = Workload(table, rate, mixtures, entry_order, 0.1, size_ranges, 1.0, seed, pools)
    ref = PerCallArrivals(rate, mixtures, entry_order, size_ranges, matrix, pools, seed)
    return wl, ref


class TestArrivalStream:
    """generate_slot decodes one block of raw words per slot into the jobs,
    and leaves the generator where, numpy's per-call draws do."""

    @pytest.mark.parametrize("source", ["synthetic", "trace-1", "trace"])
    @pytest.mark.parametrize("rate", [0.5, 1.33, 20.0])
    @pytest.mark.parametrize("num_entries", [1, 3, 4, 16])
    def test_slots_equal_per_call_draws(self, num_entries, rate, source):
        for seed in range(20):
            wl, ref = stream_pair(seed, num_entries, rate, source)
            for t in range(1, 26):
                got, want = wl.generate_slot(t), ref.generate_slot()
                assert got == want, (seed, t)
                for job in got:
                    assert type(job.size_units) is float
                    assert all(type(bit) is int for bit in job.correctness)
                assert (wl.confidence_noise(1, 2).tolist()
                        == ref.rng.standard_normal((1, 2)).tolist()), (seed, t)

    def test_word_cuts_are_least_words(self):
        # the cut is the least word whose double reaches p, also where p has
        # bits below 2**-53 that the double of no word matches
        ps = [0.0, 2.0 ** -60, 0.1, 1 / 3, 0.5, 0.75, 1.0 - 2.0 ** -53, 1.0]
        ps += np.random.default_rng(3).uniform(0, 1, 200).tolist()
        for p, cut in zip(ps, word_cuts(ps)):
            assert (cut >> 11) * UNIT >= p
            assert cut == 0 or ((cut - 1) >> 11) * UNIT < p


class TestDirichletMixtures:
    def test_mass_split_pinned(self):
        rng = np.random.default_rng(0)
        mix = dirichlet_mixtures(3, [0], 2, hard_fraction=0.11, alpha=1.0, rng=rng)
        assert len(mix) == 2
        for probs in mix:
            assert probs.sum() == pytest.approx(1.0)
            assert probs[0] == pytest.approx(0.11)

    def test_distinct_mixtures_per_entry(self):
        rng = np.random.default_rng(0)
        mix = dirichlet_mixtures(10, [0], 2, 0.11, 1.0, rng)
        assert not np.allclose(mix[0], mix[1])


class TestSyntheticCatalog:
    def test_tiers_and_hard_errors(self):
        table, modality, tiers = synthetic_catalog(
            13, 0.38, 2, 2, DEFAULT_MODEL_POOL, structure_seed=1
        )
        assert len(table.tasks) == 13
        assert table.matrix.shape == (13, len(DEFAULT_MODEL_POOL))
        hard = [t for t, tier in tiers.items() if tier == "hard"]
        assert len(hard) == 2
        for t in hard:
            assert modality[t] == "text"
            for column in range(len(table.model_ids)):
                assert table.error(table.tasks.index(t), column) == 1.0

    def test_structure_seed_fixes_catalog(self):
        a = synthetic_catalog(13, 0.38, 2, 2, DEFAULT_MODEL_POOL, structure_seed=9)
        b = synthetic_catalog(13, 0.38, 2, 2, DEFAULT_MODEL_POOL, structure_seed=9)
        assert a[1] == b[1]
        assert a[0].matrix.tolist() == b[0].matrix.tolist()


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

    def test_blank_lines_skipped(self, tmp_path):
        record = {"job_id": "x", "task_type": "qa", "modality": "text",
                  "size_units": 1.0, "correctness": {"m0": 1, "m1": 0}}
        path = tmp_path / "trace.jsonl"
        path.write_text("\n".join(
            [json.dumps(TRACE_HEADER), "", json.dumps(record), "   ", json.dumps(record), ""]
        ))
        _, jobs, _ = load_trace(str(path))
        assert [j.correctness for j in jobs] == [(1, 0), (1, 0)]


def write_lines(tmp_path, lines):
    path = tmp_path / "trace.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def record_line(**fields):
    record = {"job_id": "x", "task_type": "qa", "modality": "text",
              "size_units": 1.0, "correctness": {"m0": 1}}
    record.update(fields)
    return json.dumps(record)


def header_line(**fields):
    model = {"id": "m0", "size": 2, "modalities": ["text"]}
    model.update(fields)
    return json.dumps({"models": [model]})


class TestMalformedTrace:
    """Each malformed trace raises TraceFormatError naming its line."""

    @pytest.mark.parametrize("lines, message", [
        pytest.param([], "line 1: empty trace file", id="empty-file"),
        pytest.param(['{"model": []}'], "line 1: header must carry a 'models' list",
                     id="header-without-models"),
        pytest.param(['{"models": {"id": "m0"}}'], "line 1: header must carry a 'models' list",
                     id="models-not-a-list"),
        pytest.param(['{"models": [{"id": "m0", "modalities": ["text"]}]}'],
                     "line 1: bad model entry", id="model-without-size"),
        pytest.param(['{"models": ["m0"]}'], "line 1: bad model entry", id="model-not-an-object"),
        pytest.param([header_line(size=-1)], "line 1: bad model entry", id="nonpositive-model-size"),
        pytest.param(['{"models": [{"id": "m0", "size": Infinity, "modalities": ["text"]}]}'],
                     "line 1: bad model entry", id="infinite-model-size"),
        pytest.param([header_line(modalities="text")], "line 1: bad model entry: modalities",
                     id="string-modalities"),
        pytest.param([header_line(modalities=["txt"])], "line 1: bad model entry: modalities",
                     id="unknown-model-modality"),
        pytest.param([header_line(error_prob=[0.2])], "line 1: bad model entry: error_prob",
                     id="error-prob-not-an-object"),
        pytest.param([header_line(size=True)],
                     "line 1: bad model entry: size must be a positive finite number",
                     id="boolean-model-size"),
        pytest.param([header_line(size="3")],
                     "line 1: bad model entry: size must be a positive finite number",
                     id="string-model-size"),
        pytest.param([header_line(error_prob={"qa": 1.5})],
                     "line 1: bad model entry: error_prob of task 'qa'", id="error-prob-above-one"),
        pytest.param([header_line(error_prob={"qa": True})],
                     "line 1: bad model entry: error_prob of task 'qa'", id="boolean-error-prob"),
        pytest.param([header_line(error_prob={"Qa": 0.1}), record_line()],
                     "line 1: error_prob of model 'm0' names task 'Qa', which no record carries",
                     id="error-prob-unknown-task"),
        pytest.param(['{"models": []}', record_line(correctness={})],
                     "line 1: header lists no models",
                     id="header-without-any-model"),
        pytest.param([header_line()], "line 2: no job record after the header",
                     id="no-job-records"),
        pytest.param([header_line(), ""], "line 3: no job record after the header",
                     id="only-blank-records"),
        pytest.param(["7"], "line 1: expected a JSON object", id="header-a-number"),
        pytest.param([header_line(), "5"], "line 2: expected a JSON object", id="record-a-number"),
        pytest.param([header_line(), "{not json"], "line 2: invalid JSON", id="record-invalid-json"),
        pytest.param([header_line(), record_line(modality="audio")],
                     "line 2: unknown modality 'audio'", id="unknown-record-modality"),
        pytest.param([header_line(), record_line(correctness=[1])],
                     "line 2: correctness must be an object", id="correctness-a-list"),
        pytest.param([header_line(), record_line(correctness="1")],
                     "line 2: correctness must be an object", id="correctness-a-string"),
        pytest.param([header_line(), record_line(correctness={"m0": True})],
                     "line 2: correctness values must be 0 or 1, got True",
                     id="boolean-correctness"),
        pytest.param([header_line(), record_line(correctness={"m0": 0.0})],
                     "line 2: correctness values must be 0 or 1, got 0.0",
                     id="float-correctness"),
    ])
    def test_rejected(self, tmp_path, lines, message):
        with pytest.raises(TraceFormatError, match=re.escape(message)):
            load_trace(write_lines(tmp_path, lines))

    @pytest.mark.parametrize("size", ["0", "-2.5", "NaN", "Infinity", "-Infinity", "true",
                                      "false", '"3"', "null"])
    def test_bad_size_units_rejected(self, tmp_path, size):
        good = record_line()
        bad = record_line(size_units="SIZE").replace('"SIZE"', size)
        path = write_lines(tmp_path, [header_line(), good, bad])
        with pytest.raises(TraceFormatError, match="line 3: size_units must be a positive finite"):
            load_trace(path)


@pytest.mark.parametrize("size", [float("nan"), float("inf"), 0.0, -1.0])
def test_model_spec_rejects_bad_memory_size(tmp_path, size):
    # a header model's memory size; json writes NaN and Infinity as such
    path = write_lines(tmp_path, [header_line(size=size)])
    with pytest.raises(TraceFormatError, match="line 1: bad model entry: size must be"):
        load_trace(path)
