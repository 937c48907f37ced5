import copy
import csv
import json
import os
import re

import pytest

from hiroute import cli, policy
from hiroute.cli import main
from hiroute.report import summarize_cell
from hiroute.config import (
    ConfigError,
    apply_overrides,
    default_config,
    load_config,
    merge_config,
)
from hiroute.workload import RawWords
from tests.test_validation import high_half_first, left_to_right_total


def write_json(tmp_path, value):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(value))
    return str(path)


def small_cfg_file(tmp_path, **extra):
    cfg = {
        "run": {"total_jobs": 300, "seeds": [0]},
        "placement": {"epoch_slots": 150},
    }
    for key, value in extra.items():
        cfg.setdefault(key, {})
        if isinstance(value, dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return write_json(tmp_path, cfg)


def without(*keys):
    """The default config with the key at the path ``keys`` deleted."""
    cfg = default_config()
    section = cfg
    for key in keys[:-1]:
        section = section[key]
    del section[keys[-1]]
    return cfg


class TestConfig:
    def test_round_trip_identity(self):
        cfg = default_config()
        again = merge_config(json.loads(json.dumps(cfg)))
        assert again == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            merge_config({"topologyy": {}})
        with pytest.raises(ConfigError, match="workload.bogus"):
            merge_config({"workload": {"bogus": 1}})

    def test_slot_duration_key_removed(self):
        # the queues drain the budget once per slot whatever the key said, so
        # a slot length that only rescaled static calibration is rejected
        with pytest.raises(ConfigError, match="topology.slot_duration: unknown key"):
            merge_config({"topology": {"slot_duration": 2.0}})

    def test_regret_checkpoints_key_removed(self):
        # the regret curves are sampled every total_jobs // 10 jobs and at the
        # end; no other checkpoint list is accepted
        with pytest.raises(ConfigError, match="run.regret_checkpoints: unknown key"):
            merge_config({"run": {"regret_checkpoints": [100, 200]}})

    def test_type_and_range_checks(self):
        with pytest.raises(ConfigError, match="exploration_rate"):
            merge_config({"learning": {"exploration_rate": 1.5}})
        with pytest.raises(ConfigError, match="total_jobs"):
            merge_config({"run": {"total_jobs": 0}})
        with pytest.raises(ConfigError, match="seeds"):
            merge_config({"run": {"seeds": []}})

    def test_overrides_parse_json_values(self):
        cfg = default_config()
        out = apply_overrides(cfg, ["policy=pure_local", "learning.error_weight=35",
                                    "topology.layer_sizes=[8,4,2,1]",
                                    "topology.memory_budgets=[30,80,200,null]"])
        assert out["policy"] == "pure_local"
        assert out["learning"]["error_weight"] == 35
        assert out["topology"]["layer_sizes"] == [8, 4, 2, 1]
        assert cfg["policy"] == "vr_ly_exp4"  # original untouched

    def test_override_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            apply_overrides(default_config(), ["learning.nope=1"])

    def test_override_validated(self):
        with pytest.raises(ConfigError, match="exploration_rate"):
            apply_overrides(default_config(), ["learning.exploration_rate=1.5"])

    @pytest.mark.parametrize("modalities", ["text", ["txt"], 5, [], ["text", None]])
    def test_model_pool_modalities_checked(self, modalities):
        pool = copy.deepcopy(default_config()["workload"]["model_pool"])
        pool[1]["modalities"] = modalities
        with pytest.raises(ConfigError, match=re.escape("workload.model_pool[1].modalities")):
            merge_config({"workload": {"model_pool": pool}})

    @pytest.mark.parametrize("ids", [
        pytest.param({1: ["m02"]}, id="list"),
        pytest.param({0: None, 1: "None"}, id="null-and-string-None"),
        pytest.param({0: 5, 1: "5"}, id="int-and-string"),
        pytest.param({1: ""}, id="empty"),
    ])
    def test_model_pool_id_must_be_a_string(self, ids):
        # a list id is unhashable, and None or 5 would become the same model
        # id as "None" or "5": each is a config error naming the first
        pool = copy.deepcopy(default_config()["workload"]["model_pool"])
        for i, value in ids.items():
            pool[i]["id"] = value
        first = min(ids)
        with pytest.raises(ConfigError, match=re.escape(
                f"workload.model_pool[{first}].id: must be a non-empty string")):
            merge_config({"workload": {"model_pool": pool}})

    @pytest.mark.parametrize("load, message", [
        pytest.param(lambda tmp: merge_config({"learning": {"learning_rate": 0}}),
                     "learning.learning_rate", id="learning-rate-zero"),
        pytest.param(lambda tmp: merge_config({"learning": {"learning_rate": -0.1}}),
                     "learning.learning_rate", id="learning-rate-negative"),
        pytest.param(lambda tmp: merge_config({"learning": {"thresholds": [0.2, 0.2, 0.6]}}),
                     "learning.thresholds", id="thresholds-not-increasing"),
        pytest.param(lambda tmp: merge_config({"learning": {"thresholds": [0.2, 1.5]}}),
                     "learning.thresholds", id="thresholds-out-of-range"),
        pytest.param(lambda tmp: merge_config({"static": {"offload_prob": 1.5}}),
                     "static.offload_prob", id="offload-prob-above-one"),
        pytest.param(lambda tmp: merge_config({"static": {"offload_prob": -0.1}}),
                     "static.offload_prob", id="offload-prob-negative"),
        pytest.param(lambda tmp: merge_config({"workload": {"kind": "trace"}}),
                     "workload.trace_path: required", id="trace-without-path"),
        pytest.param(lambda tmp: load_config(write_json(tmp, [1, 2])),
                     "top level must be an object", id="top-level-not-an-object"),
        pytest.param(lambda tmp: apply_overrides(default_config(), ["policy"]),
                     "must look like key=value", id="override-without-equals"),
        pytest.param(lambda tmp: apply_overrides(default_config(), ["learning=1"]),
                     "learning: cannot override a whole section", id="override-whole-section"),
        pytest.param(lambda tmp: apply_overrides(default_config(), ["learning.nope.deeper=1"]),
                     "learning.nope.deeper: unknown key", id="override-unknown-nested-key"),
        pytest.param(lambda tmp: apply_overrides(without("topology", "resource_budget"), []),
                     "topology.resource_budget: missing", id="missing-leaf"),
        pytest.param(lambda tmp: apply_overrides(without("run"), []),
                     "run: missing", id="missing-section"),
        pytest.param(lambda tmp: merge_config({"learning": 5}),
                     "learning: must be an object", id="section-not-an-object"),
    ])
    def test_config_error_names_field(self, tmp_path, load, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            load(tmp_path)

    @pytest.mark.parametrize("partial, field", [
        pytest.param({"run": {"seeds": [True]}}, "run.seeds", id="seed"),
        pytest.param({"run": {"total_jobs": True}}, "run.total_jobs", id="total-jobs"),
        pytest.param({"topology": {"layer_sizes": [True, 2, 1]}}, "topology.layer_sizes",
                     id="layer-size"),
        pytest.param({"placement": {"epoch_slots": True}}, "placement.epoch_slots",
                     id="epoch-slots"),
        pytest.param({"workload": {"num_task_types": True}}, "workload.num_task_types",
                     id="task-types"),
        pytest.param({"workload": {"trap_task_types": False}}, "workload.trap_task_types",
                     id="trap-task-types"),
        pytest.param({"workload": {"structure_seed": False}}, "workload.structure_seed",
                     id="structure-seed"),
    ])
    def test_boolean_is_not_an_integer(self, partial, field):
        # True == 1 and False == 0 in Python; a boolean is still rejected
        with pytest.raises(ConfigError, match=re.escape(f"{field}: ")):
            merge_config(partial)

    def test_model_pool_unknown_key_rejected(self):
        pool = copy.deepcopy(default_config()["workload"]["model_pool"])
        pool[0]["base_eror"] = 0.9
        with pytest.raises(ConfigError,
                           match=re.escape("workload.model_pool[0].base_eror: unknown key")):
            merge_config({"workload": {"model_pool": pool}})
        del pool[0]["base_eror"]
        del pool[2]["size"]
        with pytest.raises(ConfigError, match=re.escape("workload.model_pool[2].size: missing")):
            merge_config({"workload": {"model_pool": pool}})

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))


@pytest.mark.parametrize("command", ["run", "sweep"])
@pytest.mark.parametrize("name", ["absent.json", ".", "utf16.json"])
def test_unreadable_config_file_exits_one(tmp_path, capsys, command, name):
    # a missing file, a directory or a file that is not UTF-8 (here UTF-16,
    # starting with the bytes ff fe) is a config error, not a traceback
    path = str(tmp_path / name)
    if name == "utf16.json":
        (tmp_path / name).write_bytes(b"\xff\xfe" + '{"policy": "random"}'.encode("utf-16-le"))
    assert main([command, "--config", path]) == 1
    assert f"config error: {path}: cannot read: " in capsys.readouterr().err


class TestCmdRun:
    def test_happy_path_prints_table_row(self, tmp_path, capsys):
        path = small_cfg_file(tmp_path)
        code = main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "feedback" in out and "hit" in out and "error" in out
        assert (tmp_path / "out" / "aggregate.json").exists()

    def test_pure_local_override_zero_hit(self, tmp_path, capsys):
        path = small_cfg_file(tmp_path)
        code = main(["run", "--config", path, "--override", "policy=pure_local"])
        assert code == 0
        out = capsys.readouterr().out
        assert "hit 0.0000" in out

    def test_invalid_field_exits_one(self, tmp_path, capsys):
        path = small_cfg_file(tmp_path)
        code = main(["run", "--config", path, "--override",
                     "learning.exploration_rate=1.5"])
        assert code == 1
        assert "exploration_rate" in capsys.readouterr().err

    def test_missing_trace_exits_two(self, tmp_path, capsys):
        path = small_cfg_file(tmp_path, workload={
            "kind": "trace", "trace_path": str(tmp_path / "absent.jsonl"),
        })
        assert main(["run", "--config", path]) == 2
        assert "runtime failure" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, field", [
        pytest.param(["--override", "run.seeds=[-1]"], "run.seeds", id="negative-seed"),
        pytest.param(["--seed-offset", "-1"], "run.seeds", id="offset-below-zero"),
        pytest.param(["--override", "workload.structure_seed=-1"], "workload.structure_seed",
                     id="negative-structure-seed"),
    ])
    def test_negative_seed_is_config_error(self, tmp_path, capsys, flags, field):
        # numpy's SeedSequence takes no negative seed: caught before any run
        path = small_cfg_file(tmp_path)
        assert main(["run", "--config", path, *flags]) == 1
        assert f"config error: {field}: must be a" in capsys.readouterr().err

    @pytest.mark.parametrize("override, field", [
        pytest.param("run.seeds=[true]", "run.seeds", id="seed"),
        pytest.param("run.total_jobs=true", "run.total_jobs", id="total-jobs"),
        pytest.param("topology.layer_sizes=[true,2,1]", "topology.layer_sizes",
                     id="layer-size"),
    ])
    def test_boolean_override_is_config_error(self, tmp_path, capsys, override, field):
        path = small_cfg_file(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", path, "--override", override, "--out", str(out)]) == 1
        assert f"config error: {field}: " in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command, extra", [
        pytest.param("run", {"run": {"total_jobs": 300, "seeds": [3, 3]}}, id="run"),
        pytest.param("sweep", {"sweep": {"axes": {"run.seeds": [[0], [3, 3]]}}},
                     id="sweep-cell"),
    ])
    def test_repeated_seed_is_config_error(self, tmp_path, capsys, command, extra):
        # both runs of a repeated seed would write one run directory
        path = small_cfg_file(tmp_path, **extra)
        out = tmp_path / "out"
        assert main([command, "--config", path, "--out", str(out)]) == 1
        assert "config error: run.seeds: must not repeat a seed" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_offset(self, tmp_path):
        path = small_cfg_file(tmp_path)
        out1 = str(tmp_path / "o1")
        out2 = str(tmp_path / "o2")
        assert main(["run", "--config", path, "--out", out1,
                     "--seed-offset", "5"]) == 0
        assert main(["run", "--config", path, "--out", out2]) == 0
        assert os.path.isdir(os.path.join(out1, "vr_ly_exp4_4-2-1_greedy_s5"))
        assert os.path.isdir(os.path.join(out2, "vr_ly_exp4_4-2-1_greedy_s0"))


class TestCmdSweep:
    def test_cross_product_and_table(self, tmp_path, capsys):
        cfg = {
            "run": {"total_jobs": 200, "seeds": [0, 1]},
            "placement": {"epoch_slots": 150},
            "sweep": {"axes": {
                "policy": ["pure_local", "random"],
                "workload.mean_jobs_per_slot": [1.0, 2.0],
            }},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "sweep_out"
        code = main(["sweep", "--config", str(path), "--out", str(out_dir)])
        assert code == 0
        table = (out_dir / "sweep_table.csv").read_text().splitlines()
        assert len(table) == 1 + 4  # header + 2x2 cells
        assert "4/4 cells succeeded" in capsys.readouterr().out

    def test_process_pool_writes_same_table(self, tmp_path):
        cfg = {
            "run": {"total_jobs": 100, "seeds": [0]},
            "sweep": {"axes": {"policy": ["random", "vr_ly_exp4"]}},
        }
        path = write_json(tmp_path, cfg)
        tables = []
        for jobs in ("1", "2"):
            out_dir = tmp_path / f"jobs{jobs}"
            assert main(["sweep", "--config", path, "--out", str(out_dir), "--jobs", jobs]) == 0
            tables.append((out_dir / "sweep_table.csv").read_bytes())
        assert tables[0] == tables[1]
        assert len(tables[0].splitlines()) == 1 + 2

    @pytest.mark.parametrize("jobs, cpus, workers", [
        pytest.param(64, 8, 2, id="capped-at-cells"),
        pytest.param(64, 1, None, id="one-cpu-runs-serially"),
        pytest.param(3, 2, 2, id="capped-at-cpus"),
        pytest.param(1, 8, None, id="one-job-runs-serially"),
    ])
    def test_pool_size_capped(self, tmp_path, monkeypatch, jobs, cpus, workers):
        # a recording stand-in for the pool: no process is started
        started = []

        class Recorder:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli.concurrent.futures, "ProcessPoolExecutor", Recorder)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        cfg = {
            "run": {"total_jobs": 50, "seeds": [0]},
            "sweep": {"axes": {"policy": ["random", "pure_local"]}},
        }
        path = write_json(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--jobs", str(jobs)]) == 0
        assert started == ([] if workers is None else [workers])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_nonpositive_jobs_is_config_error(self, tmp_path, capsys, jobs):
        cfg = {"run": {"total_jobs": 50, "seeds": [0]},
               "sweep": {"axes": {"policy": ["random"]}}}
        path = write_json(tmp_path, cfg)
        assert main(["sweep", "--config", path, "--jobs", jobs]) == 1
        assert "--jobs: must be at least 1" in capsys.readouterr().err

    def test_invalid_cell_value_is_config_error(self, tmp_path, capsys):
        # an out-of-range axis value stops the sweep before any cell runs
        cfg = {"run": {"total_jobs": 50, "seeds": [0]},
               "sweep": {"axes": {"learning.exploration_rate": [0.1, 1.5]}}}
        path = write_json(tmp_path, cfg)
        out_dir = tmp_path / "sweep_out"
        assert main(["sweep", "--config", path, "--out", str(out_dir)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: learning.exploration_rate: ")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_empty_sweep_exits_one(self, tmp_path, capsys):
        path = small_cfg_file(tmp_path)
        assert main(["sweep", "--config", path]) == 1
        assert "axes" in capsys.readouterr().err

    def test_partial_failure_reported(self, tmp_path, capsys):
        cfg = {
            "run": {"total_jobs": 100, "seeds": [0]},
            "sweep": {"axes": {"workload.mean_jobs_per_slot": [1.0, 0.0]}},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        code = main(["sweep", "--config", str(path)])
        assert code == 2
        out = capsys.readouterr().out
        assert "FAILED" in out
        assert "1/2 cells succeeded" in out

    def test_failed_cell_leaves_no_run_for_report(self, tmp_path, capsys):
        cfg = {
            "run": {"total_jobs": 100, "seeds": [0]},
            "sweep": {"axes": {"workload.mean_jobs_per_slot": [1.0, 0.0]}},
        }
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out_dir = tmp_path / "sweep_out"
        assert main(["sweep", "--config", str(path), "--out", str(out_dir)]) == 2
        # only the cell that ran left a summary for `report` to count
        (summary,) = out_dir.glob("**/summary.json")
        assert "mean_jobs_per_slot-1-0" in str(summary)
        assert main(["report", "--out", str(out_dir)]) == 0
        with open(out_dir / "report_table.csv", newline="", encoding="utf-8") as fh:
            (row,) = csv.DictReader(fh)
        assert int(row["runs"]) == 1
        assert float(row["error_rate_mean"]) == json.loads(summary.read_text())["error_rate"]


def status_lines(out):
    """Each check's status and name from ``hiroute validate``'s output."""
    return [line.split(":")[0] for line in out.splitlines()]


class TestCmdValidate:
    def test_clean_build_passes(self, capsys, monkeypatch, property_suite):
        # the command prints the session's one clean run of the suite, which
        # tests/test_validation.py checks; test_injected_bug_detected runs
        # the suite itself through the command
        monkeypatch.setattr(cli, "run_property_suite", lambda: property_suite[0])
        assert main(["validate"]) == 0
        assert status_lines(capsys.readouterr().out) == [
            "PASS  distribution-build", "PASS  arrival-draws", "PASS  loss-sweep",
        ]

    def test_injected_bug_detected(self, capsys, monkeypatch):
        # each injected bug fails its own check only
        for target, name, bug, check in (
            (policy, "add_reduce", left_to_right_total, "distribution-build"),
            (RawWords, "split", staticmethod(high_half_first), "arrival-draws"),
        ):
            with monkeypatch.context() as patch:
                patch.setattr(target, name, bug)
                assert main(["validate"]) != 0
            lines = status_lines(capsys.readouterr().out)
            assert [line for line in lines if line.startswith("FAIL")] == [f"FAIL  {check}"]
            assert len(lines) == 3


class TestCmdReport:
    def test_aggregates_summaries(self, tmp_path, capsys):
        path = small_cfg_file(tmp_path)
        out_dir = str(tmp_path / "runs")
        assert main(["run", "--config", path, "--out", out_dir]) == 0
        assert main(["report", "--out", out_dir]) == 0
        assert (tmp_path / "runs" / "report_table.csv").exists()

    def test_null_hit_rate_skipped(self, tmp_path, capsys):
        # without hard jobs the hit rate is undefined: null, not 0.0
        path = small_cfg_file(tmp_path, workload={"hard_task_fraction": 0.0})
        out_dir = tmp_path / "runs"
        assert main(["run", "--config", path, "--out", str(out_dir)]) == 0
        (summary,) = out_dir.glob("*/summary.json")
        assert json.loads(summary.read_text())["hit_rate"] is None
        assert main(["report", "--out", str(out_dir)]) == 0
        out = capsys.readouterr().out
        assert "hit" not in out and "error" in out
        cell = summarize_cell([
            {"error_rate": 0.1, "hit_rate": None, "feedback_rate": 0.1},
            {"error_rate": 0.2, "hit_rate": 0.5, "feedback_rate": 0.3},
        ])
        assert cell["runs"] == 2 and cell["hit_rate_mean"] == 0.5

    def test_empty_dir_exits_one(self, tmp_path, capsys):
        empty = tmp_path / "none"
        empty.mkdir()
        assert main(["report", "--out", str(empty)]) == 1

    @pytest.mark.parametrize("text, problem", [
        ('{"policy": "p", "error_rate": 0.1', "Expecting"),  # cut short
        ("[1, 2]", "not a JSON object"),
        ('{"policy": "p"}', "missing error_rate, feedback_rate, hit_rate"),
        ('{"policy": "p", "error_rate": "x", "hit_rate": null, "feedback_rate": 0.1}',
         "error_rate must be a finite number"),
        ('{"policy": ["p"], "error_rate": 0.1, "hit_rate": null, "feedback_rate": 0.1}',
         "policy must be a string"),
        ('{"policy": 5, "error_rate": 0.1, "hit_rate": null, "feedback_rate": 0.1}',
         "policy must be a string"),
        ('{"policy": "p", "error_rate": true, "hit_rate": null, "feedback_rate": 0.1}',
         "error_rate must be a finite number"),
        ('{"policy": "p", "error_rate": 0.1, "hit_rate": null, "feedback_rate": NaN}',
         "feedback_rate must be a finite number"),
        ('{"policy": "p", "error_rate": 0.1, "hit_rate": "0.5", "feedback_rate": 0.1}',
         "hit_rate must be a finite number or null"),
    ], ids=["truncated", "not-object", "missing-keys", "string-error-rate", "list-policy",
            "number-policy", "boolean-error-rate", "nan-feedback-rate", "string-hit-rate"])
    def test_malformed_summary_exits_one(self, tmp_path, capsys, text, problem):
        # a summary an interrupted run left behind is named, not a traceback
        run_dir = tmp_path / "runs" / "cell"
        run_dir.mkdir(parents=True)
        (run_dir / "summary.json").write_text(text)
        assert main(["report", "--out", str(tmp_path / "runs")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"report error: {run_dir / 'summary.json'}: ")
        assert problem in err
