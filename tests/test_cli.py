import csv
import json
import os

import pytest

from hiroute.cli import main
from hiroute.report import summarize_cell
from hiroute.config import (
    ConfigError,
    apply_overrides,
    default_config,
    load_config,
    merge_config,
)


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
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return str(path)


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

    def test_load_config_reports_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="line 1"):
            load_config(str(path))


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


class TestCmdValidate:
    def test_clean_build_passes(self, capsys):
        assert main(["validate"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") >= 5

    def test_injected_bug_detected(self, capsys):
        assert main(["validate", "--inject-bug", "baseline-sign"]) != 0
        out = capsys.readouterr().out
        assert "FAIL  estimator-unbiasedness" in out


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
