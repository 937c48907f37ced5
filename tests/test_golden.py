"""Golden-output lock: the output bytes of small fixed runs.

A refactor must keep these hashes. A change that alters them on purpose
updates them in the same change, says why, and reports the acceptance
numbers per seed before and after.
"""
import builtins
import csv
import hashlib
import io
import json
import math

import numpy as np
import pytest

from hiroute.config import default_config
from hiroute.engine import run_single

TOPOLOGIES = {
    3: ([4, 2, 1], [30, 100, None]),
    5: ([16, 8, 4, 2, 1], [30, 80, 150, 200, None]),
    # 12 middle nodes: destination order is id order (n2_10 before n2_2),
    # not index order
    "3-12-2-1": ([3, 12, 2, 1], [30, 80, 150, None]),
    # 16 destinations per entry node: mixed rows of 17 entries, which numpy
    # sums as two blocks of 8 and a tail
    "2-16-1": ([2, 16, 1], [30, 80, None]),
}
FILES = ("metrics.csv", "summary.json", "placements.csv")

# sha256 of FILES for a 2,000-job run of seed 0, by (policy, topology)
GOLDEN = {
    ("vr_ly_exp4", 3): (
        "65af09c9468963c770a5e5789828b3e0320059fba1530fb34838b731a04764c0",
        "b3e3d3affb6bdbc40a2f9cf5bbb6ce46245e367efd8b3c732e5367f4a75d5347",
        "72d2f99d03992218fb739561ac9c0fcc91a81e7d4335723c98da4bf3135038a9",
    ),
    ("vr_local_loss", 3): (
        "edd78699ca8bcdacebc02c6185227c15f2f4e275c4c6ebe39846a4cbda684971",
        "409e795caa0a46c74a0314f0913a91a2ec664f6f2a6afb911b282f4176d69bd7",
        "72d2f99d03992218fb739561ac9c0fcc91a81e7d4335723c98da4bf3135038a9",
    ),
    ("ly_exp4", 3): (
        "5d8a011cf50aed7e2183df10d9eb412fd181f26e913b72c95438f9d1549e0c42",
        "f72ba673da4f324337e94f2e75972f4c4365b4bba1d3406c8c09a18fa03a5677",
        "72d2f99d03992218fb739561ac9c0fcc91a81e7d4335723c98da4bf3135038a9",
    ),
    ("random", 3): (
        "c1a68aa7d9bb03697d1eba60bc192b8e9d48ba7c7e7d57851ccb98c0cb175fc6",
        "414fb53aeb4dd1ebac7f275c0416ad0c4d5de5e40f1cb66de2fbf78e15e59605",
        "72d2f99d03992218fb739561ac9c0fcc91a81e7d4335723c98da4bf3135038a9",
    ),
    ("round_robin", 3): (
        "69033d4d27e807647af7d14c702da904ee1b51ba7416ad1f6909a4cec5105564",
        "38f680af0e5e369f3f3924cec2ac9488709d0c6b8aaee044bd11341fbd0f62f0",
        "72d2f99d03992218fb739561ac9c0fcc91a81e7d4335723c98da4bf3135038a9",
    ),
    ("pure_local", 3): (
        "9b9710fc9de08b1831a6714de5732adedbe0a7f04a1c8e598b942645582dbe04",
        "f7a640c2d36b6ca1fe5e5903de8f57d669c71ab8ba3946d5312deaece48b66ed",
        "72d2f99d03992218fb739561ac9c0fcc91a81e7d4335723c98da4bf3135038a9",
    ),
    ("vr_ly_exp4", 5): (
        "f3ac02e8be418f485ae2696ad26940e5394bc6dda18469cf7f4c05205c5ddd94",
        "3d6e651241f017a3ca6d62a3521019c4e2d79bf95bfbfa467c3629dce7977c06",
        "7ffd3749a71b9928ee7910eb5e939a5e91c006d3179de4d021c9c55c2b9d8dbe",
    ),
    ("vr_local_loss", 5): (
        "7e723d922b34efad0f523f5c17be2ff51a985761f0220c98aaeac0c32dbda563",
        "04a55f5c826d0df28365640d0b95f10913086b1b6192c3ff89ed7e6f6008f3f1",
        "7ffd3749a71b9928ee7910eb5e939a5e91c006d3179de4d021c9c55c2b9d8dbe",
    ),
    ("ly_exp4", 5): (
        "be09b4a896824c64ab4f19c4d6787432bafc5af7a68ef5c2954c3b0b71aa353d",
        "0fb7a3225b244d9370100d10cbae6f603fee344066c25c9eb170debf33045417",
        "7ffd3749a71b9928ee7910eb5e939a5e91c006d3179de4d021c9c55c2b9d8dbe",
    ),
    ("random", 5): (
        "460a7259cf96fa527e84838006f4dbc3c713a066bdfa54b36f679e861b62e3ca",
        "0784950753854f0afaada7ce482c492cf3aeb8751d91bc40b0a8498be085f034",
        "7ffd3749a71b9928ee7910eb5e939a5e91c006d3179de4d021c9c55c2b9d8dbe",
    ),
    ("round_robin", 5): (
        "59dceac984a0099bd68000908fd585af51e8029bdf1108138dc4ae5e42bf4739",
        "a96d1cfe606cf4d550f6a96a82d35eb7ab01b9f953f8fd5637bb5dfb533f157e",
        "7ffd3749a71b9928ee7910eb5e939a5e91c006d3179de4d021c9c55c2b9d8dbe",
    ),
    ("pure_local", 5): (
        "7a9897f2e8466c4bc446e62bde0a74c4efda4837223ab37c8be556bcb8856d11",
        "bd3e0e5f580a35aad4930c593a0cf852f6ee7d6ff21e82e1a952fc02fd73454c",
        "7ffd3749a71b9928ee7910eb5e939a5e91c006d3179de4d021c9c55c2b9d8dbe",
    ),
    ("vr_ly_exp4", "3-12-2-1"): (
        "2d2f2861de6ea487fe0031778be571628d381af25316fafeab8e8d31a07134ee",
        "c72a3f174fccfe27f064358bb8142bccfcb93102bff0d0f455e873c27afb2ea1",
        "7a1b25340a3129a66c7c1e58a541cf5c3200f6076a8254a9ee7d2bd81d73e66c",
    ),
    ("vr_local_loss", "3-12-2-1"): (
        "ebf81c6ce801db788868d6e5aa2c47c816de4b9dcabea2eaf74e35c250605464",
        "d2fa0a3301b7626a759e66598a72978829fe1e15ef401281fd4a34a5f0d5f5d3",
        "7a1b25340a3129a66c7c1e58a541cf5c3200f6076a8254a9ee7d2bd81d73e66c",
    ),
    ("ly_exp4", "3-12-2-1"): (
        "8648b958f8b1af147a0d0c1c3bc9a2150abfdd62a354b7dcc59ede86e4959d50",
        "19a7c03d09d4a0f2b71e6d8edbc6d7a3453d420cbe92a8d4d32455885e95a172",
        "7a1b25340a3129a66c7c1e58a541cf5c3200f6076a8254a9ee7d2bd81d73e66c",
    ),
    ("vr_ly_exp4", "2-16-1"): (
        "af947881076822efeccf1f8a19a3c6c5e6fc34ac130334b103c0f34853c64d81",
        "3ea911442660f29bbe7a48a183893d07af1e1f3fb5a5009554712b100f845f9b",
        "732c1e67a4121a66e6efeadd0142d2ace33a10e93f89be1a3bbe090e77ab3f01",
    ),
}


def golden_config(policy, topology):
    cfg = default_config()
    cfg["policy"] = policy
    cfg["topology"]["layer_sizes"], cfg["topology"]["memory_budgets"] = TOPOLOGIES[topology]
    cfg["run"]["total_jobs"] = 2000
    return cfg


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """sha256 of every file of FILES, one run per (policy, topology)."""
    done = {}

    def run(policy, topology):
        if (policy, topology) not in done:
            out = tmp_path_factory.mktemp("golden")
            run_single(golden_config(policy, topology), 0, str(out))
            done[(policy, topology)] = tuple(
                hashlib.sha256((out / name).read_bytes()).hexdigest() for name in FILES
            )
        return done[(policy, topology)]

    return run


@pytest.mark.parametrize("policy, depth", list(GOLDEN))
def test_metrics_csv_hash(policy, depth, digests):
    assert digests(policy, depth)[0] == GOLDEN[(policy, depth)][0]


@pytest.mark.parametrize("policy, depth", list(GOLDEN))
def test_summary_json_hash(policy, depth, digests):
    assert digests(policy, depth)[1] == GOLDEN[(policy, depth)][1]


@pytest.mark.parametrize("policy, depth", list(GOLDEN))
def test_placements_csv_hash(policy, depth, digests):
    assert digests(policy, depth)[2] == GOLDEN[(policy, depth)][2]


PLAIN_SUM = builtins.sum


def compensated_sum(items, start=0):
    """Python 3.12's ``sum()`` of floats: Neumaier's compensated summation.
    Only an all-float sum from 0 is compensated; any other sums as the
    running interpreter's builtin does."""
    items = list(items)
    if start != 0 or not items or any(type(x) is not float for x in items):
        return PLAIN_SUM(items, start)
    total, comp = items[0], 0.0
    for x in items[1:]:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    if comp and math.isfinite(comp):
        total += comp
    return total


def test_outputs_do_not_depend_on_sum_compensation(tmp_path, monkeypatch):
    # a 1,000-job depth-5 run at 5 jobs per slot, where a compensated sum()
    # changes the initial entropy sum and the drift penalty of some slots
    cfg = golden_config("vr_ly_exp4", 5)
    cfg["run"]["total_jobs"] = 1000
    cfg["workload"]["mean_jobs_per_slot"] = 5.0
    outputs = []
    for name, total in (("plain", PLAIN_SUM), ("compensated", compensated_sum)):
        monkeypatch.setattr(builtins, "sum", total)
        run_single(cfg, 0, str(tmp_path / name))
        outputs.append([(tmp_path / name / file).read_bytes() for file in FILES])
    assert outputs[0] == outputs[1]


def test_random_depth5_queues_drain_and_regrow(tmp_path):
    # a slot rewrites only its active nodes' queue cells, so the lock must
    # cover queues that drain to 0.0 (the cell then keeps its "0.0") and
    # regrow: the random depth-5 run has both
    run_single(golden_config("random", 5), 0, str(tmp_path))
    data = (tmp_path / "metrics.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == GOLDEN[("random", 5)][0]
    header, *rows = csv.reader(io.StringIO(data.decode("utf-8"), newline=""))
    columns = [i for i, name in enumerate(header) if name.startswith("queue_")]
    drains = regrowths = 0
    for before, after in zip(rows, rows[1:]):
        for i in columns:
            drains += float(before[i]) > 0.0 and after[i] == "0.0"
            regrowths += before[i] == "0.0" and float(after[i]) > 0.0
    assert drains > 0 and regrowths > 0


# A trace run with paths recorded. The header lists its models out of id
# order, "asmall" has no error_prob (its rates come from the recorded bits),
# and q3 is a vision task that "asmall" cannot serve.
TRACE_MODELS = [
    {"id": "zbig", "size": 40, "modalities": ["text", "vision"],
     "error_prob": {"q0": 0.05, "q1": 0.2, "q2": 0.3, "q3": 0.1}},
    {"id": "asmall", "size": 2, "modalities": ["text"]},
    {"id": "mmid", "size": 8, "modalities": ["text", "vision"],
     "error_prob": {"q0": 0.15, "q1": 0.45, "q2": 0.3}},
]
TRACE_ERROR = {  # per task, the rate at which zbig, asmall, mmid answer wrongly
    "q0": (0.05, 0.3, 0.15), "q1": (0.2, 0.7, 0.45),
    "q2": (0.3, 0.6, 0.3), "q3": (0.1, 1.0, 0.25),
}
TRACE_FILES = FILES + ("paths.jsonl",)
TRACE_GOLDEN = {
    "metrics.csv": "ed9bbd9229037393bd221d25a3273c768c634b2da40ae031c08ba389640447bf",
    "summary.json": "664d637a9817d8166bfd88e87eb7dc117c6c76ea83ce88a2944e1377a9b4b454",
    "placements.csv": "b0446be48a279ca888a0adaa6fee4c13d855c7faa11e90a1246d6256b44f58de",
    "paths.jsonl": "ccf270b3b874842661b8db5dda256220308c3f943b757757ddb664355cb55355",
}


def write_trace(path):
    """600 records; each record lists its bits in id order, not header order."""
    rng = np.random.default_rng(17)
    lines = [json.dumps({"models": TRACE_MODELS})]
    for k in range(600):
        task = f"q{k % 4}"
        wrong = dict(zip(("zbig", "asmall", "mmid"), TRACE_ERROR[task]))
        lines.append(json.dumps({
            "job_id": f"r{k}", "task_type": task,
            "modality": "vision" if task == "q3" else "text",
            "size_units": 12.0 if task == "q3" else 1.0 + (k % 5) * 0.5,
            "correctness": {m: int(rng.random() >= wrong[m]) for m in sorted(wrong)},
        }))
    path.write_text("\n".join(lines) + "\n")


# The same trace under `random` with offload_prob calibrated from the
# recorded mean job size (0.802 here, below the cap of 1).
TRACE_RANDOM_GOLDEN = {
    "metrics.csv": "8c87a5a17a8f1ff2641ca7ba3027155fa07d3c45e335dbe3c875203ac52f9e91",
    "summary.json": "e159061cbe405bc965ff70ec86534cab436755523cd7c4d89a4e5d08f3939f78",
    "placements.csv": "b0446be48a279ca888a0adaa6fee4c13d855c7faa11e90a1246d6256b44f58de",
    "paths.jsonl": "9bd05281162266851536af4b11227188e7143e7cccf78f12464cb7ee8b86bc80",
}


def trace_run_digests(tmp_path, policy):
    write_trace(tmp_path / "trace.jsonl")
    cfg = default_config()
    cfg["policy"] = policy
    cfg["topology"]["layer_sizes"], cfg["topology"]["memory_budgets"] = (
        TOPOLOGIES["3-12-2-1"]
    )
    cfg["workload"]["kind"] = "trace"
    cfg["workload"]["trace_path"] = str(tmp_path / "trace.jsonl")
    cfg["run"]["total_jobs"] = 2000
    cfg["run"]["record_paths"] = True
    out = tmp_path / "out"
    run_single(cfg, 0, str(out))
    return {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in TRACE_FILES
    }


def test_trace_run_hashes(tmp_path):
    assert trace_run_digests(tmp_path, "vr_ly_exp4") == TRACE_GOLDEN


def test_trace_calibrated_random_hashes(tmp_path):
    assert trace_run_digests(tmp_path, "random") == TRACE_RANDOM_GOLDEN
