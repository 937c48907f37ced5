"""Golden-output lock: the metrics.csv bytes of small fixed runs.

A refactor must keep these hashes. A change that alters them on purpose
updates them in the same change, says why, and reports the acceptance
numbers per seed before and after.
"""
import hashlib

import pytest

from hiroute.config import default_config
from hiroute.engine import run_single

TOPOLOGIES = {
    3: ([4, 2, 1], [30, 100, None]),
    5: ([16, 8, 4, 2, 1], [30, 80, 150, 200, None]),
}

# sha256 of metrics.csv for a 2,000-job run of seed 0, by (policy, depth)
GOLDEN = {
    ("vr_ly_exp4", 3): "65af09c9468963c770a5e5789828b3e0320059fba1530fb34838b731a04764c0",
    ("vr_local_loss", 3): "edd78699ca8bcdacebc02c6185227c15f2f4e275c4c6ebe39846a4cbda684971",
    ("ly_exp4", 3): "5d8a011cf50aed7e2183df10d9eb412fd181f26e913b72c95438f9d1549e0c42",
    ("random", 3): "c1a68aa7d9bb03697d1eba60bc192b8e9d48ba7c7e7d57851ccb98c0cb175fc6",
    ("round_robin", 3): "69033d4d27e807647af7d14c702da904ee1b51ba7416ad1f6909a4cec5105564",
    ("pure_local", 3): "9b9710fc9de08b1831a6714de5732adedbe0a7f04a1c8e598b942645582dbe04",
    ("vr_ly_exp4", 5): "f3ac02e8be418f485ae2696ad26940e5394bc6dda18469cf7f4c05205c5ddd94",
    ("vr_local_loss", 5): "7e723d922b34efad0f523f5c17be2ff51a985761f0220c98aaeac0c32dbda563",
    ("ly_exp4", 5): "be09b4a896824c64ab4f19c4d6787432bafc5af7a68ef5c2954c3b0b71aa353d",
    ("random", 5): "460a7259cf96fa527e84838006f4dbc3c713a066bdfa54b36f679e861b62e3ca",
    ("round_robin", 5): "59dceac984a0099bd68000908fd585af51e8029bdf1108138dc4ae5e42bf4739",
    ("pure_local", 5): "7a9897f2e8466c4bc446e62bde0a74c4efda4837223ab37c8be556bcb8856d11",
}


@pytest.mark.parametrize("policy, depth", list(GOLDEN))
def test_metrics_csv_hash(policy, depth, tmp_path):
    cfg = default_config()
    cfg["policy"] = policy
    cfg["topology"]["layer_sizes"], cfg["topology"]["memory_budgets"] = TOPOLOGIES[depth]
    cfg["run"]["total_jobs"] = 2000
    run_single(cfg, 0, str(tmp_path))
    digest = hashlib.sha256((tmp_path / "metrics.csv").read_bytes()).hexdigest()
    assert digest == GOLDEN[(policy, depth)]
