import numpy as np
import pytest

from hiroute.baselines import (
    EstimatorVariant,
    StaticPolicyConfig,
    calibrate_offload_prob,
    static_action,
    variant_flags,
)
from hiroute.topology import build_topology


def topo():
    return build_topology([4, 2, 1], [30, 100, None], 0.4)


class TestStaticAction:
    # node index 0 is n1_0, whose two destinations are n2_0 and n2_1

    def test_pure_local_never_offloads(self):
        cfg = StaticPolicyConfig(kind="pure_local", offload_prob=0.9)
        assert cfg.offload_prob == 0.0
        rng = np.random.default_rng(0)
        assert all(static_action(cfg, 0, 2, rng) == 0 for _ in range(200))

    def test_random_long_run_frequency(self):
        cfg = StaticPolicyConfig(kind="random", offload_prob=0.12)
        rng = np.random.default_rng(1)
        n = 50_000
        offloads = sum(static_action(cfg, 0, 2, rng) != 0 for _ in range(n))
        sigma = np.sqrt(0.12 * 0.88 / n)
        assert abs(offloads / n - 0.12) <= 3 * sigma

    def test_random_destination_uniform(self):
        cfg = StaticPolicyConfig(kind="random", offload_prob=1.0)
        rng = np.random.default_rng(2)
        actions = [static_action(cfg, 0, 2, rng) for _ in range(10_000)]
        assert set(actions) == {1, 2}
        frac = sum(a == 1 for a in actions) / len(actions)
        assert abs(frac - 0.5) < 0.02

    def test_round_robin_alternates_exactly(self):
        cfg = StaticPolicyConfig(kind="round_robin", offload_prob=1.0)
        t = topo()
        ids, dests = t.node_ids, t.dests
        rng = np.random.default_rng(3)
        actions = [static_action(cfg, 0, len(dests[0]), rng) for _ in range(6)]
        assert [ids[dests[0][a - 1]] for a in actions] == [
            "n2_0", "n2_1", "n2_0", "n2_1", "n2_0", "n2_1"
        ]

    def test_round_robin_counters_are_per_node(self):
        cfg = StaticPolicyConfig(kind="round_robin", offload_prob=1.0)
        rng = np.random.default_rng(4)
        a = static_action(cfg, 0, 2, rng)
        b = static_action(cfg, 1, 2, rng)
        assert a == b == 1  # independent rotations

    @pytest.mark.parametrize("kind", ["random", "round_robin"])
    def test_matches_node_id_reference(self, kind):
        # the former encoding drew an uplink node id; mapped through the
        # destination table, the index draws name the same nodes, with the
        # same generator state afterwards. On 3-12-2-1 the uplinks' id order
        # (n2_10 before n2_2) differs from their index order.
        t = build_topology([3, 12, 2, 1], [30, 80, 150, None], 0.4)
        ids, dests = t.node_ids, t.dests
        assert list(dests[0]) != sorted(dests[0])
        cfg = StaticPolicyConfig(kind=kind, offload_prob=0.7)
        counters = {}

        def reference(node, rng):
            # the next layer's ids, sorted
            uplinks = sorted(ids[i] for i in t.layers[t.layer_of(node)])
            if rng.random() >= 0.7:
                return 0
            if kind == "random":
                return uplinks[int(rng.integers(len(uplinks)))]
            counter = counters.get(node, 0)
            counters[node] = counter + 1
            return uplinks[counter % len(uplinks)]

        ours, theirs = np.random.default_rng(5), np.random.default_rng(5)
        picks = np.random.default_rng(6).integers(0, 17, size=3000)  # the non-terminal nodes
        for node in picks.tolist():
            action = static_action(cfg, node, len(dests[node]), ours)
            want = reference(node, theirs)
            assert (ids[dests[node][action - 1]] if action else 0) == want
        assert ours.bit_generator.state == theirs.bit_generator.state

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            StaticPolicyConfig(kind="greedy")


class TestCalibration:
    def test_reference_setup_near_012(self):
        # rate x size = 1.667 per entry with a halving topology gives ~0.12
        p = calibrate_offload_prob(topo(), 0.25, 20.0 / 3.0)
        assert p == pytest.approx(0.12, abs=0.001)

    def test_zero_arrivals_caps_at_one(self):
        assert calibrate_offload_prob(topo(), 0.0, 5.0) == 1.0

    def test_doubling_size_halves_probability(self):
        p1 = calibrate_offload_prob(topo(), 0.3, 4.0)
        p2 = calibrate_offload_prob(topo(), 0.3, 8.0)
        assert p2 == pytest.approx(p1 / 2)

    def test_calibration_saturates_binding_layer_budget(self):
        # inbound cost at a second-layer node under the calibrated probability
        # equals the per-slot budget (the binding constraint) by construction
        from hiroute.config import default_config
        from hiroute.workload import build_workload

        cfg = default_config()
        t = build_topology(**cfg["topology"])
        rate = cfg["workload"]["mean_jobs_per_slot"] / len(t.layers[0])
        size = build_workload(cfg, t, 0).mean_job_size
        gamma = cfg["topology"]["resource_budget"]
        p = calibrate_offload_prob(t, rate, size)
        fan_in = len(t.layers[0]) / len(t.layers[1])
        inbound = fan_in * rate * size * p
        assert inbound == pytest.approx(gamma, rel=0.1)


class TestVariantFlags:
    def test_naive_variant(self):
        assert variant_flags("ly_exp4") == EstimatorVariant(False, False)

    def test_full_variant(self):
        assert variant_flags("vr_ly_exp4") == EstimatorVariant(True, False)

    def test_local_loss_variant(self):
        assert variant_flags("vr_local_loss") == EstimatorVariant(True, True)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            variant_flags("pure_local")
