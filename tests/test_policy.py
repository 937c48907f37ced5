from functools import reduce
from operator import add

import numpy as np
import pytest

from hiroute.policy import (
    DEFAULT_THRESHOLDS,
    ActionDistribution,
    ExpertGrid,
    ExpertTable,
    add_reduce,
)
from hiroute.validation import per_table_refresh, spanning_losses


# accumulate_loss(node, task, 0, 0.0, matrix) adds a full matrix: with cut 0
# every row takes the offload part, which broadcasts


def make_table(thresholds=(0.3, 0.7), dests=(1,), eta=0.1, lam=0.1):
    grid = ExpertGrid(thresholds=thresholds, destinations=dests)
    return ExpertTable({0: grid}, 1, learning_rate=eta, exploration_rate=lam)


def cum_loss(table, node, task):
    """The cumulative expert losses a table holds at (node, task)."""
    return table._entries[(node, task)].cum_loss


class TestExpertGrid:
    def test_default_grid_is_uniform_11_points(self):
        assert DEFAULT_THRESHOLDS == tuple(round(0.1 * i, 1) for i in range(11))

    def test_size(self):
        grid = ExpertGrid(DEFAULT_THRESHOLDS, (1, 2))
        assert grid.size == 22
        assert grid.shape == (11, 2)

    def test_rejects_unsorted_thresholds(self):
        with pytest.raises(ValueError):
            ExpertGrid((0.5, 0.2), (1,))


class TestActionProbs:
    def test_hand_enumeration_two_thresholds(self):
        # uniform weights over {(0.3, u0), (0.7, u0)}; z=0.5: only 0.7 > z
        table = make_table()
        dist = table.action_probs(0, 0, 0.5)
        assert sum(dist.raw[1:]) == pytest.approx(0.5)
        assert dist.raw[0] == pytest.approx(0.5)

    def test_confidence_above_all_thresholds_terminates(self):
        table = make_table(lam=0.1)
        dist = table.action_probs(0, 0, 1.0)
        assert dist.raw[0] == pytest.approx(1.0)
        assert dist.mixed[0] == pytest.approx(1 - 0.1 + 0.1 / 2)

    def test_exploration_floor(self):
        table = make_table(lam=0.1)
        for z in np.linspace(0, 1, 21):
            dist = table.action_probs(0, 0, float(z))
            assert np.all(np.array(dist.mixed) >= 0.05 - 1e-12)

    def test_partition_identity(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        rng = np.random.default_rng(0)
        table.accumulate_loss(0, 0, 0, 0.0, rng.normal(0, 5, size=(11, 2)))
        table.refresh_dirty()
        for z in np.linspace(0, 1, 31):
            dist = table.action_probs(0, 0, float(z))
            assert sum(dist.raw) == pytest.approx(1.0, abs=1e-12)
            assert sum(dist.mixed) == pytest.approx(1.0, abs=1e-12)

    def test_matches_threshold_mask_reference(self):
        # the cut at bisect_right(thresholds, z) selects exactly the experts
        # whose threshold exceeds z, and sums them to the same bits
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2, 3), lam=0.07)
        rng = np.random.default_rng(12)
        for _ in range(50):
            table.accumulate_loss(0, 0, 0, 0.0, rng.normal(0, 40, size=(11, 3)))
            table.refresh_dirty()
            w = table.weights(0, 0)
            for z in (*rng.uniform(0, 1, size=10), *DEFAULT_THRESHOLDS, 0.0, 1.0):
                mask = np.asarray(DEFAULT_THRESHOLDS) > z
                raw = np.concatenate(([float(w[~mask, :].sum())], w[mask, :].sum(axis=0)))
                mixed = (1.0 - 0.07) * raw + 0.07 / 4
                dist = table.action_probs(0, 0, float(z))
                assert dist.cut == int((~mask).sum())
                assert dist.raw == tuple(raw.tolist())
                assert dist.mixed == tuple(mixed.tolist())


class TestBuildBits:
    def test_add_reduce_matches_numpy_at_every_length(self):
        rng = np.random.default_rng(30)
        for n in range(1, 301):
            for _ in range(20):
                values = rng.uniform(-1, 1, n) * 10.0 ** rng.integers(-15, 8, n)
                assert add_reduce(values.tolist()) == np.add.reduce(values), n

class TestStackedRefresh:
    def test_table_batch_matches_per_table_refresh_and_replay(self):
        # tables of three shapes, each dirtied once over several slots in a
        # random order, all computed by one batch at the first read: each
        # table's weights, each slot's mean entropy and the final mean equal
        # refreshing every dirty table at its slot's end, in dirty order
        rng = np.random.default_rng(60)
        grids = {0: ExpertGrid(DEFAULT_THRESHOLDS, (1, 2)), 1: ExpertGrid(DEFAULT_THRESHOLDS, (2,)),
                 2: ExpertGrid((0.2, 0.6), (3, 4, 5)), 3: ExpertGrid(DEFAULT_THRESHOLDS, (3, 4))}
        table = ExpertTable(grids, 5, learning_rate=0.3, exploration_rate=0.1)
        keys = list(table._entries)
        weights = {key: table.weights(*key) for key in keys}
        entropy = {key: float(np.log(grids[key[0]].size)) for key in keys}
        total = reduce(add, entropy.values(), 0.0)
        order = rng.permutation(len(keys)).tolist()
        cuts = sorted(rng.integers(0, len(keys), 7).tolist())
        slot_ends, means = [], []
        for start, stop in zip([0, *cuts], [*cuts, len(keys)]):
            dirty = [keys[i] for i in order[start:stop]]
            for node, task in dirty:
                table.accumulate_loss(node, task, 0, 0.0,
                                      spanning_losses(rng, 1, *grids[node].shape)[0])
            for key in dirty:
                weights[key], h = per_table_refresh(cum_loss(table, *key).copy(), 0.3)
                total -= entropy[key]
                entropy[key] = h
                total += h
            slot_ends.append(table.refresh_dirty())
            means.append(total / len(keys))
        assert len(table._queue) == len(keys) + len(slot_ends)
        table.weights(*keys[order[-1]])
        assert not table._queue
        for key in keys:
            assert table.weights(*key).tobytes() == weights[key].tobytes()
        assert [end.value for end in slot_ends] == means
        assert table.mean_entropy() == means[-1]

    def test_accumulate_on_queued_table_computes_it_first(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2), eta=0.5)
        rng = np.random.default_rng(61)
        first, second = rng.exponential(3.0, (2, 11, 2))
        table.accumulate_loss(0, 0, 0, 0.0, first)
        table.refresh_dirty()
        snapshot = table._entries[(0, 0)].snapshot
        assert snapshot.value is None
        table.accumulate_loss(0, 0, 0, 0.0, second)
        want, _ = per_table_refresh(first, 0.5)
        assert snapshot.value.tobytes() == want.tobytes()
        table.refresh_dirty()
        want_next, _ = per_table_refresh(first + second, 0.5)
        assert table.weights(0, 0).tobytes() == want_next.tobytes()
        # the earlier snapshot keeps its weights
        assert snapshot.value.tobytes() == want.tobytes()

    def test_empty_slot_end_holds_the_current_mean(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        assert table.refresh_dirty().value == table.mean_entropy()
        assert not table._queue


class TestDistributionCache:
    def reference(self, table, z):
        # the distribution of the table's current weights, built from scratch
        w = table.weights(0, 0)
        mask = np.asarray(DEFAULT_THRESHOLDS) > z
        return np.concatenate(([float(w[~mask, :].sum())], w[mask, :].sum(axis=0)))

    def test_refresh_drops_cached_distributions(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        rng = np.random.default_rng(5)
        zs = rng.uniform(0, 1, size=8)
        for _ in range(20):
            for z in zs:
                assert table.action_probs(0, 0, float(z)).raw == \
                    tuple(self.reference(table, z).tolist())
            table.accumulate_loss(0, 0, int(rng.integers(12)), float(rng.normal(0, 9)),
                                  rng.normal(0, 9, size=2))
            table.refresh_dirty()

    def test_shared_within_a_cut_until_refresh(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        first = table.action_probs(0, 0, 0.33)
        assert table.action_probs(0, 0, 0.38) is first  # same cut, 4
        assert table.action_probs(0, 0, 0.41) is not first
        # accumulating leaves the slot-start weights, and their distribution
        table.accumulate_loss(0, 0, 4, 1.0, np.array([0.0, 3.0]))
        assert table.action_probs(0, 0, 0.33) is first
        table.refresh_dirty()
        assert table.action_probs(0, 0, 0.33) is not first

    def test_at_most_one_distribution_per_cut(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        # z below the 0.0 threshold gives cut 0, z = 1 gives cut T
        zs = np.linspace(-0.05, 1, 301)
        dists = {id(table.action_probs(0, 0, float(z))) for z in zs}
        assert len(dists) == len(DEFAULT_THRESHOLDS) + 1

    def test_cached_arrays_are_read_only(self):
        table = make_table()
        dist = table.action_probs(0, 0, 0.5)
        with pytest.raises(TypeError):
            dist.raw[0] = 1.0
        with pytest.raises(TypeError):
            dist.mixed[1] = 0.0
        with pytest.raises(TypeError):
            dist.cdf[0] = 0.0
        assert table.action_probs(0, 0, 0.5).raw == (0.5, 0.5)


class TestSampling:
    def test_degenerate_distribution(self):
        dist = ActionDistribution([1.0, 0.0], exploration_rate=0.0, cut=0)
        rng = np.random.default_rng(0)
        assert all(dist.sample(rng) == 0 for _ in range(50))

    def test_frequencies_within_binomial_bounds(self):
        dist = ActionDistribution([0.3, 0.7], exploration_rate=0.0, cut=0)
        rng = np.random.default_rng(1)
        n = 100_000
        hits = sum(dist.sample(rng) == 1 for _ in range(n))
        sigma = np.sqrt(0.7 * 0.3 / n)
        assert abs(hits / n - 0.7) <= 3 * sigma

    def test_seeded_reproducibility(self):
        dist = ActionDistribution([0.2, 0.5, 0.3], 0.1, 0)
        rng = np.random.default_rng(9)
        draws1 = [dist.sample(rng) for _ in range(20)]
        rng = np.random.default_rng(9)
        draws2 = [dist.sample(rng) for _ in range(20)]
        assert draws1 == draws2

    def test_matches_rng_choice_reference(self):
        # one uniform draw against the cumulative sum: the same index, and
        # the same generator state afterwards, as rng.choice(p=...)
        source = np.random.default_rng(21)
        ours = np.random.default_rng(22)
        reference = np.random.default_rng(22)
        for _ in range(10_000):
            size = int(source.integers(2, 14))
            raw = source.dirichlet(np.full(size, float(source.uniform(0.05, 2.0))))
            dist = ActionDistribution(raw.tolist(), float(source.uniform(0.0, 0.3)), 0)
            mixed = np.array(dist.mixed)
            assert dist.sample(ours) == int(reference.choice(size, p=mixed / mixed.sum()))
        assert ours.bit_generator.state == reference.bit_generator.state


class TestWeights:
    def test_uniform_under_equal_losses(self):
        table = make_table(thresholds=(0.2, 0.5, 0.8), dests=(1, 2))
        table.accumulate_loss(0, 0, 0, 0.0, np.full((3, 2), 7.5))
        table.refresh_dirty()
        w = table.weights(0, 0)
        assert np.allclose(w, 1.0 / 6.0)

    def test_closed_form_two_experts(self):
        # losses {0, ln2/eta} -> weights {2/3, 1/3}
        eta = 0.05
        table = make_table(thresholds=(0.5,), dests=(1, 2), eta=eta)
        table.accumulate_loss(0, 0, 0, 0.0, np.array([[0.0, np.log(2) / eta]]))
        table.refresh_dirty()
        w = table.weights(0, 0)
        assert w[0, 0] == pytest.approx(2.0 / 3.0)
        assert w[0, 1] == pytest.approx(1.0 / 3.0)

    def test_shift_invariance(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        rng = np.random.default_rng(3)
        losses = rng.normal(0, 100, size=(11, 2))
        table.accumulate_loss(0, 0, 0, 0.0, losses)
        table.refresh_dirty()
        w1 = table.weights(0, 0).copy()
        table2 = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        table2.accumulate_loss(0, 0, 0, 0.0, losses + 1234.5)
        table2.refresh_dirty()
        w2 = table2.weights(0, 0)
        assert np.allclose(w1, w2, atol=1e-12)

    def test_simplex_after_updates(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        rng = np.random.default_rng(4)
        for _ in range(300):
            table.accumulate_loss(0, 0, 0, 0.0, rng.normal(0, 50, size=(11, 2)))
            table.refresh_dirty()
            w = table.weights(0, 0)
            assert w.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(w > 0)

    def test_weights_keep_slot_start_values_until_refresh(self):
        table = make_table(thresholds=(0.5,), dests=(1, 2))
        table.accumulate_loss(0, 0, 0, 0.0, np.array([[0.0, 10.0]]))
        assert np.allclose(table.weights(0, 0), 0.5)
        assert table.action_probs(0, 0, 0.0).raw[1:] == pytest.approx([0.5, 0.5])
        table.refresh_dirty()
        assert table.weights(0, 0)[0, 0] > 0.5

    def test_extreme_losses_do_not_overflow(self):
        table = make_table(thresholds=(0.5,), dests=(1, 2), eta=1.0)
        table.accumulate_loss(0, 0, 0, 0.0, np.array([[0.0, 1e9]]))
        table.refresh_dirty()
        w = table.weights(0, 0)
        assert np.isfinite(w).all()
        assert w.sum() == pytest.approx(1.0)


class TestAccumulate:
    def test_zero_vector_is_noop(self):
        table = make_table()
        before = table.weights(0, 0).copy()
        table.accumulate_loss(0, 0, 0, 0.0, np.zeros((2, 1)))
        table.refresh_dirty()
        assert np.allclose(table.weights(0, 0), before)

    def test_single_expert_only(self):
        table = make_table(thresholds=(0.2, 0.8), dests=(1,))
        delta = np.zeros((2, 1))
        delta[1, 0] = 5.0
        table.accumulate_loss(0, 0, 0, 0.0, delta)
        g = cum_loss(table, 0, 0)
        assert g[0, 0] == 0.0 and g[1, 0] == 5.0

    def test_cum_loss_is_running_sum(self):
        table = make_table(thresholds=(0.2, 0.8), dests=(1, 2))
        rng = np.random.default_rng(8)
        total = np.zeros((2, 2))
        for _ in range(100):
            step = rng.normal(0, 3, size=(2, 2))
            total += step
            table.accumulate_loss(0, 0, 0, 0.0, step)
        assert np.allclose(cum_loss(table, 0, 0), total, atol=1e-9)

    def test_non_finite_loss_raises(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.accumulate_loss(0, 0, 0, 0.0, np.array([[np.nan], [1.0]]))

    @pytest.mark.parametrize("cut, terminate, offload", [
        (1, np.nan, [1.0]),
        (2, np.inf, [1.0]),
        (1, 1.0, [-np.inf]),
        (0, 1.0, [np.nan]),
    ])
    def test_non_finite_estimate_is_rejected_before_it_lands(self, cut, terminate, offload):
        table = make_table()
        with pytest.raises(ValueError):
            table.accumulate_loss(0, 0, cut, terminate, np.array(offload))
        assert cum_loss(table, 0, 0).tolist() == [[0.0], [0.0]]

    def test_values_outside_the_cut_do_not_land(self):
        # cut 0 leaves no terminating expert, cut T no offloading one
        table = make_table()
        table.accumulate_loss(0, 0, 0, np.nan, np.array([2.0]))
        table.accumulate_loss(0, 0, 2, 1.0, np.array([np.inf]))
        assert cum_loss(table, 0, 0).tolist() == [[3.0], [3.0]]


class TestEntropy:
    def test_starts_at_log_size(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2))
        assert table.mean_entropy() == pytest.approx(np.log(22))

    def test_decreases_as_weights_concentrate(self):
        table = make_table(thresholds=DEFAULT_THRESHOLDS, dests=(1, 2), eta=0.5)
        h0 = table.mean_entropy()
        loss = np.ones((11, 2)) * 10
        loss[0, 0] = 0.0
        for _ in range(20):
            table.accumulate_loss(0, 0, 0, 0.0, loss)
        table.refresh_dirty()
        assert table.mean_entropy() < h0
