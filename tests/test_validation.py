from functools import reduce
from operator import add

import numpy as np
import pytest

from hiroute import policy, validation
from hiroute.validation import (
    check_arrival_draws,
    check_distribution_build,
    check_loss_sweep,
)
from hiroute.workload import MASK32, RawWords


@pytest.fixture(scope="module")
def clean_run(property_suite):
    """The session's one clean run of the suite: each check's result by
    name, and the seconds the run took."""
    results, seconds = property_suite
    return {r.name: r for r in results}, seconds


def test_all_checks_pass_clean(clean_run):
    results, _ = clean_run
    assert list(results) == ["distribution-build", "arrival-draws", "loss-sweep"]
    assert all(r.passed for r in results.values()), [
        r for r in results.values() if not r.passed
    ]


def test_suite_is_fast(clean_run):
    # the suite takes well under a second
    _, seconds = clean_run
    assert seconds < 5.0


def test_distribution_build_checked_bit_for_bit(clean_run):
    results, _ = clean_run
    assert results["distribution-build"].passed


def left_to_right_total(values):
    return reduce(add, values, 0.0)


def high_half_first(word):
    return word >> 32, word & MASK32


def test_injected_left_to_right_total_is_caught(monkeypatch):
    # a left-to-right total is numpy's below 8 values, so the check fails on
    # a row of 8 or more; the build's own total is back afterwards
    with monkeypatch.context() as patch:
        patch.setattr(policy, "add_reduce", left_to_right_total)
        result = check_distribution_build()
    assert not result.passed
    dests = int(result.detail.split(" destinations")[0].split()[-1])
    assert dests + 1 >= 8
    assert policy.add_reduce.__name__ == "add_reduce"
    assert check_distribution_build().passed


def test_injected_high_half_first_is_caught(monkeypatch):
    # the first bounded draw takes the high half, so it differs unless both
    # halves give one value; the next clean run is unaffected
    with monkeypatch.context() as patch:
        patch.setattr(RawWords, "split", staticmethod(high_half_first))
        result = check_arrival_draws()
    assert not result.passed
    assert "integers(" in result.detail
    assert check_arrival_draws().passed


def test_batched_sweep_checked_bit_for_bit(monkeypatch):
    # one job's offload cost one ulp off fails the loss-sweep check
    sweep = validation.backward_sweep

    def one_ulp_off(*args):
        offload, *rest = sweep(*args)
        costs = offload[max(offload)]
        costs[-1] = np.nextafter(costs[-1], np.inf)
        return (offload, *rest)

    monkeypatch.setattr(validation, "backward_sweep", one_ulp_off)
    result = check_loss_sweep()
    assert not result.passed
    assert "batched offload cost" in result.detail


def test_individual_checks(clean_run):
    results, _ = clean_run
    assert results["arrival-draws"].passed
    assert results["loss-sweep"].passed


def test_stacked_raw_rows_checked_bit_for_bit(monkeypatch):
    # a stacked raw row one ulp off fails the distribution-build check
    raw_rows = policy.raw_rows

    def one_ulp_off(stack):
        rows = raw_rows(stack)
        rows[:, -1, 0] = np.nextafter(rows[:, -1, 0], np.inf)
        return rows

    monkeypatch.setattr(policy, "raw_rows", one_ulp_off)
    result = check_distribution_build()
    assert not result.passed
    assert "stacked raw row" in result.detail


def test_stacked_weights_checked_bit_for_bit(monkeypatch):
    # one table's weight or entropy one ulp off in a stacked refresh fails
    # the distribution-build check
    stacked_weights = policy.stacked_weights

    for part in ("weights", "entropy"):
        def one_ulp_off(losses, learning_rate):
            weights, entropies = stacked_weights(losses, learning_rate)
            if part == "weights":
                weights[-1].flat[-1] = np.nextafter(weights[-1].flat[-1], np.inf)
            else:
                entropies[-1] = np.nextafter(entropies[-1], np.inf)
            return weights, entropies

        with monkeypatch.context() as patch:
            patch.setattr(policy, "stacked_weights", one_ulp_off)
            result = check_distribution_build()
        assert not result.passed
        assert "per-table formula" in result.detail
    assert check_distribution_build().passed


def test_entropy_of_underflowed_weights_checked(monkeypatch):
    # log(0) is -inf and 0 * -inf NaN: an entropy over every weight, not
    # only the nonzero ones, is NaN on the stacks that underflow, and NaN
    # differs from the per-table formula's entropy
    stacked_weights = policy.stacked_weights

    def every_weight(losses, learning_rate):
        weights, _ = stacked_weights(losses, learning_rate)
        w = weights.reshape(len(weights), -1)
        with np.errstate(divide="ignore", invalid="ignore"):
            return weights, -np.add.reduce(w * np.log(w), axis=1)

    monkeypatch.setattr(policy, "stacked_weights", every_weight)
    result = check_distribution_build()
    assert not result.passed
    assert "per-table formula" in result.detail


def test_bound_one_reading_a_word_is_caught(monkeypatch):
    # integers(1) draws nothing, so a bound-1 draw that reads a word shifts
    # every later draw of the interleaved stream
    below = RawWords.below

    def reads_a_word(words, n):
        if n == 1:
            words.word()
        return below(words, n)

    monkeypatch.setattr(RawWords, "below", reads_a_word)
    assert not check_arrival_draws().passed
