import time
from functools import reduce
from operator import add

import numpy as np

from hiroute import policy, validation
from hiroute.validation import (
    check_arrival_draws,
    check_distribution_build,
    check_loss_sweep,
    run_property_suite,
)
from hiroute.workload import MASK32, RawWords


def test_all_checks_pass_clean():
    results = run_property_suite()
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_suite_is_fast():
    start = time.monotonic()
    run_property_suite()
    assert time.monotonic() - start < 30.0


def test_distribution_build_checked_bit_for_bit():
    assert check_distribution_build().passed


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


def test_individual_checks():
    assert check_arrival_draws().passed
    assert check_loss_sweep().passed


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
