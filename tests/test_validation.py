import time

import numpy as np

from hiroute import policy, validation
from hiroute.validation import (
    check_arrival_draws,
    check_distribution_build,
    check_loss_sweep,
    run_property_suite,
)


def test_all_checks_pass_clean():
    results = run_property_suite()
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_suite_is_fast():
    start = time.monotonic()
    run_property_suite()
    assert time.monotonic() - start < 30.0


def test_distribution_build_checked_bit_for_bit():
    assert check_distribution_build().passed


def test_injected_left_to_right_total_is_caught():
    # a left-to-right total is numpy's below 8 values, so the check fails on
    # a row of 8 or more, and puts the build's own total back afterwards
    result = check_distribution_build(inject="left-to-right-total")
    assert not result.passed
    dests = int(result.detail.split(" destinations")[0].split()[-1])
    assert dests + 1 >= 8
    assert policy.add_reduce.__name__ == "add_reduce"
    assert check_distribution_build().passed


def test_injected_high_half_first_is_caught():
    # the first bounded draw takes the high half, so it differs unless both
    # halves give one value; the next clean run is unaffected
    result = check_arrival_draws(inject="high-half-first")
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
