import time

from hiroute.validation import (
    check_greedy_quality,
    check_loss_sweep,
    check_submodularity,
    check_unbiasedness,
    check_variance_ordering,
    check_weight_simplex,
    run_property_suite,
)


def test_all_checks_pass_clean():
    results = run_property_suite()
    assert all(r.passed for r in results), [r for r in results if not r.passed]


def test_suite_is_fast():
    start = time.monotonic()
    run_property_suite()
    assert time.monotonic() - start < 30.0


def test_injected_baseline_sign_bug_is_caught():
    result = check_unbiasedness(inject="baseline-sign")
    assert not result.passed


def test_individual_checks():
    assert check_unbiasedness().passed
    assert check_variance_ordering().passed
    assert check_weight_simplex().passed
    assert check_submodularity(tables=5).passed
    assert check_loss_sweep().passed
    assert check_greedy_quality(instances=20).passed
