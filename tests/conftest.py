import time

import pytest

from hiroute.validation import run_property_suite


@pytest.fixture(scope="session")
def property_suite():
    """The session's one clean run of ``hiroute validate``'s property suite:
    its results in order, and the seconds the run took."""
    start = time.monotonic()
    results = run_property_suite()
    return results, time.monotonic() - start
