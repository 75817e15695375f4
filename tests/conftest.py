"""The test session computes as the command line does: NumPy's BLAS pinned
to one thread before any test runs, whatever the environment set.  Each test
starts with no helper running, so the helper a test starts forks after the
test's monkeypatches are in place."""

import pytest

from measim import helper

helper.pin_blas()


@pytest.fixture(autouse=True)
def stop_helper():
    yield
    helper.stop()
