"""Shared fixtures.

Measuring the transform scaling takes seconds, so a test session measures
it once, with ``complexity_compare(1024, 32)``; the tests of criterion-13
and of ``chirplab complexity`` read that report through a stub.
"""

import pytest

from chirplab import complexity_compare


@pytest.fixture(scope="session")
def complexity_report():
    return complexity_compare(1024, 32)


@pytest.fixture
def measured_complexity(complexity_report):
    """Stand-in for ``complexity_compare`` that returns the session's report."""

    def measured(n, n_od):
        assert (n, n_od) == (1024, 32)
        return dict(complexity_report)

    return measured
