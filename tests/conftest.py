import multiprocessing

import pytest

from fractalfit import gen_polynomial, normalize, select_knots

# Filled by tests/test_acceptance.py; echoed after the run so the per-criterion
# verdicts are visible even with output capture on.
_ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def acceptance_log():
    return _ACCEPTANCE_LINES


@pytest.fixture(scope="session")
def poly_pipeline():
    """The quintic benchmark pipeline: normalized series + its 5 knots."""
    series, params = normalize(gen_polynomial(10_000))
    knots = select_knots(series, "manual", indices=[500, 4000, 7500])
    return series, knots, params


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """The pooled CSV write leaves no worker process behind, whatever the test."""
    yield
    assert multiprocessing.active_children() == []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in _ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
