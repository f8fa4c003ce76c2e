import pytest
from hypothesis import HealthCheck, settings

from identity_lab.closure import generate_catalog

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")

# filled by the acceptance tests; echoed after the run so the per-criterion
# lines survive stdout capture on passing tests
acceptance_report = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_report:
        terminalreporter.section("acceptance criteria")
        for line in sorted(acceptance_report, key=lambda s: s.split()[1]):
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def cat4():
    return generate_catalog(4)


@pytest.fixture(scope="session")
def cat6():
    return generate_catalog(6)


@pytest.fixture(scope="session")
def full5():
    return generate_catalog(5, "full")


@pytest.fixture(scope="session")
def full6():
    return generate_catalog(6, "full")
