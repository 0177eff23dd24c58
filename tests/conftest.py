"""Shared fixtures; echo acceptance-criterion result lines even while output capture is on."""

import pytest

from twospinboson import checks


@pytest.fixture(scope="session")
def all_suites():
    """Every suite of the check registry, run once per session."""
    return checks.all_checks()


def pytest_runtest_logreport(report):
    if report.when != "call" or not getattr(report, "capstdout", ""):
        return
    for line in report.capstdout.splitlines():
        if line.startswith(("PASS criterion", "FAIL criterion")):
            print(f"\n  {line}", end="")
