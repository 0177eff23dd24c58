"""Shared fixtures; echo acceptance-criterion result lines even while output capture is on."""

import sys

import pytest

from twospinboson import checks, single_mode


@pytest.fixture(scope="session")
def all_suites():
    """Every suite of the check registry, run once per session."""
    return checks.all_checks()


@pytest.fixture
def grid_checks(monkeypatch):
    """Names of the grids ``_require_grid`` checks, through any ``twospinboson`` module."""
    names = []
    require_grid = single_mode._require_grid

    def counting(values, name="t_grid"):
        names.append(name)
        return require_grid(values, name)

    for module_name, module in list(sys.modules.items()):
        if (module_name.startswith("twospinboson")
                and getattr(module, "_require_grid", None) is require_grid):
            monkeypatch.setattr(module, "_require_grid", counting)
    assert single_mode._require_grid is counting
    return names


def pytest_runtest_logreport(report):
    if report.when != "call" or not getattr(report, "capstdout", ""):
        return
    for line in report.capstdout.splitlines():
        if line.startswith(("PASS criterion", "FAIL criterion")):
            print(f"\n  {line}", end="")
