"""Shared fixtures, among them ``spy``, the one call probe of every test that counts,
records or refuses calls; echo acceptance-criterion result lines even while output
capture is on."""

import sys

import pytest

from twospinboson import checks, single_mode


@pytest.fixture(scope="session")
def all_suites():
    """Every suite of the check registry, run once per session."""
    return checks.all_checks()


@pytest.fixture
def spy(monkeypatch):
    """``spy(owner, name, record=None, raises=None)``: the list of calls to ``owner.name``.

    Replaces ``owner.name``, and every ``twospinboson`` module attribute bound
    to the same function, with one wrapper.  Each call appends
    ``record(*args, **kwargs)`` (the positional arguments by default), then
    raises ``raises`` if it is given and otherwise returns the function's
    result.  Calls through a name the test imported itself are not seen.
    """
    def install(owner, name, record=None, raises=None):
        real = getattr(owner, name)
        calls = []

        def wrapper(*args, **kwargs):
            calls.append(args if record is None else record(*args, **kwargs))
            if raises is not None:
                raise raises
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)
        for module_name, module in list(sys.modules.items()):
            if module_name.split(".")[0] == "twospinboson":
                for attribute, value in list(vars(module).items()):
                    if value is real:
                        monkeypatch.setattr(module, attribute, wrapper)
        return calls

    return install


@pytest.fixture
def grid_checks(spy):
    """Names of the grids ``_require_grid`` checks, through any ``twospinboson`` module."""
    return spy(single_mode, "_require_grid", record=lambda values, name="t_grid": name)


def pytest_runtest_logreport(report):
    if report.when != "call" or not getattr(report, "capstdout", ""):
        return
    for line in report.capstdout.splitlines():
        if line.startswith(("PASS criterion", "FAIL criterion")):
            print(f"\n  {line}", end="")
