"""Benchmark outputs against the stored references, through the benchmark's own gate.

The benchmark's correctness gate (``perfbench/workloads.py``) fails a run
whose CSV output leaves the stored reference files at 12 significant digits
(rtol 1e-11, atol 1e-12, every stride-th row).  These tests run the same
argv at the reference seed through ``cli.main`` and apply that gate, so a
drift shows in the test suite before the benchmark runs.  The benchmark's
tracer (``perfbench/tracer.py``) times the package functions it names; a
test checks that each name still resolves, and another that each parameter a
counter reads is still in the function's signature, since a missing one only
nulls its metrics.  Both modules are loaded read-only from their files; nothing
under ``perfbench/`` is written.
"""

import importlib
import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

from twospinboson import cli

_PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load_perfbench(name):
    """Yield ``perfbench/<name>.py`` as a module, loaded from its file."""
    path = _PERFBENCH / f"{name}.py"
    if not path.is_file():
        pytest.skip(f"perfbench/{name}.py is not in this checkout")
    spec = importlib.util.spec_from_file_location(f"_perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.fixture(scope="module")
def workloads():
    yield from _load_perfbench("workloads")


@pytest.fixture(scope="module")
def tracer():
    yield from _load_perfbench("tracer")


@pytest.mark.parametrize("name", ["steady_sweep", "bath_gapless", "bath_gapped_thermal",
                                  "single_mode_long"])
def test_output_matches_reference(workloads, name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    argv = workload.argv("full", workloads.draw_amplitudes(workloads.DEFAULT_SEED), tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err
    problems, _ = workloads.check_outputs(workload, "full", tmp_path, compare_reference=True)
    assert problems == []
    assert workloads.REF_RTOL == 1e-11 and workloads.REF_ATOL == 1e-12


def test_traced_names_resolve(tracer):
    # Each TRACED key "module.function" names a callable of twospinboson.<module>.
    missing = []
    for name in tracer.TRACED:
        module_name, function = name.split(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        if not callable(getattr(module, function, None)):
            missing.append(name)
    assert missing == []


def test_traced_counters_read_existing_parameters(tracer):
    # A counter reads its parameters from the traced function's signature; a
    # parameter the function lost would only null the counter's metrics.
    lost = []
    for name, spec in tracer.TRACED.items():
        if spec is None:
            continue
        module_name, function = name.split(".")
        module = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        parameters = inspect.signature(getattr(module, function)).parameters
        lost += [f"{name}({param})" for param in spec[0] if param not in parameters]
    assert lost == []
