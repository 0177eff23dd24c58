"""Benchmark outputs against the stored references, through the benchmark's own gate.

The benchmark's correctness gate (``perfbench/workloads.py``) fails a run
whose CSV output leaves the stored reference files at 12 significant digits
(rtol 1e-11, atol 1e-12, every stride-th row).  These tests run the same
argv at the reference seed through ``cli.main`` and apply that gate, so a
drift shows in the test suite before the benchmark runs.  The workloads
module is loaded read-only from its file; nothing under ``perfbench/`` is
written.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from twospinboson import cli

_WORKLOADS_FILE = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


@pytest.fixture(scope="module")
def workloads():
    if not _WORKLOADS_FILE.is_file():
        pytest.skip("perfbench/workloads.py is not in this checkout")
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", _WORKLOADS_FILE)
    module = importlib.util.module_from_spec(spec)
    # dataclasses resolve string annotations through sys.modules.
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[spec.name]


@pytest.mark.parametrize("name", ["steady_sweep", "single_mode_long"])
def test_output_matches_reference(workloads, name, tmp_path, capsys):
    workload = workloads.WORKLOADS[name]
    argv = workload.argv("full", workloads.draw_amplitudes(workloads.DEFAULT_SEED), tmp_path)
    assert cli.main(argv) == 0, capsys.readouterr().err
    problems, _ = workloads.check_outputs(workload, "full", tmp_path, compare_reference=True)
    assert problems == []
    assert workloads.REF_RTOL == 1e-11 and workloads.REF_ATOL == 1e-12
