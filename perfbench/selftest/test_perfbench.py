"""Self-test of the benchmark at tiny problem sizes.

Run from the repository root: python3 -m pytest perfbench/selftest -q
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 7
# Sites that import a traced function by name; patching only the defining
# module would miss every call made through them.
REQUIRED_PATCH_SITES = {
    "twospinboson.sweeps.entanglement_measures",
    "twospinboson.bath.entanglement_measures",
    "twospinboson.single_mode.entanglement_measures",
    "twospinboson.sweeps.bath_gamma",
    "twospinboson.sweeps.gamma_R_infinity",
    "twospinboson.sweeps.steady_state_stats",
    "twospinboson.bath.integrate_decaying",
    "twospinboson.cli.time_series",
}
BENCHMARK = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


@pytest.fixture(scope="module", params=list(workloads.WORKLOADS))
def tiny_runs(request):
    name = request.param
    untraced = run.run(name, SEED, 0.0, trace=False, size="tiny")
    traced = run.run(name, SEED, 0.0, trace=True, size="tiny")
    return name, untraced, traced


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


def test_every_workload_runs_without_errors(tiny_runs):
    _, (result, diagnostics), (traced, _) = tiny_runs
    assert diagnostics["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert result["metrics"]["success_rate"]["value"] == 1.0
    assert traced["correct"] and traced["failed"] == 0


def test_metrics_match_benchmark_json(tiny_runs):
    _, (result, _), (traced, _) = tiny_runs
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _units("end_to_end")
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == _units("per_layer")
    for metric in result["metrics"].values():
        assert metric["value"] > 0.0
    for metric in traced["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def test_each_listed_layer_records_calls(tiny_runs):
    name, _, (_, diagnostics) = tiny_runs
    totals = diagnostics["layer_totals"]
    for layer in workloads.WORKLOADS[name].layers:
        assert totals.get(layer, {}).get("calls", 0) >= 1, layer


def test_tracing_off_installs_no_wrappers(tiny_runs):
    _, (_, diagnostics), (_, traced_diagnostics) = tiny_runs
    assert diagnostics["patched_untraced"] == []
    assert REQUIRED_PATCH_SITES <= set(traced_diagnostics["patched_traced"])


def _tiny_output(tmp_path, name="bath_gapless"):
    workload = workloads.WORKLOADS[name]
    argv = workload.argv("tiny", workloads.draw_amplitudes(SEED), tmp_path)
    record, error = run.invoke(argv, False, tmp_path)
    assert record is not None, error
    assert workloads.check_outputs(workload, "tiny", tmp_path, False) == ([], None)
    return workload, tmp_path / workload.outputs[0][0]


@pytest.mark.parametrize("corrupt", [
    lambda text: text.replace(text.splitlines()[-1].split(",")[2], "nan"),
    lambda text: text[:text.rstrip("\n").rfind("\n") + 1],
    lambda text: text.replace("concurrence", "concurrency"),
    lambda text: text.replace("\n" + text.splitlines()[-1].split(",")[0] + ",",
                              "\n" + text.splitlines()[-1].split(",")[0] + ",x"),
])
def test_corrupted_csv_fails_the_gate(tmp_path, corrupt):
    workload, path = _tiny_output(tmp_path)
    path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
    problems, _ = workloads.check_outputs(workload, "tiny", tmp_path, False)
    assert problems


def test_out_of_range_value_fails_the_gate(tmp_path):
    workload, path = _tiny_output(tmp_path)
    lines = path.read_text(encoding="utf-8").splitlines()
    cells = lines[-1].split(",")
    cells[2] = "1.5"  # concurrence above 1
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    problems, _ = workloads.check_outputs(workload, "tiny", tmp_path, False)
    assert any("concurrence outside" in p for p in problems)


def test_reference_comparison_at_12_digits(tmp_path, monkeypatch):
    workload, path = _tiny_output(tmp_path)
    monkeypatch.setattr(workloads, "REFERENCE_DIR", tmp_path / "reference")
    text = path.read_text(encoding="utf-8")
    workloads.write_reference(workloads.reference_path(workload, path.name),
                              workload.name, text, workload.sizes["tiny"].rows[0])
    assert workloads.check_outputs(workload, "tiny", tmp_path, True) == ([], True)

    lines = text.splitlines()
    cells = lines[-1].split(",")
    cells[5] = repr(float(cells[5]) * (1.0 + 1e-9))  # overlap off in the 10th digit
    path.write_text("\n".join(lines[:-1] + [",".join(cells)]) + "\n", encoding="utf-8")
    problems, identical = workloads.check_outputs(workload, "tiny", tmp_path, True)
    assert any("differs from the reference" in p for p in problems)
    assert identical is False


def test_corrupted_output_counts_as_failed_invocation(monkeypatch):
    original = workloads.check_outputs

    def corrupting(workload, size, workdir, compare):
        path = workdir / workload.outputs[0][0]
        path.write_text(path.read_text(encoding="utf-8") + "1,2\n", encoding="utf-8")
        return original(workload, size, workdir, compare)

    monkeypatch.setattr(workloads, "check_outputs", corrupting)
    result, diagnostics = run.run("single_mode_long", SEED, 0.0, trace=False, size="tiny")
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert result["metrics"] == {}
    assert diagnostics["problems"] == ["out.csv: unreadable (row length does not match header)"]


def test_nonzero_exit_counts_as_failed_invocation(monkeypatch):
    workload = workloads.WORKLOADS["bath_gapless"]
    broken = dataclasses.replace(workload, sizes={
        "tiny": workloads.Size(("--alpha", "-1", "--t-max", "10", "--points", "3"), (3,))})
    monkeypatch.setitem(workloads.WORKLOADS, "bath_gapless", broken)
    result, diagnostics = run.run("bath_gapless", SEED, 0.0, trace=False, size="tiny")
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)
    assert diagnostics["problems"][0].startswith("exit code 2")


def test_seed_draws_normalized_amplitudes_only():
    first = workloads.draw_amplitudes(1)
    assert first == workloads.draw_amplitudes(1) != workloads.draw_amplitudes(2)
    norm = sum(abs(complex(z)) ** 2 for z in first.split(","))
    assert norm == pytest.approx(1.0, abs=1e-15)
    for workload in workloads.WORKLOADS.values():
        a = workload.argv("full", workloads.draw_amplitudes(1), Path("w"))
        b = workload.argv("full", workloads.draw_amplitudes(2), Path("w"))
        assert [x for x in a if "amplitudes" not in x] == [x for x in b if "amplitudes" not in x]


def test_tracer_patches_every_importer_and_reports_missing(tmp_path, monkeypatch):
    package = tmp_path / "fakepkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    (package / "core.py").write_text("def work(n):\n    return n + 1\n")
    (package / "user.py").write_text("from .core import work\n\n"
                                     "def outer(n):\n    return work(n)\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    import fakepkg.user as user

    monkeypatch.setattr(tracer, "PACKAGE", "fakepkg")
    monkeypatch.setattr(tracer, "TRACED", {
        "user.outer": None,
        "core.work": (("n",), lambda a, result: {"items": a["n"]}),
        "core.gone": None,
    })
    t = tracer.Tracer()
    t.install()
    assert user.outer(4) == 5
    assert t.missing == ["core.gone"]
    assert tracer.patched_sites() == ["fakepkg.core.work", "fakepkg.user.outer",
                                      "fakepkg.user.work"]
    (outer, inner) = t.spans
    assert outer[0] == "user.outer" and outer[3] == -1
    assert inner[0] == "core.work" and inner[3] == 0 and inner[4] == {"items": 4}
    for name in ("fakepkg", "fakepkg.core", "fakepkg.user"):
        monkeypatch.delitem(sys.modules, name)


def test_missing_layer_reports_null():
    record = {"wall_s": 1.0, "reference_s": [run.REFERENCE_QUIET_S] * 4,
              "spans": [["cli.main", 0.0, 1.0, -1, None]],
              "missing": ["quadrature.composite_gauss"], "uncounted": []}
    metrics = run.per_layer_metrics([record], [record])
    assert metrics["quadrature.composite_gauss.self_s"][0] is None
    assert metrics["quadrature.composite_gauss.panels"][0] is None
    assert metrics["quadrature.accept_ratio"][0] is None
    assert metrics["cli.main.self_s"][0] == 1.0
    assert metrics["bath.bath_gamma.calls"][0] == 0


def test_cli_time_is_scaled_by_the_reference_work():
    quiet = {"wall_s": 0.6, "reference_s": [run.REFERENCE_QUIET_S] * 4,
             "setup_s": 0.2, "peak_rss_mb": 40.0}
    slow = dict(quiet, wall_s=0.9, reference_s=[1.5 * run.REFERENCE_QUIET_S] * 4)
    assert run.scaled_wall_s(quiet) == pytest.approx(0.6)
    assert run.scaled_wall_s(slow) == pytest.approx(0.6)
    metrics = run.end_to_end_metrics([quiet, slow, slow], attempted=3, rows=30)
    assert metrics["scaled_wall_s"] == (pytest.approx(0.6), "s")
    assert metrics["scaled_rows_per_s"] == (pytest.approx(50.0), "rows/s")
