"""The built-in verification suites must pass on a correct build."""

import numpy as np

from twospinboson import bath, checks, cli, csvio, sweeps
from twospinboson.entanglement import reduced_density, validate_density
from twospinboson.single_mode import QubitAmplitudes


class TestCheckResult:
    def test_line_format(self):
        ok = checks.CheckResult("demo", True, "value 1.0")
        bad = checks.CheckResult("demo", False, "value 2.0")
        assert ok.line() == "PASS demo: value 1.0"
        assert bad.line() == "FAIL demo: value 2.0"


class TestSuites:
    def test_all_suites_pass(self, all_suites):
        assert set(all_suites) == {"state-algebra", "single-mode", "fock-oracle",
                                   "bath", "sweeps", "acceptance"}
        for name, results in all_suites.items():
            failed = [r.line() for r in results if not r.passed]
            assert not failed, f"{name}: {failed}"

    def test_acceptance_criteria_in_order(self, all_suites):
        names = [r.name for r in all_suites["acceptance"]]
        assert names == [f"criterion {k}" for k in range(1, 10)]

    def test_criterion_9_counts_every_tracked_matrix(self, all_suites):
        # Criteria 1-8 build 740 matrices; fewer than 715 means a criterion
        # stopped passing the matrices it builds through the tally.
        detail = all_suites["acceptance"][-1].detail
        assert int(detail.split()[0]) >= 715, detail

    def test_a_raising_criterion_fails_alone(self, monkeypatch):
        for k in range(1, 9):
            monkeypatch.setattr(checks, f"_criterion_{k}", lambda track, k=k:
                                checks.CheckResult(f"criterion {k}", True, ""))
        monkeypatch.setattr(checks, "_criterion_3", lambda track: 1 / 0)
        lines = [r.line() for r in checks.acceptance_checks()]
        assert lines[2] == "FAIL criterion 3: raised ZeroDivisionError: division by zero"
        assert all(line.startswith("PASS") for line in lines[:2] + lines[3:8])

    def test_criterion_9_reports_an_invalid_tracked_matrix(self, monkeypatch):
        # Criterion 2 passes a trace-1.1 matrix through the tally; criterion 9
        # names its defect.
        def criterion(track, k):
            if k == 2:
                track(np.array([np.eye(4) / 4.0, 1.1 * np.eye(4) / 4.0]))
            return checks.CheckResult(f"criterion {k}", True, "")

        for k in range(1, 9):
            monkeypatch.setattr(checks, f"_criterion_{k}",
                                lambda track, k=k: criterion(track, k))
        results = checks.acceptance_checks()
        assert all(r.passed for r in results[:8])
        assert not results[8].passed
        assert results[8].detail.startswith(
            "2 density matrices validated across criteria 1-8, 1 failures: ['hermiticity")
        assert "trace defect 1.000e-01" in results[8].detail

    def test_criterion_6_fails_without_a_gapped_steady_state(self, monkeypatch):
        # The gapped cell's overlap carries the sentinel, as a gapless one would.
        tables = sweeps.steady_sweep_tables

        def no_plateau(*args, **kwargs):
            steady, thermal = tables(*args, **kwargs)
            thermal["overlap_infinity"][:] = sweeps.NO_STEADY_STATE
            return steady, thermal

        monkeypatch.setattr(sweeps, "steady_sweep_tables", no_plateau)
        result = checks._criterion_6(checks._Tally())
        assert result.line() == "FAIL criterion 6: gapped pipeline returned no steady state"

    def test_deterministic_seed(self):
        first = [r.line() for r in checks.state_algebra_checks()]
        second = [r.line() for r in checks.state_algebra_checks()]
        assert first == second

    def test_oracle_grid_is_complete(self, all_suites):
        results = all_suites["fock-oracle"]
        # 5 ratios x 4 phases x 2 states, plus the summary line.
        assert len(results) == 41
        assert all(r.passed for r in results)
        assert "worst trace distance" in results[-1].detail

    def test_oracle_checks_fail_at_impossible_tolerance(self):
        results = checks.oracle_checks(tolerance=1e-18)
        assert any(not r.passed for r in results)

    def test_checks_never_use_the_one_point_bath_view(self, spy, tmp_path):
        # No package module calls the six pinned model views; each stays only
        # because the benchmark's tracer (perfbench/tracer.py) names it.  With
        # every module attribute that holds one raising, the registry still
        # passes and each table subcommand still writes its tables.
        calls = [spy(module, name, raises=AssertionError(f"{module.__name__}.{name} was called"))
                 for module, name in ((bath, "bath_gamma"), (bath, "gamma_R_infinity"),
                                      (bath, "steady_state_stats"), (sweeps, "steady_state_table"),
                                      (sweeps, "thermal_overlap_table"), (csvio, "render_table"))]

        failed = [r.line() for results in checks.all_checks().values() for r in results
                  if not r.passed]
        assert failed == []
        for argv in (["single-mode", "--omega-over-lambda=4", "--points=5"],
                     ["period-stats", "--n-points=2", "--samples=100"],
                     ["bath-series", "--alpha=0.25", "--gap=0.1", "--temperature=0.5",
                      "--t-max=5", "--points=5"],
                     ["steady-sweep", "--alpha-grid=0.05:1:2", "--gap-grid=0:0.5:2",
                      "--temperature-grid=0:2:2"]):
            output = tmp_path / argv[0]
            argv += ([f"--output-prefix={output}"] if argv[0] == "steady-sweep"
                     else [f"--output={output}.csv"])
            assert cli.main(argv) == 0, argv
        assert calls == [[]] * 6

        spec = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1)
        gamma_rs, gamma_is, _ = bath.bath_exponents(spec, [2.0])
        rho = reduced_density(QubitAmplitudes.uniform(), bath.effective_coupling(spec) * 2.0,
                              gamma_rs[0], gamma_is[0])
        assert validate_density(rho).valid
