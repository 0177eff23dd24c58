"""The built-in verification suites must pass on a correct build."""

from twospinboson import bath, checks
from twospinboson.entanglement import QubitAmplitudes, validate_density


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
            monkeypatch.setattr(checks, f"_criterion_{k}", lambda track, seed, k=k:
                                checks.CheckResult(f"criterion {k}", True, ""))
        monkeypatch.setattr(checks, "_criterion_3", lambda track, seed: 1 / 0)
        lines = [r.line() for r in checks.acceptance_checks()]
        assert lines[2] == "FAIL criterion 3: raised ZeroDivisionError: division by zero"
        assert all(line.startswith("PASS") for line in lines[:2] + lines[3:8])

    def test_deterministic_seed(self):
        first = [r.line() for r in checks.state_algebra_checks(seed=5)]
        second = [r.line() for r in checks.state_algebra_checks(seed=5)]
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

    def test_checks_never_use_the_one_point_bath_view(self, monkeypatch):
        # Every bath exponent in the registry comes from a whole-grid
        # bath_exponents call; bath_gamma is kept only for outside callers.
        def refuse(*args, **kwargs):
            raise AssertionError("bath.bath_gamma was called")

        monkeypatch.setattr(bath, "bath_gamma", refuse)
        failed = [r.line() for r in checks.bath_checks() + checks.acceptance_checks()
                  if not r.passed]
        assert failed == []
        rho = bath.bath_reduced_density(bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1),
                                        QubitAmplitudes.uniform(), 2.0)
        assert validate_density(rho).valid
