"""End-to-end command-line tests: exit codes, CSV output, determinism."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from twospinboson import bath, checks, cli, csvio, single_mode
from twospinboson.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_rejected_quietly(capsys, argv, reason):
    """Exit 2 with a one-line reason and no warning along the way."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and reason in err
    assert len(err.splitlines()) == 1


class TestSingleMode:
    def test_peak_concurrence_at_quarter_phase(self, capsys):
        code, out, err = run_cli(capsys, "single-mode", "--omega-over-lambda", "4")
        assert code == 0 and err == ""
        columns, meta = csvio.parse_table(out)
        assert meta["subcommand"] == "single-mode"
        assert meta["omega_over_lambda"] == "4"
        assert list(columns) == ["t", "theta_t", "concurrence",
                                 "ideal_concurrence", "entropy", "overlap"]
        peak = int(np.argmax(columns["concurrence"]))
        assert abs(columns["concurrence"][peak] - 1.0) <= 1e-6
        assert abs(columns["theta_t"][peak] - math.pi / 4.0) <= 2e-3

    def test_output_file_round_trip(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        code, out, _ = run_cli(capsys, "single-mode", "--omega-over-lambda", "4",
                               "--points", "11", "--output", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        columns, meta = csvio.parse_table(text)
        assert csvio.render_table(columns, meta) == text

    def test_custom_amplitudes_and_grid(self, capsys):
        code, out, _ = run_cli(capsys, "single-mode", "--omega-over-lambda", "8",
                               "--theta-t-max", "3.14159", "--points", "21",
                               "--amplitudes", "1,0,0,1")
        assert code == 0
        columns, _ = csvio.parse_table(out)
        assert columns["t"].shape == (21,)
        # The 00/11 Bell pair has no single-qubit coherences: overlap decay
        # hits only the (00,11) corner and C = exp(-4 gamma_r).
        assert np.all(columns["concurrence"] <= 1.0 + 1e-12)

    def test_rejects_zero_frequency(self, capsys):
        code, out, err = run_cli(capsys, "single-mode", "--omega-over-lambda", "0")
        assert code == 2
        assert "omega must be positive" in err

    def test_rejects_bad_amplitudes(self, capsys):
        code, _, err = run_cli(capsys, "single-mode", "--omega-over-lambda", "4",
                               "--amplitudes", "1,2,3")
        assert code == 2
        assert "four comma-separated" in err

    def test_rejects_line_break_in_amplitudes(self, capsys):
        # It used to exit 0 and write a file whose amplitudes line was split.
        assert_rejected_quietly(
            capsys, ("single-mode", "--omega-over-lambda", "4",
                     "--amplitudes", "0.5\n,0.5,0.5,0.5"),
            "amplitudes must not contain a line break, got '0.5\\n,0.5,0.5,0.5'")

    def test_rejects_zero_state(self, capsys):
        code, _, err = run_cli(capsys, "single-mode", "--omega-over-lambda", "4",
                               "--amplitudes", "0,0,0,0")
        assert code == 2

    def test_extreme_amplitudes_are_normalized(self, capsys):
        for text in ("1e160,1e160,0,0", "3e-170,4e-170,0,0"):
            code, out, err = run_cli(capsys, "single-mode", "--omega-over-lambda", "4",
                                     "--points", "3", f"--amplitudes={text}")
            assert code == 0 and err == ""
            assert f"# amplitudes: {text}" in out

    def test_missing_required_argument(self, capsys):
        code, _, _ = run_cli(capsys, "single-mode")
        assert code == 2

    def test_rejects_too_few_points(self, capsys):
        for argv, reason in ((("single-mode", "--omega-over-lambda", "4", "--points", "1"),
                              "theta-t grid needs at least 2 points, got 1"),
                             (("period-stats", "--n-points", "1"),
                              "n grid needs at least 2 points, got 1"),
                             (("bath-series", "--alpha", "0.25", "--t-max", "5", "--points", "0"),
                              "t grid needs at least 2 points, got 0")):
            assert_rejected_quietly(capsys, argv, reason)

    def test_rejects_overflowing_ratio(self, capsys):
        assert_rejected_quietly(
            capsys, ("single-mode", "--omega-over-lambda", "1e-200", "--points", "5"),
            "omega 1e-200 overflows (2 / omega)^2")

    def test_rejects_overflowing_omega_t(self, capsys):
        assert_rejected_quietly(
            capsys, ("single-mode", "--omega-over-lambda", "1e160", "--points", "5"),
            "omega t = 1e+160 * 7.85398e+159 overflows")

    def test_rejects_overflowing_time_quotient(self, capsys):
        # The last time theta-t-max / theta overflows: refused before the grid
        # is divided, with no RuntimeWarning ahead of the reason.
        assert_rejected_quietly(
            capsys, ("single-mode", "--omega-over-lambda", "4", "--theta-t-max", "1e308",
                     "--points", "3"),
            "t = theta t / theta = 1e+308 / 0.5 overflows")

    def test_rejects_nonfinite_parameters(self, capsys):
        for extra, reason in ((("--omega-over-lambda", "inf"), "omega must be positive and finite"),
                              (("--omega-over-lambda", "4", "--theta-t-max", "inf"),
                               "theta-t grid needs a finite min and max, got 0 and inf"),
                              (("--omega-over-lambda", "4", "--theta-t-max", "nan"),
                               "theta-t grid needs a finite min and max, got 0 and nan")):
            assert_rejected_quietly(capsys, ("single-mode", *extra), reason)


class TestPeriodStats:
    def test_integer_n_peak(self, capsys):
        code, out, _ = run_cli(capsys, "period-stats", "--n-min", "1",
                               "--n-max", "2", "--n-points", "3",
                               "--samples", "500")
        assert code == 0
        columns, meta = csvio.parse_table(out)
        assert list(columns) == ["n", "omega_over_lambda", "c_max", "c_avg",
                                 "s_max", "s_avg"]
        assert abs(columns["c_max"][0] - 1.0) <= 1e-6
        assert columns["c_max"][1] < columns["c_max"][0]
        assert meta["n_points"] == "3"

    def test_rejects_overflowing_omega_t(self, capsys):
        assert_rejected_quietly(capsys, ("period-stats", "--n-max", "1e308"),
                                "omega t = 1.56038e+154 * 1.22552e+154 overflows")

    def test_rejects_small_n(self, capsys):
        code, _, err = run_cli(capsys, "period-stats", "--n-min", "0.1")
        assert code == 2
        assert "n_grid entries must be at least 0.25, got 0.1" in err


class TestBathSeries:
    def test_gapless_series(self, capsys):
        code, out, _ = run_cli(capsys, "bath-series", "--alpha", "0.25",
                               "--t-max", "5", "--points", "6")
        assert code == 0
        columns, meta = csvio.parse_table(out)
        assert list(columns) == ["t", "theta_t", "concurrence", "entropy",
                                 "entropy_scaled", "overlap"]
        assert columns["t"].shape == (6,)
        # Overlap at t = 1 for alpha = 1/4: (1 + t^2)^{-2 alpha} = 2^{-1/2}.
        np.testing.assert_allclose(columns["overlap"][1], 2.0 ** -0.5,
                                   rtol=1e-5)
        assert meta["alpha"] == "0.25"

    def test_rejects_negative_alpha(self, capsys):
        code, _, err = run_cli(capsys, "bath-series", "--alpha", "-0.5",
                               "--t-max", "5")
        assert code == 2
        assert "alpha" in err

    def test_rejects_bad_time_grid(self, capsys):
        code, _, err = run_cli(capsys, "bath-series", "--alpha", "0.25",
                               "--t-max", "0")
        assert code == 2

    def test_rejects_nonfinite_parameters(self, capsys):
        for extra, reason in ((("--alpha", "nan"), "alpha must be finite"),
                              (("--alpha", "inf"), "alpha must be finite"),
                              (("--alpha", "0.25", "--temperature", "nan"),
                               "temperature must be finite"),
                              (("--alpha", "0.25", "--amplitudes", "1,0,0,nan"),
                               "amplitudes must be finite")):
            code, out, err = run_cli(capsys, "bath-series", *extra, "--t-max", "5")
            assert code == 2 and out == ""
            assert err.startswith("error: ") and reason in err
            assert len(err.splitlines()) == 1

    def test_rejects_infinite_t_max(self, capsys):
        assert_rejected_quietly(
            capsys, ("bath-series", "--alpha", "0.25", "--t-max", "inf", "--points", "3"),
            "t grid needs a finite min and max, got 0 and inf")

    def test_rejects_overflowing_scales(self, capsys):
        for extra, reason in (
                (("--alpha", "1e308", "--t-max", "5"),
                 "4 alpha overflows at alpha 1e+308, omega0 0, temperature 0"),
                (("--alpha", "0.25", "--gap", "1e200", "--t-max", "1e200"),
                 "omega0 t (x0 s) = 1e+200 * 1e+200 overflows")):
            assert_rejected_quietly(capsys, ("bath-series", *extra, "--points", "3"), reason)

    def test_huge_t_max_gives_finite_measures_quietly(self, capsys):
        # At t = 1e308 the phase exceeds half the largest float and s * s overflows.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25",
                                     "--t-max", "1e308", "--points", "3")
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table(out)
        assert list(columns["concurrence"]) == [0.0, 0.0, 0.0]
        assert list(columns["overlap"]) == [1.0, 0.0, 0.0]

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        # A numerical failure inside the evaluation (here a RuntimeError
        # injected into the E1 forms) exits 3 with one line.
        def fail(z):
            raise RuntimeError("E1 continued fraction did not converge in 1000 terms")

        monkeypatch.setattr(bath, "_exp_e1", fail)
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25", "--gap", "0.1",
                                 "--temperature", "0.5", "--t-max", "5", "--points", "3")
        assert code == 3 and out == ""
        assert err == "error: E1 continued fraction did not converge in 1000 terms\n"

    def test_huge_gap_converges(self, capsys):
        # At t = 1000 the Bose term's E1 argument is z = x0 (1 - 1000i), |z| ~ 2.7e18,
        # where the continued-fraction tail is at its shallowest depth
        # (its forms against mpmath: test_bath_exponents.py).
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25",
                                 "--gap", "2692923700986777", "--t-max", "1000", "--points", "2")
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table(out)
        assert all(np.isfinite(values).all() for values in columns.values())

    def test_gap_near_the_largest_float_is_quiet(self, capsys):
        # At t = 1 both parts of the E1 argument x0 (1 - i) are 1.3e308, where
        # numpy's complex division overflows in an intermediate and returns 0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25", "--gap", "1.3e308",
                                     "--t-max", "1", "--points", "2")
        assert code == 0 and err == ""
        assert out.splitlines()[-2:] == ["0,0,0,0,0,1", "1,3.84615384615e-309,0,0,0,1"]

    def test_gap_past_the_largest_float_in_the_tail_depth_is_quiet(self, capsys):
        # At t = 1 (Re sqrt z)^2 of the E1 argument 1.7e308 (1 - i) overflows;
        # inf gives the shallowest tail depth, which is the right one there.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bath-series", "--alpha", "1", "--gap", "1.7e308",
                                     "--t-max", "1", "--points", "2")
        assert code == 0 and err == ""
        assert out.splitlines()[-1] == "1,1.17647058824e-308,0,0,0,1"

    @pytest.mark.parametrize("extra", [
        ("--alpha", "1.3e28", "--gap", "5.9", "--temperature", "1e308", "--t-max", "4"),
        ("--alpha", "1e4", "--gap", "3.4e-264", "--temperature", "1e40", "--t-max", "4"),
        ("--alpha", "2.5", "--temperature", "1.7e308", "--t-max", "1"),
        ("--alpha", "1", "--temperature", "1.4e154", "--t-max", "1.4e154"),
        ("--alpha", "4e307", "--t-max", "1")])
    def test_overflowing_damping_saturates_quietly(self, capsys, extra):
        # 4 alpha times the Bose sums, and the error estimate's twice the
        # plateau, pass the largest float: gamma_R = inf, the right limit.
        # Gapless, the ln Gamma drop passes it at T = 1.7e308; at 1.4e154 the
        # squared argument of its logarithm would overflow where e arctan e
        # does not.  At T = 0 and alpha 4e307, gamma_R + gamma_I, the error
        # magnitude, passes it.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "bath-series", *extra, "--points", "3")
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table(out)
        assert list(columns["overlap"]) == [1.0, 0.0, 0.0]
        assert list(columns["entropy"]) == [0.0, 1.5, 1.5]

    def test_uncertified_series_exits_3_before_evaluation(self, capsys, monkeypatch):
        # At gap 5e-324 and T = 2, gap/temperature underflows to 0: no route
        # certifies the Bose series, and it is refused before any evaluation.
        def fail(z):
            raise AssertionError("the series was evaluated")

        monkeypatch.setattr(bath, "_bose_sums", fail)
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25", "--gap", "5e-324",
                                 "--temperature", "2", "--t-max", "5", "--points", "3")
        assert code == 3 and out == ""
        assert err == ("error: Bose series at gap 4.94066e-324, temperature 2 has no "
                       "certified route: temperature/gap overflows\n")

    def test_small_gap_at_high_temperature(self, capsys):
        # The direct Bose series would need N = 8583054 terms here; the
        # printed values are the library's, which match 30-digit mpmath at
        # t = 2.5 and 5 (test_bath_exponents.py, TestBoseSeries).
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25", "--gap", "1e-5",
                                 "--temperature", "2", "--t-max", "5", "--points", "3")
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table(out)
        spec = bath.OhmicGapSpectrum(alpha=0.25, omega0=1e-5, temperature=2.0)
        gamma_r = bath.bath_exponents(spec, columns["t"])[0]
        np.testing.assert_allclose(columns["overlap"], np.exp(-gamma_r), rtol=1e-11, atol=0.0)

    def test_large_gap_prints_the_induced_phase(self, capsys):
        # theta t = 2 alpha (1 - x e^x E1(x)) t at x = 1e8 and t = 5e8 is
        # 2.49999995 (40-digit mpmath); the cancelling closed form printed
        # 2.49999998481.
        code, out, _ = run_cli(capsys, "bath-series", "--alpha", "0.25", "--gap", "1e8",
                               "--t-max", "1e9", "--points", "3")
        assert code == 0
        assert out.splitlines()[-2].split(",")[1] == "2.49999995"


class TestSteadySweep:
    def test_writes_both_tables(self, capsys, tmp_path):
        prefix = str(tmp_path / "sweep")
        code, out, _ = run_cli(capsys, "steady-sweep",
                               "--alpha-grid", "0.25:0.5:2",
                               "--gap-grid", "0:0.2:2",
                               "--temperature-grid", "0:1:2",
                               "--output-prefix", prefix)
        assert code == 0
        assert "sweep_entanglement.csv" in out

        ent, meta = csvio.parse_table((tmp_path / "sweep_entanglement.csv").read_text())
        assert list(ent) == ["alpha", "omega0", "has_steady_state",
                             "c_max_steady", "s_steady"]
        assert ent["alpha"].shape == (4,)
        gapless = ent["has_steady_state"] == 0.0
        assert np.all(ent["omega0"][gapless] == 0.0)
        assert np.all(ent["c_max_steady"][gapless] == -1.0)
        assert "sentinel" in meta

        thermal, _ = csvio.parse_table((tmp_path / "sweep_thermal.csv").read_text())
        assert list(thermal) == ["temperature", "omega0", "has_steady_state",
                                 "overlap_infinity"]
        assert thermal["temperature"].shape == (4,)

    def test_deterministic_output(self, capsys, tmp_path):
        texts = []
        for name in ("one", "two"):
            prefix = str(tmp_path / name)
            code, _, _ = run_cli(capsys, "steady-sweep",
                                 "--alpha-grid", "0.3:0.6:2",
                                 "--gap-grid", "0.1:0.2:2",
                                 "--temperature-grid", "0:1:2",
                                 "--output-prefix", prefix)
            assert code == 0
            texts.append((tmp_path / f"{name}_entanglement.csv").read_bytes())
        assert texts[0] == texts[1]

    def test_small_gap_at_high_temperature(self, capsys, tmp_path):
        # gamma_R(inf) at gap 1e-3, T = 2 needs 77052 Bose-series terms; the
        # quadrature it replaced did not converge there and the command exited 3.
        prefix = str(tmp_path / "sweep")
        code, _, err = run_cli(capsys, "steady-sweep", "--alpha-grid", "0.25:0.5:2",
                               "--gap-grid", "0.001:0.5:2", "--temperature-grid", "0:2:2",
                               "--output-prefix", prefix)
        assert code == 0 and err == ""
        thermal, _ = csvio.parse_table((tmp_path / "sweep_thermal.csv").read_text())
        assert np.all(thermal["has_steady_state"] == 1.0)
        # exp(-1976.7) at gap 1e-3, T = 2 underflows to 0.
        overlap = thermal["overlap_infinity"]
        assert np.all(np.isfinite(overlap) & (overlap >= 0.0) & (overlap < 1.0))

    def test_numerical_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        # A numerical failure (a RuntimeError injected into the E1 forms)
        # exits 3 with one line and leaves no file behind.
        def fail(z):
            raise RuntimeError("E1 continued fraction did not converge in 1000 terms")

        monkeypatch.setattr(bath, "_exp_e1", fail)
        prefix = str(tmp_path / "sweep")
        code, out, err = run_cli(capsys, "steady-sweep", "--alpha-grid", "0.25:0.5:2",
                                 "--gap-grid", "0.1:0.5:2", "--temperature", "2",
                                 "--temperature-grid", "0:2:2", "--output-prefix", prefix)
        assert code == 3 and out == ""
        assert err == "error: E1 continued fraction did not converge in 1000 terms\n"
        assert list(tmp_path.iterdir()) == []

    def test_small_gaps_at_high_temperature_exit_0(self, capsys, tmp_path):
        # The six cells at gaps 1e-5 and 1.1e-5 and T = 2 would need about
        # 8.6e6 direct terms each; each plateau matches 30-digit mpmath
        # (test_bath_exponents.py, TestPlateau).
        prefix = str(tmp_path / "sweep")
        code, out, err = run_cli(capsys, "steady-sweep", "--alpha-grid", "0.25:0.75:3",
                                 "--gap-grid", "1e-5:1.1e-5:2", "--temperature", "2",
                                 "--temperature-grid", "0:2:2", "--output-prefix", prefix)
        assert code == 0 and err == ""
        for name in ("entanglement", "thermal"):
            columns, _ = csvio.parse_table((tmp_path / f"sweep_{name}.csv").read_text())
            assert np.all(columns["has_steady_state"] == 1.0)

    def test_refused_thermal_table_writes_neither_file(self, capsys, tmp_path, monkeypatch):
        # The entanglement table (one pass, one E1 call) succeeds; the
        # thermal table's pass then fails, and no file may be left behind.
        calls = []

        def fail_after_first(z, real=bath._exp_e1):
            calls.append(np.size(z))
            if len(calls) > 1:
                raise RuntimeError("E1 continued fraction did not converge in 1000 terms")
            return real(z)

        monkeypatch.setattr(bath, "_exp_e1", fail_after_first)
        prefix = str(tmp_path / "sweep")
        code, out, err = run_cli(capsys, "steady-sweep", "--alpha-grid", "0.25:0.5:2",
                                 "--gap-grid", "1e-6:0.5:2", "--temperature-grid", "0:2:2",
                                 "--output-prefix", prefix)
        assert code == 3 and out == ""
        assert len(calls) == 2 and len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_rejects_reversed_axis(self, capsys):
        code, _, err = run_cli(capsys, "steady-sweep",
                               "--alpha-grid", "1:0.05:8")
        assert code == 2
        assert "min < max" in err

    def test_rejects_overflowing_alpha_before_writing(self, capsys, tmp_path):
        # The gapped cell (alpha 1e308, omega0 1e300) used to read has_steady_state = 0.
        prefix = tmp_path / "huge"
        assert_rejected_quietly(
            capsys, ("steady-sweep", "--alpha-grid", "0:1e308:2", "--gap-grid", "0:1e300:2",
                     "--output-prefix", str(prefix)),
            "4 alpha overflows at alpha 1e+308, omega0 0, temperature 0")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("option, text", [
        ("--amplitudes", "0.5\n,0.5,0.5,0.5"), ("--amplitudes", "0.5,0.5,0.5,0.5\r"),
        ("--alpha-grid", "0.05:1:2\n"), ("--gap-grid", "0:0.5\n:2"),
        ("--temperature-grid", "0:2:2\r\n")])
    def test_rejects_line_break_before_computing(self, capsys, tmp_path, monkeypatch,
                                                 option, text):
        # The text would go into a metadata line and split it.
        monkeypatch.setattr(cli.sweeps, "steady_state_table", None)
        assert_rejected_quietly(
            capsys, ("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.1:2",
                     "--temperature-grid", "0:1:2", f"{option}={text}",
                     "--output-prefix", str(tmp_path / "p")),
            "must not contain a line break")
        assert list(tmp_path.iterdir()) == []

    def test_rejects_nonfinite_axis(self, capsys):
        for axis in ("0.1:inf:3", "-inf:1:3", "nan:1:3", "0.1:nan:3"):
            assert_rejected_quietly(
                capsys, ("steady-sweep", f"--alpha-grid={axis}", "--gap-grid", "0:0.5:2",
                         "--temperature-grid", "0:1:2"),
                "needs a finite min and max")


class TestChecks:
    def test_oracle_check_passes(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check")
        assert code == 0
        assert "oracle checks passed" in out
        assert "FAIL" not in out

    def test_oracle_check_fails_at_absurd_tolerance(self, capsys):
        code, out, _ = run_cli(capsys, "oracle-check", "--tolerance", "1e-18")
        assert code == 1
        assert "FAIL" in out

    def test_verify_runs_all_suites(self, capsys, monkeypatch, all_suites):
        # The suites themselves run once per session (conftest); this checks
        # that verify reports each of them.
        monkeypatch.setattr(checks, "all_checks", lambda: all_suites)
        code, out, _ = run_cli(capsys, "verify")
        total = sum(len(results) for results in all_suites.values())
        assert code == 0
        assert all(f"== {suite} ==" in out for suite in all_suites)
        assert out.endswith(f"{total}/{total} checks passed\n")
        assert "FAIL" not in out

    def test_verify_reports_a_raising_suite_and_runs_the_rest(self, capsys, monkeypatch,
                                                              all_suites):
        # The other suites return their session results; the single-mode
        # suite raises as an invalid state would.
        for suite, name in (("state-algebra", "state_algebra_checks"),
                            ("fock-oracle", "oracle_checks"), ("bath", "bath_checks"),
                            ("sweeps", "sweep_checks"), ("acceptance", "acceptance_checks")):
            monkeypatch.setattr(checks, name, lambda *args, suite=suite, **kwargs:
                                all_suites[suite])

        def broken(*args, **kwargs):
            raise single_mode.InvalidDensityMatrixError(
                single_mode.DensityCheck(0.0, 2e-10, 0.5), 7)

        monkeypatch.setattr(checks, "single_mode_checks", broken)
        code, out, err = run_cli(capsys, "verify")
        assert code == 1 and err == ""
        assert all(f"== {suite} ==" in out for suite in all_suites)
        failed = [line for line in out.splitlines() if line.startswith("FAIL")]
        assert len(failed) == 1
        assert failed[0].startswith("FAIL single-mode: raised InvalidDensityMatrixError: ")
        total = sum(len(results) for suite, results in all_suites.items()
                    if suite != "single-mode") + 1
        assert out.endswith(f"{total - 1}/{total} checks passed\n")


class TestGrids:
    def test_parser_defaults_are_the_paper_grids(self):
        _, sweep = cli._parse(["steady-sweep"])
        _, stats = cli._parse(["period-stats"])
        grids = {
            "alpha": cli._parse_axis(sweep.alpha_grid, "alpha grid"),
            "gap": cli._parse_axis(sweep.gap_grid, "gap grid"),
            "temperature": cli._parse_axis(sweep.temperature_grid, "temperature grid"),
            "n": cli._axis(stats.n_min, stats.n_max, stats.n_points, "n grid"),
        }
        for name, (points, lo, hi) in {"alpha": (32, 0.05, 1.0), "gap": (32, 0.0, 0.5),
                                       "temperature": (33, 0.0, 2.0),
                                       "n": (47, 0.5, 12.0)}.items():
            grid = grids[name]
            assert (grid.size, grid[0], grid[-1]) == (points, lo, hi), name
        np.testing.assert_allclose(np.diff(grids["n"]), 0.25, rtol=1e-12)

    def test_every_grid_comes_from_the_one_axis(self, capsys, tmp_path, monkeypatch,
                                                grid_checks):
        built = []
        axis = cli._axis

        def recording(lo, hi, points, name):
            built.append(name)
            return axis(lo, hi, points, name)

        monkeypatch.setattr(cli, "_axis", recording)
        for argv in (("single-mode", "--omega-over-lambda", "4", "--points", "3"),
                     ("period-stats", "--n-min", "1", "--n-max", "2", "--n-points", "2",
                      "--samples", "100"),
                     ("bath-series", "--alpha", "0.25", "--t-max", "1", "--points", "2"),
                     ("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.1:2",
                      "--temperature-grid", "0:1:2", "--output-prefix", str(tmp_path / "s"))):
            assert run_cli(capsys, *argv)[0] == 0
        assert built == ["theta-t grid", "n grid", "t grid",
                         "alpha grid", "gap grid", "temperature grid"]
        assert grid_checks == ["t_grid", "n_grid", "t_grid",
                               "alphas", "gaps", "temperatures", "gaps"]


class TestParser:
    """The option table :data:`cli._COMMANDS` as :func:`getopt.getopt` reads it."""

    @pytest.mark.parametrize("argv", [
        ("single-mode", "--omega-over-lambda=4", "--points=5"),
        ("single-mode", "--omega", "4", "--poi", "5"),
        ("single-mode", "--omega=4", "--points", "5"),
    ], ids=["equals", "prefix", "prefix-equals"])
    def test_long_forms_parse_alike(self, argv):
        full = cli._parse(["single-mode", "--omega-over-lambda", "4", "--points", "5"])
        assert cli._parse(list(argv)) == full
        assert full[1].omega_over_lambda == 4.0 and full[1].points == 5

    @pytest.mark.parametrize("argv, reason", [
        (("single-mode", "--omega-over-lambda", "4", "--frequency", "2"),
         "option --frequency not recognized"),
        (("bath-series", "--alpha", "0.25", "--t", "5"), "option --t not a unique prefix"),
        (("bath-series", "--alpha", "0.25", "--t-max", "5", "--points", "many"),
         "invalid int value for --points: 'many'"),
        (("single-mode", "--omega-over-lambda", "four"),
         "invalid float value for --omega-over-lambda: 'four'"),
        (("bath-series", "--alpha", "0.25"), "bath-series needs --t-max"),
        (("bath-series",), "bath-series needs --alpha and --t-max"),
        (("single-mode", "--omega-over-lambda"), "option --omega-over-lambda requires argument"),
        (("single-mode", "--omega-over-lambda", "4", "extra"), "unexpected argument 'extra'"),
        ((), "no command given"),
        (("no-such-command",), "unknown command 'no-such-command'"),
    ], ids=["unknown-option", "ambiguous-prefix", "bad-int", "bad-float", "missing-required",
            "missing-two", "missing-value", "stray-positional", "no-command", "unknown-command"])
    def test_argument_error_exits_2_with_one_line(self, capsys, argv, reason):
        assert_rejected_quietly(capsys, argv, reason)

    @pytest.mark.parametrize("argv", [
        (flag,) for flag in ("--help", "-h")] + [
        (command, flag) for command in cli._COMMANDS for flag in ("--help", "-h")],
        ids=" ".join)
    def test_help_names_every_choice(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0 and err == ""
        if len(argv) == 1:
            assert all(f"  {command}  " in out for command in cli._COMMANDS)
            return
        lines = out.splitlines()
        for name, _, default, _ in cli._COMMANDS[argv[0]][2]:
            [line] = [line for line in lines if line.startswith(f"  --{name} ")]
            if default is cli._REQUIRED:
                assert line.endswith("(required)")
            elif default is not None:
                assert line.endswith(f"(default: {default})")


class TestTopLevel:
    def test_unwritable_output_exits_2(self, capsys, tmp_path):
        missing = tmp_path / "missing"
        for argv in (("single-mode", "--omega-over-lambda", "4", "--points", "5",
                      "--output", str(missing / "x.csv")),
                     ("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.1:2",
                      "--temperature-grid", "0:1:2", "--output-prefix", str(missing / "p"))):
            code, out, err = run_cli(capsys, *argv)
            assert code == 2 and out == ""
            assert err.startswith("error: [Errno 2] No such file or directory: ")
            assert len(err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert "twospinboson" in out

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "no-such-command")
        assert code == 2

    def test_cli_imports_neither_scipy_nor_mpmath(self):
        # Start-up pays for numpy alone: the package's constants are literals,
        # getopt parses the arguments, the verification modules load only
        # when verify or oracle-check runs, and the CSV byte kernel and its
        # tables only when a block first needs it.
        code = ("import sys, twospinboson.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in "
                "('scipy', 'mpmath', 'argparse') or m in "
                "('twospinboson.checks', 'twospinboson.quadrature', "
                "'twospinboson.csvkernel', 'twospinboson.entanglement', "
                "'twospinboson.fock')))")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0 and proc.stdout == "[]\n"

    @pytest.mark.parametrize("unbuffered, status, err", [
        (False, 2, "error: [Errno 32] Broken pipe\n"),
        (True, 0, ""),
    ], ids=["buffered", "unbuffered"])
    def test_reader_closing_the_pipe_early(self, unbuffered, status, err):
        # As `| head -c 10` on a 2.6 MB table.  Buffered, the write fails:
        # exit 2 with one line.  Unbuffered (PYTHONUNBUFFERED), the first
        # write comes back short and the table ends quietly, as one write of
        # the whole text would.
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        proc = subprocess.Popen(
            [sys.executable, "-m", "twospinboson.cli", "single-mode", "--omega-over-lambda",
             "4.5", "--theta-t-max", "50", "--points", "30000"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert os.read(proc.stdout.fileno(), 10) == b"# tool: tw"
        proc.stdout.close()
        assert (proc.wait(), proc.stderr.read().decode()) == (status, err)
        proc.stderr.close()

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twospinboson.cli", "single-mode",
             "--omega-over-lambda", "4", "--points", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("# tool: twospinboson")
