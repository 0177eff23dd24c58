"""End-to-end command-line tests: exit codes, CSV output, determinism."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from twospinboson import bath, checks, cli, csvio, single_mode
from twospinboson.cli import main

from test_cli_fuzz import check_cli


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


_E1_FAILURE = "E1 continued fraction did not converge in 1000 terms"
_SWEEP_AXES = ("--gap-grid", "0:0.5:2", "--temperature-grid", "0:1:2")
_CHOICES = ("(choose from single-mode, period-stats, bath-series, steady-sweep, oracle-check, "
            "verify)")

# Every argv the command line refuses, one row per refusal class: (argv, exit
# code, the stderr line after "error: "), each checked by check_cli, the fuzz
# test's contract.  {tmp} in either stands for the test's working directory,
# which the refusal must leave empty.
REFUSALS = [
    # The option table as getopt reads it.
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--frequency", "2"), 2,
                 "option --frequency not recognized", id="unknown-option"),
    pytest.param(("bath-series", "--alpha", "0.25", "--t", "5"), 2,
                 "option --t not a unique prefix", id="ambiguous-prefix"),
    pytest.param(("bath-series", "--alpha", "0.25", "--t-max", "5", "--points", "many"), 2,
                 "invalid int value for --points: 'many'", id="bad-int"),
    pytest.param(("single-mode", "--omega-over-lambda", "four"), 2,
                 "invalid float value for --omega-over-lambda: 'four'", id="bad-float"),
    pytest.param(("bath-series", "--alpha", "0.25"), 2, "bath-series needs --t-max",
                 id="missing-required"),
    pytest.param(("bath-series",), 2, "bath-series needs --alpha and --t-max", id="missing-two"),
    pytest.param(("single-mode",), 2, "single-mode needs --omega-over-lambda",
                 id="missing-omega"),
    pytest.param(("single-mode", "--omega-over-lambda"), 2,
                 "option --omega-over-lambda requires argument", id="missing-value"),
    pytest.param(("single-mode", "--omega-over-lambda", "4", "extra"), 2,
                 "unexpected argument 'extra'", id="stray-positional"),
    pytest.param((), 2, f"no command given {_CHOICES}", id="no-command"),
    pytest.param(("no-such-command",), 2, f"unknown command 'no-such-command' {_CHOICES}",
                 id="unknown-command"),
    pytest.param(("steady-sweep", "--alpha-grid", "0:1"), 2,
                 "alpha grid '0:1' must have the form min:max:points", id="axis-form"),
    pytest.param(("steady-sweep", "--gap-grid", "0:1:2.5"), 2,
                 "could not parse gap grid '0:1:2.5'", id="axis-parse"),
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--amplitudes", "1,2,x,4"), 2,
                 "could not parse amplitudes '1,2,x,4' as complex numbers",
                 id="amplitudes-parse"),
    pytest.param(("oracle-check", "--tolerance", "0"), 2,
                 "tolerance must be positive and finite, got 0.0", id="tolerance-0"),
    pytest.param(("oracle-check", "--tolerance", "nan"), 2,
                 "tolerance must be positive and finite, got nan", id="tolerance-nan"),
    pytest.param(("oracle-check", "--tolerance", "inf"), 2,
                 "tolerance must be positive and finite, got inf", id="tolerance-inf"),
    pytest.param(("oracle-check", "--tolerance", "1e309"), 2,
                 "tolerance must be positive and finite, got inf", id="tolerance-1e309"),
    # Amplitudes.
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--amplitudes", "1,2,3"), 2,
                 "amplitudes must be four comma-separated complex numbers",
                 id="amplitudes-three"),
    # It used to exit 0 and write a file whose amplitudes line was split.
    pytest.param(("single-mode", "--omega-over-lambda", "4",
                  "--amplitudes", "0.5\n,0.5,0.5,0.5"), 2,
                 "amplitudes must not contain a line break, got '0.5\\n,0.5,0.5,0.5'",
                 id="amplitudes-line-break"),
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--amplitudes", "0,0,0,0"), 2,
                 "cannot normalize the zero amplitude vector", id="amplitudes-zero"),
    pytest.param(("bath-series", "--alpha", "0.25", "--amplitudes", "1,0,0,nan", "--t-max", "5"),
                 2, "amplitudes must be finite, got (1+0j), 0j, 0j, (nan+0j)",
                 id="amplitudes-nan"),
    # single-mode's parameters and grid.
    pytest.param(("single-mode", "--omega-over-lambda", "0"), 2,
                 "omega must be positive and finite, got 0.0", id="omega-0"),
    pytest.param(("single-mode", "--omega-over-lambda", "inf"), 2,
                 "omega must be positive and finite, got inf", id="omega-inf"),
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--theta-t-max", "inf"), 2,
                 "theta-t grid needs a finite min and max, got 0 and inf",
                 id="theta-t-max-inf"),
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--theta-t-max", "nan"), 2,
                 "theta-t grid needs a finite min and max, got 0 and nan",
                 id="theta-t-max-nan"),
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--points", "1"), 2,
                 "theta-t grid needs at least 2 points, got 1", id="theta-t-1-point"),
    pytest.param(("single-mode", "--omega-over-lambda", "1e-200", "--points", "5"), 2,
                 "omega 1e-200 overflows (2 / omega)^2", id="ratio-overflows"),
    pytest.param(("single-mode", "--omega-over-lambda", "1e160", "--points", "5"), 2,
                 "omega t = 1e+160 * 7.85398e+159 overflows", id="omega-t-overflows"),
    # The last time theta-t-max / theta overflows: refused before the grid is
    # divided, with no RuntimeWarning ahead of the reason.
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--theta-t-max", "1e308",
                  "--points", "3"), 2,
                 "t = theta t / theta = 1e+308 / 0.5 overflows", id="time-quotient-overflows"),
    # period-stats' n grid.
    pytest.param(("period-stats", "--n-points", "1"), 2,
                 "n grid needs at least 2 points, got 1", id="n-1-point"),
    pytest.param(("period-stats", "--n-min", "0.1"), 2,
                 "n_grid entries must be at least 0.25, got 0.1", id="n-below-quarter"),
    pytest.param(("period-stats", "--n-max", "1e308"), 2,
                 "omega t = 1.56038e+154 * 1.22552e+154 overflows", id="n-omega-t-overflows"),
    # n-max - n-min overflows: refused before any grid arithmetic.
    pytest.param(("period-stats", "--n-min=-1.7e308", "--n-max", "1.7e308"), 2,
                 "n grid span max - min overflows, got -1.7e+308 and 1.7e+308",
                 id="n-span-overflows"),
    # bath-series' parameters and grid.
    pytest.param(("bath-series", "--alpha", "-0.5", "--t-max", "5"), 2,
                 "alpha must be nonnegative, got -0.5", id="alpha-negative"),
    pytest.param(("bath-series", "--alpha", "nan", "--t-max", "5"), 2,
                 "alpha must be finite, got nan", id="alpha-nan"),
    pytest.param(("bath-series", "--alpha", "inf", "--t-max", "5"), 2,
                 "alpha must be finite, got inf", id="alpha-inf"),
    pytest.param(("bath-series", "--alpha", "0.25", "--temperature", "nan", "--t-max", "5"), 2,
                 "temperature must be finite, got nan", id="temperature-nan"),
    pytest.param(("bath-series", "--alpha", "0.25", "--t-max", "0"), 2,
                 "t grid needs min < max, got 0 and 0", id="t-max-0"),
    pytest.param(("bath-series", "--alpha", "0.25", "--t-max", "inf", "--points", "3"), 2,
                 "t grid needs a finite min and max, got 0 and inf", id="t-max-inf"),
    pytest.param(("bath-series", "--alpha", "0.25", "--t-max", "5", "--points", "0"), 2,
                 "t grid needs at least 2 points, got 0", id="t-0-points"),
    pytest.param(("bath-series", "--alpha", "1e308", "--t-max", "5", "--points", "3"), 2,
                 "4 alpha overflows at alpha 1e+308, omega0 0, temperature 0",
                 id="4-alpha-overflows"),
    pytest.param(("bath-series", "--alpha", "0.25", "--gap", "1e200", "--t-max", "1e200",
                  "--points", "3"), 2,
                 "omega0 t (x0 s) = 1e+200 * 1e+200 overflows", id="omega0-t-overflows"),
    # At gap 5e-324 and T = 2, gap/temperature underflows to 0: no route
    # certifies the Bose series.
    pytest.param(("bath-series", "--alpha", "0.25", "--gap", "5e-324", "--temperature", "2",
                  "--t-max", "5", "--points", "3", "--output", "{tmp}/o.csv"), 3,
                 "Bose series at gap 4.94066e-324, temperature 2 has no certified route: "
                 "temperature/gap overflows", id="uncertified-series"),
    # steady-sweep's axes and parameters.
    pytest.param(("steady-sweep", "--alpha-grid", "1:0.05:8"), 2,
                 "alpha grid needs min < max, got 1 and 0.05", id="axis-reversed"),
    pytest.param(("steady-sweep", "--alpha-grid=0.1:inf:3", *_SWEEP_AXES), 2,
                 "alpha grid needs a finite min and max, got 0.1 and inf", id="axis-max-inf"),
    pytest.param(("steady-sweep", "--alpha-grid=-inf:1:3", *_SWEEP_AXES), 2,
                 "alpha grid needs a finite min and max, got -inf and 1", id="axis-min-inf"),
    pytest.param(("steady-sweep", "--alpha-grid=nan:1:3", *_SWEEP_AXES), 2,
                 "alpha grid needs a finite min and max, got nan and 1", id="axis-min-nan"),
    pytest.param(("steady-sweep", "--alpha-grid=0.1:nan:3", *_SWEEP_AXES), 2,
                 "alpha grid needs a finite min and max, got 0.1 and nan", id="axis-max-nan"),
    # max - min overflows although both ends are finite; the run used to
    # warn twice and then blame the grid's entries.
    *(pytest.param(("steady-sweep", f"--alpha-grid={lo}:{hi}:{points}", *_SWEEP_AXES,
                    "--output-prefix", "{tmp}/p"), 2,
                   f"alpha grid span max - min overflows, got {float(lo):g} and {float(hi):g}",
                   id=f"axis-span-{lo[1:]}-{hi}")
      for lo, hi, points in (("-1.7e308", "1.7e308", 3), ("-1.7e308", "1e308", 2),
                             ("-1e308", "1e308", 2))),
    # The gapped cell (alpha 1e308, omega0 1e300) used to read has_steady_state = 0.
    pytest.param(("steady-sweep", "--alpha-grid", "0:1e308:2", "--gap-grid", "0:1e300:2",
                  "--output-prefix", "{tmp}/huge"), 2,
                 "4 alpha overflows at alpha 1e+308, omega0 0, temperature 0",
                 id="sweep-4-alpha-overflows"),
    # The entanglement series at T 1e10 and gap 1e-300 has no certified route
    # (exit 3, README), but the thermal table's alpha is refused first.
    pytest.param(("steady-sweep", "--temperature", "1e10", "--gap-grid", "1e-300:1e-299:2",
                  "--thermal-alpha", "-1", "--output-prefix", "{tmp}/p"), 2,
                 "alpha must be nonnegative, got -1.0", id="argument-error-before-exit-3"),
    pytest.param(("steady-sweep", "--temperature", "1e10", "--gap-grid", "1e-300:1e-299:2",
                  "--output-prefix", "{tmp}/p"), 3,
                 "Bose series at gap 1e-300, temperature 1e+10 has no certified route: "
                 "temperature/gap overflows", id="sweep-uncertified-series"),
    # Output paths that cannot be opened.
    pytest.param(("single-mode", "--omega-over-lambda", "4", "--points", "5",
                  "--output", "{tmp}/missing/x.csv"), 2,
                 "[Errno 2] No such file or directory: '{tmp}/missing/x.csv'",
                 id="missing-output-directory"),
    pytest.param(("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.1:2",
                  "--temperature-grid", "0:1:2", "--output-prefix", "{tmp}/missing/p"), 2,
                 "[Errno 2] No such file or directory: '{tmp}/missing/p_entanglement.csv'",
                 id="missing-prefix-directory"),
]


@pytest.mark.parametrize("argv, code, reason", REFUSALS)
def test_refusal_exits_with_one_line(tmp_path, argv, code, reason):
    tmp = str(tmp_path)
    check_cli([arg.replace("{tmp}", tmp) for arg in argv], tmp_path, code,
              reason.replace("{tmp}", tmp))


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

    @pytest.mark.parametrize("extra", [
        ("--omega-over-lambda", "4", "--points", "11"),
        # The kernel route full of % fallbacks: 1,200 values, 597 of them
        # printed by % and 403 zeros.
        ("--omega-over-lambda", "4.5", "--theta-t-max", "1e-300", "--points", "200")],
        ids=["11-points", "fallbacks"])
    def test_output_file_round_trip(self, capsys, tmp_path, extra):
        path = tmp_path / "series.csv"
        code, out, _ = run_cli(capsys, "single-mode", *extra, "--output", str(path))
        assert code == 0 and out == ""
        text = path.read_text()
        columns, meta = csvio.parse_table(text)
        assert csvio.render_table(columns, meta) == text
        # Standard output gets the same bytes as the file.
        code, out, err = run_cli(capsys, "single-mode", *extra)
        assert code == 0 and err == ""
        assert out.encode() == path.read_bytes()

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

    def test_extreme_amplitudes_are_normalized(self, capsys):
        for text in ("1e160,1e160,0,0", "3e-170,4e-170,0,0"):
            code, out, err = run_cli(capsys, "single-mode", "--omega-over-lambda", "4",
                                     "--points", "3", f"--amplitudes={text}")
            assert code == 0 and err == ""
            assert f"# amplitudes: {text}" in out


class TestPeriodStats:
    @pytest.mark.parametrize("extra, peak, n_points", [
        (("--n-min", "1", "--n-max", "2", "--n-points", "3", "--samples", "500"), 0, "3"),
        # n = 0.5, 3.375, 6.25, 9.125 and 12 at the default samples.
        (("--n-points", "5"), 4, "5"),
        # The defaults: n = 0.5 to 12 in steps of 0.25, 2000 samples.
        ((), 2, "47")], ids=["n-1-to-2", "default-n-range", "defaults"])
    def test_integer_n_peak(self, capsys, extra, peak, n_points):
        code, out, err = run_cli(capsys, "period-stats", *extra)
        assert code == 0 and err == ""
        columns, meta = csvio.parse_table(out)
        assert list(columns) == ["n", "omega_over_lambda", "c_max", "c_avg",
                                 "s_max", "s_avg"]
        assert columns["n"][peak] == round(columns["n"][peak])
        assert abs(columns["c_max"][peak] - 1.0) <= 1e-6
        assert columns["c_max"][1] < columns["c_max"][peak]
        assert meta["n_points"] == n_points
        assert columns["n"].size == int(n_points)


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

    def test_huge_t_max_gives_finite_measures_quietly(self, capsys):
        # At t = 1e308 the phase exceeds half the largest float and s * s overflows.
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25",
                                 "--t-max", "1e308", "--points", "3")
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table(out)
        assert list(columns["concurrence"]) == [0.0, 0.0, 0.0]
        assert list(columns["overlap"]) == [1.0, 0.0, 0.0]

    def test_numerical_failure_exits_3(self, tmp_path, spy):
        # A numerical failure inside the evaluation (here a RuntimeError
        # injected into the E1 forms) exits 3 with one line.
        spy(bath, "_exp_e1", raises=RuntimeError(_E1_FAILURE))
        check_cli(("bath-series", "--alpha", "0.25", "--gap", "0.1", "--temperature", "0.5",
                   "--t-max", "5", "--points", "3"), tmp_path, 3, _E1_FAILURE)

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
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25", "--gap", "1.3e308",
                                 "--t-max", "1", "--points", "2")
        assert code == 0 and err == ""
        assert out.splitlines()[-2:] == ["0,0,0,0,0,1", "1,3.84615384615e-309,0,0,0,1"]

    def test_gap_past_the_largest_float_in_the_tail_depth_is_quiet(self, capsys):
        # At t = 1 (Re sqrt z)^2 of the E1 argument 1.7e308 (1 - i) overflows;
        # inf gives the shallowest tail depth, which is the right one there.
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
        code, out, err = run_cli(capsys, "bath-series", *extra, "--points", "3")
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table(out)
        assert list(columns["overlap"]) == [1.0, 0.0, 0.0]
        assert list(columns["entropy"]) == [0.0, 1.5, 1.5]

    def test_uncertified_series_exits_3_before_evaluation(self, tmp_path, spy):
        # The uncertified-series row of REFUSALS is refused before any evaluation.
        spy(bath, "_bose_sums", raises=AssertionError("the series was evaluated"))
        check_cli(("bath-series", "--alpha", "0.25", "--gap", "5e-324", "--temperature", "2",
                   "--t-max", "5", "--points", "3"), tmp_path, 3,
                  "Bose series at gap 4.94066e-324, temperature 2 has no certified route: "
                  "temperature/gap overflows")

    @pytest.mark.parametrize("extra, gap", [
        (("--gap", "1e-5", "--temperature", "2", "--t-max", "5"), 1e-5),
        (("--temperature", "2", "--t-max", "1e-5"), 0.0)], ids=["small-gap", "gapless-small-t"])
    def test_small_gap_at_high_temperature(self, capsys, extra, gap):
        # At gap 1e-5 the direct Bose series would need N = 8583054 terms; the
        # printed values are the library's, which match 30-digit mpmath at
        # t = 2.5 and 5 (test_bath_exponents.py, TestBoseSeries).  Gapless at
        # t <= 1e-5, the ln Gamma drop keeps its digits (60-digit mpmath:
        # test_thermal_drop_against_mpmath there).
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25", *extra, "--points", "3")
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table(out)
        spec = bath.OhmicGapSpectrum(alpha=0.25, omega0=gap, temperature=2.0)
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
    @pytest.mark.parametrize("extra, entanglement_rows, thermal_rows", [
        (("--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.2:2", "--temperature-grid", "0:1:2"),
         4, 4),
        # alpha = 0 and gapless cells on the T > 0 route, with the default
        # temperature grid of 33 points.
        (("--alpha-grid", "0:0.1:2", "--gap-grid", "0:0.1:2", "--temperature", "0.5"), 4, 66),
        # The defaults: 32 alphas x 32 gaps, and 33 temperatures x 32 gaps.
        ((), 1024, 1056)],
        ids=["T-0", "alpha-0-at-T-0.5", "defaults"])
    def test_writes_both_tables(self, capsys, tmp_path, extra, entanglement_rows, thermal_rows):
        prefix = str(tmp_path / "sweep")
        code, out, err = run_cli(capsys, "steady-sweep", *extra, "--output-prefix", prefix)
        assert code == 0 and err == ""
        assert "sweep_entanglement.csv" in out

        ent, meta = csvio.parse_table((tmp_path / "sweep_entanglement.csv").read_text())
        assert list(ent) == ["alpha", "omega0", "has_steady_state",
                             "c_max_steady", "s_steady"]
        assert ent["alpha"].shape == (entanglement_rows,)
        gapless = ent["has_steady_state"] == 0.0
        assert np.all(ent["omega0"][gapless] == 0.0)
        assert np.all(ent["c_max_steady"][gapless] == -1.0)
        assert "sentinel" in meta

        thermal, _ = csvio.parse_table((tmp_path / "sweep_thermal.csv").read_text())
        assert list(thermal) == ["temperature", "omega0", "has_steady_state",
                                 "overlap_infinity"]
        assert thermal["temperature"].shape == (thermal_rows,)

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

    def test_numerical_failure_exits_3(self, tmp_path, spy):
        # A numerical failure (a RuntimeError injected into the E1 forms)
        # exits 3 with one line and leaves no file behind.
        spy(bath, "_exp_e1", raises=RuntimeError(_E1_FAILURE))
        check_cli(("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0.1:0.5:2",
                   "--temperature", "2", "--temperature-grid", "0:2:2",
                   "--output-prefix", str(tmp_path / "sweep")), tmp_path, 3, _E1_FAILURE)

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

    def test_refused_table_after_the_bose_pass_writes_neither_file(self, tmp_path, spy):
        # The one Bose-series pass of both tables succeeds; the tables then
        # fail, and no file may be left behind.
        calls = spy(cli.sweeps, "_steady_states", record=lambda vec, g_inf: g_inf.size,
                    raises=RuntimeError(_E1_FAILURE))
        check_cli(("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "1e-6:0.5:2",
                   "--temperature-grid", "0:2:2", "--output-prefix", str(tmp_path / "sweep")),
                  tmp_path, 3, _E1_FAILURE)
        assert calls == [4]

    def test_unwritable_second_file_leaves_the_first_complete(self, capsys, tmp_path):
        # Both tables are computed before either file is written; the second
        # file cannot be opened, so the run exits 2 after writing the first.
        argv = ("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.2:2",
                "--temperature-grid", "0:1:2", "--output-prefix")
        (tmp_path / "p_thermal.csv").mkdir()
        code, out, err = run_cli(capsys, *argv, str(tmp_path / "p"))
        assert code == 2 and out == ""
        assert err.startswith("error: [Errno 21] Is a directory: ")
        assert len(err.splitlines()) == 1
        text = (tmp_path / "p_entanglement.csv").read_text()
        columns, _ = csvio.parse_table(text)
        assert columns["alpha"].shape == (4,)
        assert run_cli(capsys, *argv, str(tmp_path / "q"))[0] == 0
        assert (tmp_path / "q_entanglement.csv").read_text() == text

    def test_one_bose_pass_per_run(self, capsys, tmp_path, spy):
        # Both tables' series go through one plan and one evaluation: 9 gapped
        # gaps of the entanglement table, then the 9 x 9 gapped thermal cells.
        rows = {name: spy(bath, name, record=lambda x0, *args: x0.size)
                for name in ("_bose_plan", "_bose_sums")}
        code, _, err = run_cli(capsys, "steady-sweep", "--alpha-grid", "0.05:1:3",
                               "--gap-grid", "0:0.5:10", "--temperature-grid", "0:2:9",
                               "--output-prefix", str(tmp_path / "p"))
        assert code == 0 and err == ""
        assert rows == {"_bose_plan": [90], "_bose_sums": [90]}

    def test_uncoupled_thermal_table_sums_no_series(self, capsys, tmp_path):
        # At T 1e10 and gap 1e-300 no route certifies the series; at thermal
        # alpha 0 the table needs none, and every overlap is 1.
        prefix = tmp_path / "p"
        code, _, err = run_cli(capsys, "steady-sweep", "--thermal-alpha", "0",
                               "--alpha-grid", "0.25:0.5:2", "--gap-grid", "1e-300:1e-299:2",
                               "--temperature-grid", "0:1e10:2", "--output-prefix", str(prefix))
        assert code == 0 and err == ""
        columns, _ = csvio.parse_table((tmp_path / "p_thermal.csv").read_text())
        assert columns["overlap_infinity"].tolist() == [1.0] * 4

    @pytest.mark.parametrize("option, text", [
        ("--amplitudes", "0.5\n,0.5,0.5,0.5"), ("--amplitudes", "0.5,0.5,0.5,0.5\r"),
        ("--alpha-grid", "0.05:1:2\n"), ("--gap-grid", "0:0.5\n:2"),
        ("--temperature-grid", "0:2:2\r\n")])
    def test_rejects_line_break_before_computing(self, tmp_path, spy, option, text):
        # The text would go into a metadata line and split it.
        spy(cli.sweeps, "steady_sweep_tables", raises=AssertionError("the tables were computed"))
        check_cli(("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.1:2",
                   "--temperature-grid", "0:1:2", f"{option}={text}",
                   "--output-prefix", str(tmp_path / "p")), tmp_path, 2,
                  f"{option[2:].replace('-', ' ')} must not contain a line break, got {text!r}")


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

    def test_every_grid_comes_from_the_one_axis(self, capsys, tmp_path, spy, grid_checks):
        built = spy(cli, "_axis", record=lambda lo, hi, points, name: name)
        for argv in (("single-mode", "--omega-over-lambda", "4", "--points", "3"),
                     ("period-stats", "--n-min", "1", "--n-max", "2", "--n-points", "2",
                      "--samples", "100"),
                     ("bath-series", "--alpha", "0.25", "--t-max", "1", "--points", "2"),
                     ("steady-sweep", "--alpha-grid", "0.25:0.5:2", "--gap-grid", "0:0.1:2",
                      "--temperature-grid", "0:1:2", "--output-prefix", str(tmp_path / "s"))):
            assert run_cli(capsys, *argv)[0] == 0
        assert built == ["theta-t grid", "n grid", "t grid",
                         "alpha grid", "gap grid", "temperature grid"]
        assert grid_checks == ["t_grid", "n_grid", "t_grid", "alphas", "gaps", "temperatures"]


    def test_axis_keeps_the_bits_of_linspace(self):
        rng = np.random.default_rng(29)
        cases = [(0.0, 5e-324, 3), (5e-324, 1e-323, 7), (-1e-323, 1e-323, 30_000),
                 (0.0, 50.0, 30_000), (-1e308, 7e307, 5), (0.5, 12.0, 47)]
        for _ in range(20_000):
            scale = 10.0 ** rng.uniform(-320.0, 300.0)
            lo = scale * rng.uniform(-10.0, 10.0)
            hi = lo + abs(lo) * 10.0 ** rng.uniform(-17.0, 1.0) + scale * rng.uniform(0.0, 2.0)
            cases.append((lo, hi, int(rng.choice([2, 3, 4, 10, 75, 629, rng.integers(2, 3000)]))))
        # The subnormal spans take linspace's branch for a step that rounds to 0.
        assert (5e-324 - 0.0) / 2 == 0.0 and (1e-323 - 5e-324) / 6 == 0.0
        tested = 0
        for lo, hi, points in cases:
            if not (lo < hi and math.isfinite(hi - lo)):
                continue
            grid = cli._axis(lo, hi, points, "grid")
            assert grid.tobytes() == np.linspace(lo, hi, points).tobytes(), (lo, hi, points)
            tested += 1
        assert tested >= 19_000


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
    @pytest.mark.parametrize("exc, reason", [
        (MemoryError("Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
                     "and data type float64"),
         "out of memory: Unable to allocate 7.28 TiB for an array with shape "
         "(1000000000000,) and data type float64"),
        (MemoryError(), "out of memory")], ids=["numpy", "bare"])
    def test_out_of_memory_exits_2_with_one_line(self, tmp_path, spy, exc, reason):
        # As numpy's _ArrayMemoryError from a grid too large to allocate; the
        # table function raises it here, and nothing is allocated for real.
        spy(cli.sweeps, "state_series", raises=exc)
        check_cli(("bath-series", "--alpha", "0.25", "--t-max", "5", "--points", "3"),
                  tmp_path, 2, reason)

    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert "twospinboson" in out

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
