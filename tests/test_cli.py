"""End-to-end command-line tests: exit codes, CSV output, determinism."""

import math
import subprocess
import sys
import warnings

import numpy as np

from twospinboson import bath, csvio
from twospinboson.cli import main
from twospinboson.quadrature import QuadratureError


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

    def test_rejects_zero_state(self, capsys):
        code, _, err = run_cli(capsys, "single-mode", "--omega-over-lambda", "4",
                               "--amplitudes", "0,0,0,0")
        assert code == 2

    def test_missing_required_argument(self, capsys):
        code, _, _ = run_cli(capsys, "single-mode")
        assert code == 2

    def test_rejects_nonfinite_parameters(self, capsys):
        for extra, reason in ((("--omega-over-lambda", "inf"), "omega must be positive and finite"),
                              (("--omega-over-lambda", "4", "--theta-t-max", "inf"),
                               "theta-t-max must be positive and finite"),
                              (("--omega-over-lambda", "4", "--theta-t-max", "nan"),
                               "theta-t-max must be positive and finite")):
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

    def test_rejects_small_n(self, capsys):
        code, _, err = run_cli(capsys, "period-stats", "--n-min", "0.1")
        assert code == 2
        assert "n_min" in err


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
            "t-max must be positive and finite")

    def test_numerical_failure_exits_3(self, capsys, monkeypatch):
        # Gapped T > 0 is the path that still integrates numerically.
        def fail(*args, **kwargs):
            raise QuadratureError(1e-3, 1e-10, 4096)

        monkeypatch.setattr(bath, "integrate_decaying", fail)
        code, out, err = run_cli(capsys, "bath-series", "--alpha", "0.25", "--gap", "0.1",
                                 "--temperature", "0.5", "--t-max", "5", "--points", "3")
        assert code == 3 and out == ""
        assert err.startswith("error: quadrature did not converge")
        assert len(err.splitlines()) == 1


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

    def test_rejects_reversed_axis(self, capsys):
        code, _, err = run_cli(capsys, "steady-sweep",
                               "--alpha-grid", "1:0.05:8")
        assert code == 2
        assert "min < max" in err


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

    def test_verify_runs_all_suites(self, capsys):
        code, out, _ = run_cli(capsys, "verify")
        assert code == 0
        assert "== state-algebra ==" in out
        assert "FAIL" not in out


class TestTopLevel:
    def test_version_flag(self, capsys):
        code, out, _ = run_cli(capsys, "--version")
        assert code == 0
        assert "twospinboson" in out

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "no-such-command")
        assert code == 2

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "twospinboson.cli", "single-mode",
             "--omega-over-lambda", "4", "--points", "5"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("# tool: twospinboson")
