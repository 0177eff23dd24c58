"""Sweep-table tests: shapes, physics trends, sentinels and determinism."""

import math

import numpy as np
import pytest

from twospinboson.bath import OhmicGapSpectrum, gamma_R_infinity, steady_state_stats
from twospinboson import sweeps
from twospinboson.entanglement import QubitAmplitudes
from twospinboson.single_mode import SingleModeParams, time_series
from twospinboson.sweeps import (
    NO_STEADY_STATE,
    commensurability_table,
    state_series,
    steady_state_table,
    thermal_overlap_table,
)

UNIFORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5)


def _refuse(*args, **kwargs):
    raise AssertionError("evaluated an overflowing grid")


class TestCommensurabilityTable:
    def test_integer_n_recovers_full_entanglement(self):
        table = commensurability_table(np.linspace(1.0, 4.0, 13), UNIFORM,
                                       samples_per_period=2000)
        np.testing.assert_allclose(table["omega_over_lambda"],
                                   4.0 * np.sqrt(table["n"]), rtol=1e-12)
        for n_int in (1.0, 2.0, 3.0, 4.0):
            idx = int(np.argmin(np.abs(table["n"] - n_int)))
            np.testing.assert_allclose(table["c_max"][idx], 1.0, atol=1e-6)

    def test_between_integers_dips(self):
        table = commensurability_table(np.linspace(1.0, 2.0, 5), UNIFORM, samples_per_period=1000)
        # n = 1.25 sits between revivals; its peak concurrence is lower.
        assert table["c_max"][1] < table["c_max"][0] - 1e-3
        assert np.all(table["c_max"] <= 1.0 + 1e-12)

    def test_residual_entropy_shrinks_with_n(self):
        # Larger n means weaker relative coupling, hence less mixing at the
        # concurrence maxima and smaller average entropy.
        table = commensurability_table(np.linspace(1.0, 9.0, 3), UNIFORM, samples_per_period=1000)
        assert table["s_avg"][2] < table["s_avg"][0]

    def test_all_columns_same_length(self):
        table = commensurability_table(np.linspace(0.5, 2.0, 4), UNIFORM, samples_per_period=200)
        lengths = {len(col) for col in table.values()}
        assert lengths == {4}

    def test_deterministic(self):
        kwargs = dict(n_grid=np.linspace(1.0, 3.0, 3), psi0=UNIFORM, samples_per_period=400)
        first = commensurability_table(**kwargs)
        second = commensurability_table(**kwargs)
        for key in first:
            assert np.array_equal(first[key], second[key])

    def test_rejects_bad_ranges(self):
        with pytest.raises(ValueError, match=r"^n_grid entries must be at least 0\.25, got 0\.1$"):
            commensurability_table(np.linspace(0.1, 12.0, 47), UNIFORM)
        with pytest.raises(ValueError, match="^n_grid must be a nonempty 1-D array$"):
            commensurability_table([], UNIFORM)
        with pytest.raises(ValueError, match="^n_grid must be strictly increasing$"):
            commensurability_table([2.0, 2.0], UNIFORM)

    def test_commensurate_unit_maximum(self):
        table = commensurability_table([1.0], UNIFORM, samples_per_period=2000)
        np.testing.assert_allclose(table["c_max"][0], 1.0, atol=1e-6)

    def test_incommensurate_stays_below_one(self):
        # Frozen regression: omega/lambda = 6 (n = 2.25) peaks near 0.98481,
        # strictly below the commensurate maximum.
        table = commensurability_table([2.25], UNIFORM, samples_per_period=2000)
        assert table["c_max"][0] < 0.99
        np.testing.assert_allclose(table["c_max"][0], 0.9848074809516266, rtol=1e-6)

    def test_averages_bounded_by_maxima(self):
        table = commensurability_table([1.5625], UNIFORM, samples_per_period=500)
        assert 0.0 < table["c_avg"][0] < table["c_max"][0] <= 1.0
        assert 0.0 < table["s_avg"][0] < table["s_max"][0] <= 2.0

    def test_rejects_overflowing_omega_t(self, monkeypatch):
        # n = 1e308: omega = 4 sqrt(n) and t = (pi/2) / theta reach omega t ~ 2e308.
        monkeypatch.setattr(sweeps, "_gammas", _refuse)
        with pytest.raises(ValueError, match=r"^omega t = 4e\+154 \* .* overflows$"):
            commensurability_table([1e308], UNIFORM, 100)

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError, match="samples_per_period"):
            commensurability_table([0.25], UNIFORM, samples_per_period=50)


class TestGrids:
    def test_every_table_checks_its_grids_with_the_one_validator(self, grid_checks):
        t = [0.0, 1.0]
        time_series(SingleModeParams(4.0), UNIFORM, t)
        state_series(OhmicGapSpectrum(alpha=0.25, omega0=0.1), UNIFORM, t)
        commensurability_table([1.0, 2.0], UNIFORM, samples_per_period=100)
        steady_state_table([0.25], [0.1], UNIFORM, phase_points=16)
        thermal_overlap_table([0.0], [0.1])
        assert grid_checks == ["t_grid", "t_grid", "n_grid",
                               "alphas", "gaps", "temperatures", "gaps"]

    @pytest.mark.parametrize("name, call", [
        ("t_grid", lambda grid: state_series(OhmicGapSpectrum(alpha=0.25), UNIFORM, grid)),
        ("n_grid", lambda grid: commensurability_table(grid, UNIFORM)),
        ("alphas", lambda grid: steady_state_table(grid, [0.1], UNIFORM)),
        ("gaps", lambda grid: steady_state_table([0.25], grid, UNIFORM)),
        ("temperatures", lambda grid: thermal_overlap_table(grid, [0.1])),
        ("gaps", lambda grid: thermal_overlap_table([0.0], grid)),
    ])
    def test_every_table_refuses_a_nonfinite_grid(self, name, call):
        with pytest.raises(ValueError, match=f"^{name} entries must be finite$"):
            call([0.5, math.inf])


class TestStateSeries:
    def test_columns_and_scaling(self):
        spec = OhmicGapSpectrum(alpha=0.25)
        t_grid = np.linspace(0.1, 20.0, 25)
        table = state_series(spec, UNIFORM, t_grid)
        assert set(table) == {"t", "theta_t", "concurrence", "entropy",
                              "entropy_scaled", "overlap"}
        np.testing.assert_allclose(table["entropy_scaled"],
                                   2.0 * table["entropy"] / 3.0, rtol=1e-12)
        assert np.all(table["concurrence"] >= 0.0)
        assert np.all(table["overlap"] <= 1.0)

    def test_uniform_state_saturates(self):
        # Fully decohered uniform state: S -> 3/2 bits so 2S/3 -> 1.
        spec = OhmicGapSpectrum(alpha=0.5)
        table = state_series(spec, UNIFORM, np.array([200.0]))
        np.testing.assert_allclose(table["entropy_scaled"][0], 1.0, atol=0.01)
        assert table["concurrence"][0] < 0.01

    def test_gap_preserves_coherence(self):
        # At late times the gapped overlap sits at its plateau while the
        # gapless one keeps falling.
        t_grid = np.array([200.0, 400.0])
        gapless = state_series(OhmicGapSpectrum(alpha=0.25), UNIFORM, t_grid)["overlap"]
        gapped = state_series(OhmicGapSpectrum(alpha=0.25, omega0=0.1), UNIFORM,
                              t_grid)["overlap"]
        assert np.all(gapped > gapless)
        plateau = math.exp(-gamma_R_infinity(OhmicGapSpectrum(alpha=0.25,
                                                              omega0=0.1)))
        np.testing.assert_allclose(gapped[-1], plateau, rtol=1e-2)

    def test_rejects_an_overflowing_grid_before_evaluation(self, monkeypatch):
        from twospinboson import sweeps

        def fail(*args, **kwargs):
            raise AssertionError("the series was evaluated")

        monkeypatch.setattr(sweeps, "bath_exponents", fail)
        # x0 s = omega0 t and the induced phase 2 theta t, at the last grid time.
        for spec, t_max, reason in (
                (OhmicGapSpectrum(alpha=0.25, omega0=1e200), 1e200,
                 "omega0 t (x0 s) = 1e+200 * 1e+200 overflows"),
                (OhmicGapSpectrum(alpha=0.25, omega0=1e190), 1e200,
                 "omega0 t (x0 s) = 1e+190 * 1e+200 overflows"),
                (OhmicGapSpectrum(alpha=4e307), 5.0, "2 theta t = 1.6e+308 * 5 overflows")):
            with pytest.raises(ValueError) as err:
                state_series(spec, UNIFORM, np.array([0.0, t_max]))
            assert str(err.value) == reason

    def test_matches_single_point_evaluation(self):
        from twospinboson.bath import bath_reduced_density
        from twospinboson.entanglement import concurrence, von_neumann_entropy

        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1)
        table = state_series(spec, UNIFORM, np.array([0.7, 3.0]))
        for k, t in enumerate((0.7, 3.0)):
            rho = bath_reduced_density(spec, UNIFORM, t)
            np.testing.assert_allclose(table["concurrence"][k],
                                       concurrence(rho), atol=1e-10)
            np.testing.assert_allclose(table["entropy"][k],
                                       von_neumann_entropy(rho), atol=1e-10)


class TestSteadyStateTable:
    def test_sentinel_for_gapless_rows(self):
        table = steady_state_table(alphas=np.array([0.25, 0.5]),
                                   gaps=np.array([0.0, 0.1]), psi0=UNIFORM,
                                   phase_points=256)
        assert len(table["alpha"]) == 4
        # alpha varies fastest; the first two rows are the gapless ones.
        np.testing.assert_allclose(table["omega0"][:2], 0.0)
        np.testing.assert_allclose(table["has_steady_state"][:2], 0.0)
        np.testing.assert_allclose(table["c_max_steady"][:2], NO_STEADY_STATE)
        np.testing.assert_allclose(table["s_steady"][:2], NO_STEADY_STATE)
        assert np.all(table["has_steady_state"][2:] == 1.0)
        assert np.all(table["c_max_steady"][2:] >= 0.0)

    def test_weaker_coupling_retains_more(self):
        table = steady_state_table(alphas=np.array([0.1, 0.8]),
                                   gaps=np.array([0.2]), psi0=UNIFORM,
                                   phase_points=256)
        assert table["c_max_steady"][0] > table["c_max_steady"][1]
        assert table["s_steady"][0] < table["s_steady"][1]

    def test_deterministic(self):
        kwargs = dict(alphas=np.array([0.3]), gaps=np.array([0.0, 0.3]), psi0=UNIFORM,
                      phase_points=128)
        first = steady_state_table(**kwargs)
        second = steady_state_table(**kwargs)
        for key in first:
            assert np.array_equal(first[key], second[key])

    def test_cells_equal_steady_state_stats(self):
        # The batched plateaus give each cell exactly the single-spectrum figures.
        alphas, gaps = np.array([0.25, 0.5]), np.array([0.0, 1e-3, 0.1])
        table = steady_state_table(alphas, gaps, UNIFORM, temperature=0.5, phase_points=64)
        k = 0
        for gap in gaps:
            for alpha in alphas:
                stats = steady_state_stats(OhmicGapSpectrum(alpha=alpha, omega0=gap,
                                                            temperature=0.5), UNIFORM, 64)
                if stats is None:
                    assert table["has_steady_state"][k] == 0.0
                else:
                    _, c_max, entropy = stats
                    assert table["c_max_steady"][k] == c_max
                    assert table["s_steady"][k] == entropy
                k += 1

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            steady_state_table(alphas=np.array([0.5, 0.1]),
                               gaps=np.array([0.1]), psi0=UNIFORM)


class TestThermalOverlapTable:
    def test_temperature_suppresses_plateau(self):
        table = thermal_overlap_table(temperatures=np.array([0.0, 1.0, 2.0]),
                                      gaps=np.array([0.25]))
        col = table["overlap_infinity"]
        assert np.all(col > 0.0)
        assert col[0] > col[1] > col[2]

    def test_gapless_sentinel(self):
        table = thermal_overlap_table(temperatures=np.array([0.0, 1.0]),
                                      gaps=np.array([0.0, 0.25]))
        assert np.all(table["has_steady_state"][:2] == 0.0)
        np.testing.assert_allclose(table["overlap_infinity"][:2],
                                   NO_STEADY_STATE)
        assert np.all(table["has_steady_state"][2:] == 1.0)

    def test_zero_temperature_matches_direct_integral(self):
        table = thermal_overlap_table(temperatures=np.array([0.0]),
                                      gaps=np.array([0.25]))
        expected = math.exp(-gamma_R_infinity(OhmicGapSpectrum(alpha=0.25,
                                                               omega0=0.25)))
        np.testing.assert_allclose(table["overlap_infinity"][0], expected,
                                   rtol=1e-9)
