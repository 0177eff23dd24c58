"""Sweep-table tests: shapes, physics trends, sentinels and determinism."""

import math
import sys
import tracemalloc

import numpy as np
import pytest

from twospinboson.bath import (OhmicGapSpectrum, bath_exponents, effective_coupling,
                               gamma_R_infinity, steady_state_stats)
from twospinboson import bath, single_mode, sweeps
from twospinboson.single_mode import (InvalidDensityMatrixError, QubitAmplitudes,
                                      SingleModeParams, time_series)
from twospinboson.sweeps import (
    NO_STEADY_STATE,
    commensurability_table,
    state_series,
    steady_state_table,
    steady_sweep_tables,
    thermal_overlap_table,
)

UNIFORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5)


_OVERFLOW = AssertionError("evaluated an overflowing grid")


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

    def test_rejects_overflowing_omega_t(self, spy):
        # n = 1e308: omega = 4 sqrt(n) and t = (pi/2) / theta reach omega t ~ 2e308.
        spy(sweeps, "_gammas", raises=_OVERFLOW)
        with pytest.raises(ValueError, match=r"^omega t = 4e\+154 \* .* overflows$"):
            commensurability_table([1e308], UNIFORM, 100)

    def test_rejects_small_sample_count(self):
        with pytest.raises(ValueError, match="samples_per_period"):
            commensurability_table([0.25], UNIFORM, samples_per_period=50)

    def test_rejects_a_non_integer_sample_count(self, spy):
        spy(sweeps, "_gammas", raises=_OVERFLOW)
        for bad, shown in ((100.5, "100.5"), ("200", "'200'"), (None, "None")):
            with pytest.raises(ValueError) as err:
                commensurability_table([1.0], UNIFORM, bad)
            assert str(err.value) == f"samples_per_period must be an integer, got {shown}"

    def test_takes_any_integer_sample_count(self):
        first = commensurability_table([1.0, 2.25], UNIFORM, 100)
        second = commensurability_table([1.0, 2.25], UNIFORM, np.int64(100))
        assert all(first[name].tobytes() == second[name].tobytes() for name in first)

    def test_refuses_the_first_overflowing_n(self, spy):
        # omega t at n = 1e307 is 1.25e308, still finite; at n = 1.7e308 it is not.
        spy(sweeps, "_gammas", raises=_OVERFLOW)
        with pytest.raises(ValueError) as err:
            commensurability_table([1.0, 1e307, 1.7e308], UNIFORM, 100)
        assert str(err.value) == "omega t = 5.21536e+154 * 4.09614e+154 overflows"

    def test_memory_stays_within_a_group(self):
        # The period-stats grid at --n-points 470: 470 * 2001 rows in groups
        # of eight n (about four _BLOCK-row blocks).  Beyond the six columns,
        # the temporaries cost a fixed multiple of one _BLOCK-row float array,
        # not of the grid (about 60 such arrays; as one call over every n,
        # about 1,380).
        n_grid, multiple = np.linspace(0.5, 12.0, 470), 128
        commensurability_table(n_grid[:2], UNIFORM)
        tracemalloc.start()
        try:
            commensurability_table(n_grid, UNIFORM)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * n_grid.size * 8 + multiple * single_mode._BLOCK * 8

    def test_refusal_names_the_row_of_the_whole_grid(self, monkeypatch):
        # 101 rows per n, groups of 162 n: sample 7 of n number 200 (row 38 of
        # the second group's call) is row 200 * 101 + 7 of the whole grid.
        gammas, calls = sweeps._gammas, []

        def nan_in_the_201st_n(*args):
            gamma_rs, gamma_is = gammas(*args)
            calls.append(gamma_rs.shape)
            if len(calls) == 2:
                gamma_rs[38, 7] = math.nan
            return gamma_rs, gamma_is

        monkeypatch.setattr(sweeps, "_gammas", nan_in_the_201st_n)
        with pytest.raises(InvalidDensityMatrixError) as err:
            commensurability_table(np.linspace(1.0, 3.0, 400), UNIFORM, 100)
        assert err.value.index == 200 * 101 + 7
        assert math.isnan(err.value.check.min_eigenvalue)
        assert calls == [(162, 101), (162, 101)]


class TestGrids:
    def test_every_table_checks_its_grids_with_the_one_validator(self, grid_checks):
        t = [0.0, 1.0]
        time_series(SingleModeParams(4.0), UNIFORM, t)
        state_series(OhmicGapSpectrum(alpha=0.25, omega0=0.1), UNIFORM, t)
        commensurability_table([1.0, 2.0], UNIFORM, samples_per_period=100)
        steady_state_table([0.25], [0.1], UNIFORM)
        thermal_overlap_table([0.0], [0.1])
        # Each view is steady_sweep_tables with a one-point grid for the
        # other table, so both check alphas, gaps, then temperatures.
        assert grid_checks == ["t_grid", "t_grid", "n_grid",
                               "alphas", "gaps", "temperatures",
                               "alphas", "gaps", "temperatures"]

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

    def test_rejects_an_overflowing_grid_before_evaluation(self, spy):
        spy(bath, "_bose_grids", raises=AssertionError("the series was evaluated"))
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
        from twospinboson.entanglement import entanglement_measures, reduced_density

        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1)
        table = state_series(spec, UNIFORM, np.array([0.7, 3.0]))
        for k, t in enumerate((0.7, 3.0)):
            gamma_r, gamma_i, _ = bath_exponents(spec, [t])
            rho = reduced_density(UNIFORM, effective_coupling(spec) * t, gamma_r[0], gamma_i[0])
            np.testing.assert_allclose(table["concurrence"][k],
                                       entanglement_measures(rho)[0], atol=1e-10)
            np.testing.assert_allclose(table["entropy"][k],
                                       entanglement_measures(rho)[1], atol=1e-10)


class TestSteadyStateTable:
    def test_sentinel_for_gapless_rows(self):
        table = steady_state_table(alphas=np.array([0.25, 0.5]),
                                   gaps=np.array([0.0, 0.1]), psi0=UNIFORM)
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
                                   gaps=np.array([0.2]), psi0=UNIFORM)
        assert table["c_max_steady"][0] > table["c_max_steady"][1]
        assert table["s_steady"][0] < table["s_steady"][1]

    def test_deterministic(self):
        kwargs = dict(alphas=np.array([0.3]), gaps=np.array([0.0, 0.3]), psi0=UNIFORM)
        first = steady_state_table(**kwargs)
        second = steady_state_table(**kwargs)
        for key in first:
            assert np.array_equal(first[key], second[key])

    def test_cells_equal_steady_state_stats(self):
        # The batched plateaus give each cell exactly the single-spectrum
        # figures: 4.0 * alpha * S(gap) from one series per gap, with the
        # alpha = 0 row (0) and the gapless column (inf) set, not multiplied.
        alphas, gaps = np.array([0.0, 0.25, 0.5]), np.array([0.0, 1e-3, 0.1])
        psi = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j)
        for temperature in (0.0, 0.5):
            table = steady_state_table(alphas, gaps, psi, temperature=temperature)
            (plateaus,) = bath._bose_grids([(alphas, gaps, np.full(gaps.size, temperature))])[0]
            plateaus = plateaus.ravel()
            k = 0
            for gap in gaps:
                for alpha in alphas:
                    spec = OhmicGapSpectrum(alpha=alpha, omega0=gap, temperature=temperature)
                    assert plateaus[k].tobytes() == np.float64(gamma_R_infinity(spec)).tobytes()
                    stats = steady_state_stats(spec, psi)
                    if stats is None:
                        assert table["has_steady_state"][k] == 0.0
                    else:
                        _, c_max, entropy = stats
                        assert table["c_max_steady"][k].tobytes() == np.float64(c_max).tobytes()
                        assert table["s_steady"][k].tobytes() == np.float64(entropy).tobytes()
                    k += 1

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError, match="increasing"):
            steady_state_table(alphas=np.array([0.5, 0.1]),
                               gaps=np.array([0.1]), psi0=UNIFORM)

    def test_one_series_per_gap(self, spy):
        # At fixed temperature a cell's plateau is 4 alpha S(gap): 128 x 128
        # cells, one gapless column, 127 series.
        rows = {name: spy(bath, name, record=lambda x0, *args: x0.size)
                for name in ("_bose_plan", "_bose_sums")}
        table = steady_state_table(np.linspace(0.05, 1.0, 128), np.linspace(0.0, 0.5, 128),
                                   UNIFORM)
        assert rows == {"_bose_plan": [127], "_bose_sums": [127]}
        assert table["alpha"].size == 128 * 128

    def test_refusal_names_the_first_failing_cell(self):
        huge = sys.float_info.max
        for kwargs, reason in (
                (dict(alphas=[0.1, 1e308, 1.5e308], gaps=[0.2, 0.3], temperature=0.5),
                 "4 alpha overflows at alpha 1e+308, omega0 0.2, temperature 0.5"),
                (dict(alphas=[1e308], gaps=[0.0], temperature=0.0),
                 "4 alpha overflows at alpha 1e+308, omega0 0, temperature 0"),
                (dict(alphas=[0.1, 1e308], gaps=[0.2], temperature=-1.0),
                 "temperature must be nonnegative, got -1.0"),
                (dict(alphas=[0.1, 1e308], gaps=[0.2], temperature=math.nan),
                 "temperature must be finite, got nan")):
            with pytest.raises(ValueError) as excinfo:
                steady_state_table(psi0=UNIFORM, **kwargs)
            assert str(excinfo.value) == reason
        # 4 alpha is the largest float itself at alpha = max/4.
        table = steady_state_table([0.0, 0.25 * huge], [1e300], UNIFORM)
        assert table["has_steady_state"].tolist() == [1.0, 1.0]


@pytest.mark.parametrize("points", [2, 16])
def test_a_table_builds_at_most_one_spectrum(spy, points):
    # One spectrum checks each table's arguments, whatever the cell count.
    built = spy(OhmicGapSpectrum, "__post_init__")
    steady_sweep_tables(np.linspace(0.0, 1.0, points), np.linspace(0.0, 0.5, points),
                        np.linspace(0.0, 2.0, points), UNIFORM, temperature=0.5)
    assert len(built) <= 2


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

    def test_refusal_names_the_first_cell(self):
        with pytest.raises(ValueError) as excinfo:
            thermal_overlap_table([0.5, 1.0], [0.2, 0.3], alpha=1e308)
        assert str(excinfo.value) == "4 alpha overflows at alpha 1e+308, omega0 0.2, temperature 0.5"
        with pytest.raises(ValueError, match="^alpha must be nonnegative, got -0.1$"):
            thermal_overlap_table([0.5, 1.0], [0.2, 0.3], alpha=-0.1)

    def test_cells_equal_gamma_r_infinity(self):
        temperatures, gaps = np.array([0.0, 1e-3, 0.5, 2.0]), np.array([0.0, 1e-3, 0.1, 2.0])
        table = thermal_overlap_table(temperatures, gaps)
        k = 0
        for gap in gaps:
            for temperature in temperatures:
                g = gamma_R_infinity(OhmicGapSpectrum(alpha=0.25, omega0=gap,
                                                      temperature=temperature))
                expected = NO_STEADY_STATE if math.isinf(g) else math.exp(-g)
                assert table["overlap_infinity"][k].tobytes() == np.float64(expected).tobytes()
                k += 1


class TestSteadySweepTables:
    """Both steady-sweep tables from one Bose-series pass."""

    @pytest.mark.parametrize("alphas, gaps, temperatures, temperature", [
        ((0.05, 1.0, 3), (0.0, 0.5, 10), (0.0, 2.0, 9), 0.0),
        ((0.05, 1.0, 32), (0.0, 0.5, 32), (0.0, 2.0, 33), 0.0),
        ((0.05, 1.0, 32), (0.0, 0.5, 32), (0.0, 2.0, 33), 0.5),
        ((0.0, 0.1, 2), (0.0, 0.1, 2), (0.0, 1.0, 2), 0.0),
        ((0.05, 1.0, 32), (1e-3, 0.5, 2), (0.0, 2.0, 2), 2.0),
        ((0.25, 0.75, 3), (1e-5, 1.1e-5, 2), (0.0, 2.0, 2), 2.0),
    ], ids=["benchmark", "defaults", "defaults-T0.5", "alpha-0", "gap-1e-3-T2", "gap-1e-5-T2"])
    def test_tables_are_those_of_each_table_alone(self, alphas, gaps, temperatures, temperature):
        alphas, gaps, temperatures = (np.linspace(*axis) for axis in (alphas, gaps, temperatures))
        psi = QubitAmplitudes.normalized(0.3 + 0.1j, -0.5, 0.2j, 0.7)
        entanglement, thermal = steady_sweep_tables(alphas, gaps, temperatures, psi,
                                                    temperature=temperature)
        for table, alone in (
                (entanglement, steady_state_table(alphas, gaps, psi, temperature=temperature)),
                (thermal, thermal_overlap_table(temperatures, gaps))):
            assert list(table) == list(alone)
            for name in table:
                assert table[name].tobytes() == alone[name].tobytes(), name

    def test_uncoupled_table_adds_no_series(self):
        # At T 1e10 and gap 1e-300 no route certifies the series, but alpha = 0
        # needs none: the row is that of steady_state_table alone.
        entanglement, thermal = steady_sweep_tables([0.0], [1e-300], [0.0, 2.0], UNIFORM,
                                                    temperature=1e10)
        assert {name: column.tolist() for name, column in entanglement.items()} == {
            "alpha": [0.0], "omega0": [1e-300], "has_steady_state": [1.0],
            "c_max_steady": [1.0], "s_steady": [0.0]}
        alone = thermal_overlap_table([0.0, 2.0], [1e-300])
        assert thermal["overlap_infinity"].tobytes() == alone["overlap_infinity"].tobytes()
        _, thermal = steady_sweep_tables([0.25, 0.5], [1e-300, 1e-299], [0.0, 1e10], UNIFORM,
                                         thermal_alpha=0.0)
        assert thermal["overlap_infinity"].tolist() == [1.0] * 4

    @pytest.mark.parametrize("psi, error", [
        (QubitAmplitudes(1.0, 1.0, 1.0, 1.0), ValueError), ("x", TypeError)])
    def test_checks_the_amplitudes_before_the_pass(self, spy, psi, error):
        # At T 1e10 and gap 1e-300 no route certifies the series; the
        # amplitudes are refused before any series is planned.
        spy(bath, "_bose_grids", raises=_OVERFLOW)
        spec = OhmicGapSpectrum(alpha=0.25, omega0=1e-300, temperature=1e10)
        for call in (
                lambda: steady_sweep_tables([0.25], [1e-300], [0.0, 1.0], psi, temperature=1e10),
                lambda: steady_state_table([0.25], [1e-300], psi, temperature=1e10),
                lambda: steady_state_stats(spec, psi)):
            with pytest.raises(error, match="^amplitudes "):
                call()

    def test_checks_both_tables_before_the_pass(self, spy):
        # The entanglement series at T 1e10 and gap 1e-300 would be refused;
        # the thermal table's negative alpha is refused first.
        spy(bath, "_bose_grids", raises=_OVERFLOW)
        with pytest.raises(ValueError, match="^alpha must be nonnegative, got -1.0$"):
            steady_sweep_tables([0.25], [1e-300], [0.0, 1.0], UNIFORM, temperature=1e10,
                                thermal_alpha=-1.0)
