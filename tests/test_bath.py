"""Gapped Ohmic environment tests.

``bath_exponents`` on a time grid is the one evaluation path of gamma_R and
gamma_I (``bath_gamma`` reads one point of it).  Oracles: the gapless
exponents, which production evaluates in closed form, are compared with
their defining integrals evaluated by adaptive quadrature; gamma_I saturates
at 2 pi alpha and the overlap decays as t^(-4 alpha).  The gapped integrals
are cross-checked against a dense trapezoid rule, a discrete-mode sum, and
the long-time plateau evaluated two independent ways.
"""

import math
import sys

import numpy as np
import pytest

from twospinboson import quadrature
from twospinboson.bath import (
    OhmicGapSpectrum,
    bath_exponents,
    bath_gamma,
    effective_coupling,
    gamma_R_infinity,
    steady_state_stats,
)
from twospinboson.entanglement import entanglement_measures, reduced_density, validate_density
from twospinboson.quadrature import discretize_modes, spectral_density, thermal_kernel
from twospinboson.single_mode import QubitAmplitudes

UNIFORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5)
GAPLESS = OhmicGapSpectrum(alpha=0.25)
GAPPED = OhmicGapSpectrum(alpha=0.25, omega0=0.25)


class TestSpectrum:
    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError, match="alpha"):
            OhmicGapSpectrum(alpha=-0.1)
        with pytest.raises(ValueError, match="omega0"):
            OhmicGapSpectrum(alpha=0.1, omega0=-1.0)
        with pytest.raises(ValueError, match="temperature"):
            OhmicGapSpectrum(alpha=0.1, temperature=-0.5)
        for name in ("alpha", "omega0", "temperature"):
            for value in (math.nan, math.inf):
                with pytest.raises(ValueError, match=f"{name} must be finite"):
                    OhmicGapSpectrum(**{"alpha": 0.1, name: value})

    def test_rejects_overflowing_scales(self):
        # The plateau's 4 alpha must be finite; it bounds every other scale.
        with pytest.raises(ValueError, match="^4 alpha overflows at alpha"):
            OhmicGapSpectrum(alpha=1e308)
        assert OhmicGapSpectrum(alpha=0.25 * sys.float_info.max, omega0=1e300).alpha > 0.0

    def test_zero_at_and_below_gap(self):
        spec = OhmicGapSpectrum(alpha=0.3, omega0=0.5)
        assert spectral_density(spec, 0.5) == 0.0
        assert spectral_density(spec, 0.2) == 0.0
        assert spectral_density(spec, 0.0) == 0.0

    def test_peak_location_and_value(self):
        # J peaks one cutoff above the gap with value alpha * omega_c / e: at
        # omega0 = 0.5 and omega_c = 2, in units of omega_c.
        spec = OhmicGapSpectrum(alpha=0.3, omega0=0.5 / 2.0)
        peak = spectral_density(spec, spec.omega0 + 1.0)
        np.testing.assert_allclose(peak, 0.3 * 2.0 / math.e / 2.0, rtol=1e-12)
        grid = np.linspace(0.0, 30.0 / 2.0, 4001)
        assert np.max(spectral_density(spec, grid)) <= peak + 1e-12

    def test_array_input(self):
        grid = np.array([0.0, 0.25, 0.5, 1.0])
        values = spectral_density(GAPPED, grid)
        assert values.shape == grid.shape
        assert values[0] == 0.0 and values[1] == 0.0
        assert values[2] > 0.0 and values[3] > 0.0


class TestThermalKernel:
    def test_zero_temperature_is_one(self):
        assert thermal_kernel(0.7, 0.0) == 1.0

    def test_large_argument_clamps_to_one(self):
        # omega/2T = 35 > 30: the guard returns exactly 1.
        assert thermal_kernel(70.0, 1.0) == 1.0
        # At a subnormal T, omega/2T overflows to inf, with no numpy warning.
        assert thermal_kernel(1.0, 5e-324) == 1.0

    def test_small_argument_expansion(self):
        # y = 5e-9 < 1e-8: kernel = 1/y + y/3 (the y/3 term is negligible).
        y = 5e-9
        np.testing.assert_allclose(thermal_kernel(2.0 * y, 1.0), 1.0 / y,
                                   rtol=1e-12)

    def test_midrange_matches_coth(self):
        for omega in (0.1, 1.0, 10.0):
            expected = 1.0 / math.tanh(omega / 2.0)
            np.testing.assert_allclose(thermal_kernel(omega, 1.0), expected,
                                       rtol=1e-12)

    def test_rejects_negative_temperature(self):
        with pytest.raises(ValueError, match="temperature"):
            thermal_kernel(1.0, -1.0)


class TestEffectiveCoupling:
    def test_gapless_closed_form(self):
        np.testing.assert_allclose(effective_coupling(GAPLESS), 0.5, rtol=1e-8)
        # 2 alpha omega_c = 0.6 at omega_c = 3, in units of omega_c.
        spec = OhmicGapSpectrum(alpha=0.1)
        np.testing.assert_allclose(effective_coupling(spec), 0.6 / 3.0, rtol=1e-8)

    def test_zero_coupling(self):
        assert effective_coupling(OhmicGapSpectrum(alpha=0.0, omega0=0.3)) == 0.0

    def test_gapped_against_trapezoid(self):
        # Independent dense trapezoid rule for 2 * integral J/omega domega.
        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1)
        omega = np.linspace(spec.omega0, spec.omega0 + 60.0, 1_000_001)
        oracle = 2.0 * np.trapezoid(
            np.where(omega > spec.omega0,
                     spectral_density(spec, omega) / np.maximum(omega, 1e-300),
                     0.0),
            omega)
        value = effective_coupling(spec)
        np.testing.assert_allclose(value, oracle, rtol=1e-6)
        np.testing.assert_allclose(value, 0.3992678727645773, rtol=1e-9)

    def test_gap_reduces_coupling(self):
        values = [effective_coupling(OhmicGapSpectrum(alpha=0.25, omega0=g))
                  for g in (0.0, 0.1, 0.5, 2.0)]
        assert all(a > b for a, b in zip(values, values[1:]))


class TestGaplessClosedForms:
    # quadrature.bath_exponents evaluates the defining integrals.
    TIMES = (0.1, 0.5, 1.0, 3.0, 10.0)

    def test_gamma_r(self):
        gamma_rs = bath_exponents(GAPLESS, self.TIMES)[0]
        expected = [quadrature.bath_exponents(GAPLESS, t)[0] for t in self.TIMES]
        np.testing.assert_allclose(gamma_rs, expected, rtol=1e-6)

    def test_gamma_i(self):
        gamma_is = bath_exponents(GAPLESS, self.TIMES)[1]
        expected = [quadrature.bath_exponents(GAPLESS, t)[1] for t in self.TIMES]
        np.testing.assert_allclose(gamma_is, expected, rtol=1e-6)

    def test_gamma_i_saturates(self):
        # gamma_I approaches 2 pi alpha; at omega_c t = 1000 the residual
        # 4 alpha / t is 1e-3 of the limit.
        np.testing.assert_allclose(bath_exponents(GAPLESS, [1000.0])[1],
                                   2.0 * math.pi * 0.25, rtol=1e-3)

    def test_overlap_power_law(self):
        # exp(-gamma_R) ~ t^{-4 alpha}: the log-log slope over a decade of
        # late times is -1 for alpha = 1/4 to within two percent.
        times = np.geomspace(100.0, 1000.0, 9)
        gammas = bath_exponents(GAPLESS, times)[0]
        slope = np.polyfit(np.log(times), -gammas, 1)[0]
        np.testing.assert_allclose(slope, -4.0 * 0.25, rtol=0.02)

    def test_zero_time_and_zero_coupling(self):
        gamma_r, gamma_i, _ = bath_exponents(GAPLESS, [0.0, 1.0])
        assert gamma_r[0] == 0.0 and gamma_i[0] == 0.0
        for values in bath_exponents(OhmicGapSpectrum(alpha=0.0), [0.0, 5.0]):
            assert np.all(values == 0.0)

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match="nonnegative"):
            bath_exponents(GAPLESS, [1.0, -1.0])


class TestTemperature:
    def test_cold_limit_matches_zero(self):
        # T = 1e-6 engages the thermal kernel everywhere but must reproduce
        # the T = 0 integral to a few parts in 1e4.
        cold = OhmicGapSpectrum(alpha=0.25, temperature=1e-6)
        times = (0.5, 2.0, 10.0)
        np.testing.assert_allclose(bath_exponents(cold, times)[0],
                                   bath_exponents(GAPLESS, times)[0], rtol=1e-4)

    def test_heating_is_monotone(self):
        values = [bath_exponents(OhmicGapSpectrum(alpha=0.25, omega0=0.25,
                                                  temperature=temp), [5.0])[0][0]
                  for temp in (0.0, 0.5, 1.0, 2.0)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_gamma_i_ignores_temperature(self):
        hot = OhmicGapSpectrum(alpha=0.25, omega0=0.25, temperature=2.0)
        np.testing.assert_allclose(bath_exponents(hot, [3.0])[1],
                                   bath_exponents(GAPPED, [3.0])[1], rtol=1e-10)


class TestGapped:
    def test_gap_slows_decoherence(self):
        values = [bath_exponents(OhmicGapSpectrum(alpha=0.25, omega0=g), [5.0])[0][0]
                  for g in (0.01, 0.05, 0.1, 0.2)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_plateau_two_routes(self):
        # Direct integral for the infinite-time limit against the dynamical
        # value at omega_c t = 1e4.
        plateau = gamma_R_infinity(GAPPED)
        np.testing.assert_allclose(plateau, 0.6761068060392414, rtol=1e-6)
        np.testing.assert_allclose(bath_exponents(GAPPED, [1e4])[0], plateau, rtol=1e-3)
        shallower = OhmicGapSpectrum(alpha=0.25, omega0=0.1)
        np.testing.assert_allclose(gamma_R_infinity(shallower),
                                   1.2161067991792966, rtol=1e-6)

    def test_infinity_special_cases(self):
        assert gamma_R_infinity(OhmicGapSpectrum(alpha=0.0)) == 0.0
        assert math.isinf(gamma_R_infinity(GAPLESS))

    def test_discrete_modes_reproduce_integrals(self):
        # A 200-mode discretization of the continuum reproduces gamma_R
        # and gamma_I to better than 1e-3 at moderate times.
        omegas, couplings_sq = discretize_modes(GAPPED)
        assert omegas.shape == (200,) and couplings_sq.shape == (200,)
        assert np.all(omegas > GAPPED.omega0)
        assert np.all(couplings_sq >= 0.0)
        times = np.array([0.5, 2.0, 5.0, 10.0])
        gamma_rs, gamma_is, _ = bath_exponents(GAPPED, times)
        phases = omegas * times[:, None]
        g_r_sum = 4.0 * np.sum(couplings_sq / omegas**2 * (1.0 - np.cos(phases)), axis=1)
        g_i_sum = 4.0 * np.sum(couplings_sq / omegas**2 * np.sin(phases), axis=1)
        np.testing.assert_allclose(g_r_sum, gamma_rs, atol=1e-3)
        np.testing.assert_allclose(g_i_sum, gamma_is, atol=1e-3)


def bath_state(spec, t_grid, k):
    """The 4x4 state at t_grid[k]: the rows of bath_exponents and effective_coupling."""
    gamma_rs, gamma_is, _ = bath_exponents(spec, t_grid)
    return reduced_density(UNIFORM, effective_coupling(spec) * t_grid[k], gamma_rs[k],
                           gamma_is[k])


class TestBathDensity:
    def test_overlap_closed_form(self):
        # Gapless alpha = 1/4 at t = 1: gamma_R = (1/2) ln 2, so the
        # magnitude of the decohered corner coherences is 2^{-1/2} / 4.
        rho = bath_state(GAPLESS, [1.0], 0)
        assert validate_density(rho).valid
        np.testing.assert_allclose(abs(rho[0, 1]), 0.25 / math.sqrt(2.0),
                                   rtol=1e-6)

    def test_matches_manual_assembly(self):
        for k, t in enumerate((0.5, 2.0)):
            gamma_r, gamma_i, _ = bath_gamma(GAPPED, t)
            manual = reduced_density(UNIFORM, effective_coupling(GAPPED) * t, gamma_r, gamma_i)
            rho = bath_state(GAPPED, [0.5, 2.0], k)
            np.testing.assert_allclose(rho, manual, atol=1e-12)

    def test_error_estimate_is_small(self):
        _, _, error = bath_gamma(GAPPED, 3.0)
        assert 0.0 <= error < 1e-8
        _, _, hot_error = bath_gamma(OhmicGapSpectrum(alpha=0.25, omega0=0.25,
                                                      temperature=0.5), 3.0)
        assert 0.0 <= hot_error < 1e-8

    def test_entropy_grows_then_entanglement_dies(self):
        # Gapless bath: by omega_c t = 100 the corner coherences are gone
        # and the uniform state has decohered to entropy near 1.5 bits.
        rho = bath_state(GAPLESS, [100.0], 0)
        assert entanglement_measures(rho)[0] < 0.05
        np.testing.assert_allclose(entanglement_measures(rho)[1], 1.5, atol=0.05)


class TestSteadyState:
    def test_gapless_has_no_steady_state(self):
        assert steady_state_stats(GAPLESS, UNIFORM) is None

    def test_uncoupled_stays_pure(self):
        g_inf, c_max, entropy = steady_state_stats(OhmicGapSpectrum(alpha=0.0), UNIFORM)
        assert g_inf == 0.0
        np.testing.assert_allclose(c_max, 1.0, atol=1e-9)
        assert entropy <= 1e-9

    def test_gapped_residual_entanglement(self):
        g_inf, c_max, s_steady = steady_state_stats(GAPPED, UNIFORM)
        np.testing.assert_allclose(g_inf, gamma_R_infinity(GAPPED), rtol=1e-12)
        assert 0.0 < c_max < 1.0
        assert 0.0 < s_steady < 2.0
        # The 4x4 kernel on the same phase grid: S is phase independent and
        # equal to the structured figure, and the scan's maximum is its maximum.
        theta_ts = np.linspace(0.0, 0.5 * math.pi, 2048, endpoint=False)
        conc, entropy = entanglement_measures(reduced_density(UNIFORM, theta_ts, g_inf, 0.0))
        assert np.ptp(entropy) < 1e-6
        np.testing.assert_allclose(entropy, s_steady, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(c_max, np.max(conc), rtol=0.0, atol=1e-12)

    def test_deeper_gap_keeps_more_entanglement(self):
        shallow_g, shallow_c, _ = steady_state_stats(
            OhmicGapSpectrum(alpha=0.25, omega0=0.1), UNIFORM)
        deep_g, deep_c, _ = steady_state_stats(
            OhmicGapSpectrum(alpha=0.25, omega0=0.5), UNIFORM)
        assert deep_g < shallow_g
        assert deep_c > shallow_c

