"""Closed-form bath exponents against independent references.

Oracles: 30-digit mpmath for the E1 and ln Gamma helpers, and the defining
integrals evaluated by the adaptive quadrature that the gapped T > 0 path
keeps, run at a tolerance of 1e-13.
"""

import math

import numpy as np
import pytest

from twospinboson import bath
from twospinboson.bath import (
    OhmicGapSpectrum,
    bath_exponents,
    effective_coupling,
    gamma_R_infinity,
)
from twospinboson.quadrature import integrate_decaying

mpmath = pytest.importorskip("mpmath")

ALPHAS = (0.25, 0.5)
# Every (gap, temperature) branch; gapped T > 0 is the quadrature itself.
BRANCHES = ((0.0, 0.0), (0.0, 0.5), (0.0, 2.0), (0.01, 0.0), (0.1, 0.0), (0.5, 0.0))
TIMES = np.array([0.0, 1e-3, 1.0, 100.0, 1000.0])


def _mp_rel_error(got, ref, floor=0.0):
    return abs(mpmath.mpc(got) - ref) / max(abs(ref), floor)


class TestSpecialFunctions:
    def test_exp_e1_against_mpmath(self):
        # z = x0 (1 - i s) as the gapped closed form uses it, plus points on
        # both sides of the |z| = 1 switch from power series to continued fraction.
        x0 = np.geomspace(1e-6, 20.0, 25)[:, None]
        s = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 26)])[None, :]
        phases = np.linspace(-1.5, 1.5, 13)
        switch = np.concatenate([(1.0 - 1e-12) * np.exp(1j * phases),
                                 (1.0 + 1e-12) * np.exp(1j * phases)])
        z = np.concatenate([(x0 * (1.0 - 1j * s)).ravel(), switch])
        got = bath._exp_e1(z)
        with mpmath.workdps(30):
            worst = max(_mp_rel_error(g, mpmath.exp(mpmath.mpc(zk)) * mpmath.e1(mpmath.mpc(zk)))
                        for zk, g in zip(z, got))
        assert worst <= 1e-13

    def test_re_lngamma_against_mpmath(self):
        # z = 1 + tau + i tau s as the gapless thermal closed form uses it,
        # plus points around the |z| = 10 switch from recurrence to Stirling.
        # Re ln Gamma vanishes at z = 1 and 2, so the relative error has a
        # floor of 1 there; the closed form only uses differences of it.
        tau = np.array([1e-6, 1e-3, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0])[:, None]
        s = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 20)])[None, :]
        switch = np.array([1.0 + 1j * math.sqrt(99.9999), 1.0 + 1j * math.sqrt(99.0001),
                           9.9999999, 10.0, 10.0000001, 6.0 + 8.0j])
        z = np.concatenate([(1.0 + tau + 1j * tau * s).ravel(), switch])
        got = bath._re_lngamma(z)
        with mpmath.workdps(30):
            worst = max(_mp_rel_error(g, mpmath.re(mpmath.loggamma(mpmath.mpc(zk))), floor=1.0)
                        for zk, g in zip(z, got))
        assert worst <= 1e-13


class TestClosedFormsAgainstQuadrature:
    @pytest.mark.parametrize("gap,temperature", BRANCHES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_branch(self, alpha, gap, temperature):
        # Absolute 1e-12, plus 1e-15 relative: float64 cannot hold a gamma_R
        # of 1.25e4 (gapless, T = 2, t = 1000) to 1e-12, its spacing is 1.8e-12.
        spec = OhmicGapSpectrum(alpha=alpha, omega0=gap, temperature=temperature)
        gamma_r, gamma_i, error = bath_exponents(spec, TIMES)
        for k, t in enumerate(TIMES[1:], start=1):
            ref_r, ref_i, ref_err = bath._quadrature_exponents(spec, float(t), abs_tol=1e-13)
            np.testing.assert_allclose(gamma_r[k], ref_r, rtol=1e-15, atol=1e-12)
            np.testing.assert_allclose(gamma_i[k], ref_i, rtol=1e-15, atol=1e-12)
            # The reported estimate covers the actual deviation.
            assert abs(gamma_r[k] - ref_r) + abs(gamma_i[k] - ref_i) <= error[k] + ref_err

    @pytest.mark.parametrize("gap", (0.01, 0.1, 0.5, 3.0))
    def test_plateau_and_coupling(self, gap):
        spec = OhmicGapSpectrum(alpha=0.25, omega0=gap)
        # coth(omega/2T) is exactly 1 for omega/2T > 30, so this T takes the
        # quadrature path of gamma_R(inf) with the T = 0 integrand.
        cold = OhmicGapSpectrum(alpha=0.25, omega0=gap, temperature=gap / 100.0)
        np.testing.assert_allclose(gamma_R_infinity(spec), gamma_R_infinity(cold),
                                   rtol=0.0, atol=1e-12)
        value, _ = integrate_decaying(lambda u: u * np.exp(-u) / (gap + u), upper=bath.X_MAX,
                                      abs_tol=1e-14)
        np.testing.assert_allclose(effective_coupling(spec), 0.5 * value, rtol=0.0, atol=1e-12)


class TestBathExponents:
    @pytest.mark.parametrize("gap,temperature", BRANCHES + ((0.1, 0.5),))
    def test_zero_time_is_exactly_zero(self, gap, temperature):
        spec = OhmicGapSpectrum(alpha=0.25, omega0=gap, temperature=temperature)
        for values in bath_exponents(spec, [0.0, 2.0, 0.0]):
            assert values[0] == 0.0 and values[2] == 0.0
        off = OhmicGapSpectrum(alpha=0.0, omega0=gap, temperature=temperature)
        for values in bath_exponents(off, [0.0, 2.0]):
            assert np.all(values == 0.0)

    def test_grid_matches_scalar_views(self):
        # Unsorted grids are fine; each entry equals the one-point evaluation.
        times = np.array([5.0, 0.5, 50.0])
        for spec in (OhmicGapSpectrum(alpha=0.25, omega0=0.1),
                     OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)):
            gamma_r, gamma_i, _ = bath_exponents(spec, times)
            for k, t in enumerate(times):
                result = bath.bath_gamma(spec, t)
                assert (result.gamma_r, result.gamma_i) == (gamma_r[k], gamma_i[k])

    def test_rejects_bad_times(self):
        for bad in ([1.0, -1.0], [math.nan], [math.inf]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                bath_exponents(OhmicGapSpectrum(alpha=0.25), bad)
        with pytest.raises(ValueError, match="1-D"):
            bath_exponents(OhmicGapSpectrum(alpha=0.25), [[1.0]])
