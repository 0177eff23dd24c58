"""Closed-form bath exponents against independent references.

Oracles: 30-digit mpmath for the E1 and ln Gamma helpers and for the defining
integrals of a gapped bath at T > 0, and the defining integrals evaluated by
the adaptive quadrature of ``bath._quadrature_exponents``, run at a tolerance
of 1e-13.
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
# Every (gap, temperature) branch: log1p/arctan, ln Gamma, E1 and the Bose series.
BRANCHES = ((0.0, 0.0), (0.0, 0.5), (0.0, 2.0), (0.01, 0.0), (0.1, 0.0), (0.5, 0.0),
            (0.1, 0.5), (0.5, 2.0))
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

    def test_exp_e1_batch_matches_single_points(self):
        # Points leave the continued fraction as they converge; each value must
        # equal the one computed for that point alone, bit for bit.
        z = (np.geomspace(1e-3, 30.0, 12)[:, None]
             * (1.0 - 1j * np.geomspace(1e-2, 1e4, 12)[None, :])).ravel()
        batch = bath._exp_e1(z)
        assert all(bath._exp_e1(z[k:k + 1])[0] == batch[k] for k in range(z.size))

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


def _mp_gapped_thermal(alpha, x0, tau, s):
    """gamma_R and gamma_I of a gapped bath at T > 0 from their defining integrals.

    In u = omega/omega_c - x0 the integrands are h(u) coth((x0 + u)/2 tau)
    (1 - cos s(x0 + u)) and h(u) sin s(x0 + u), h = u e^{-u}/(x0 + u)^2.  For
    s < 10 they are integrated along the real axis, one cut per half period;
    for larger s the oscillatory parts use int_0^inf f(u) e^{isu} du =
    i int_0^inf f(iy) e^{-sy} dy.  That rotation is exact because the poles of
    f lie on Re u = -x0, and the rotated integrand is smooth as long as
    e^{-sy} is negligible before the first coth peak at y = 2 pi tau.
    """
    with mpmath.workdps(30):
        alpha, x0, tau, s = (mpmath.mpf(v) for v in (alpha, x0, tau, s))
        h = lambda u: u * mpmath.exp(-u) / (x0 + u) ** 2
        g = lambda u: h(u) * mpmath.coth((x0 + u) / (2 * tau))
        if s < 10:
            cuts = sorted({mpmath.mpf(0), x0, 10 * x0,
                           *(mpmath.pi * k / s for k in range(1, int(80 * s / mpmath.pi) + 1))})
            cuts.append(mpmath.inf)
            gamma_r = mpmath.quad(lambda u: g(u) * 2 * mpmath.sin(s * (x0 + u) / 2) ** 2, cuts)
            gamma_i = mpmath.quad(lambda u: h(u) * mpmath.sin(s * (x0 + u)), cuts)
        else:
            y_max = 80 / s
            assert y_max < 2 * mpmath.pi * tau - x0
            cuts = sorted({mpmath.mpf(0), *(x0 * 10**k for k in range(4) if x0 * 10**k < y_max),
                           y_max})
            cuts.append(mpmath.inf)
            phase = mpmath.exp(1j * s * x0)

            def rotated(f):
                return phase * 1j * mpmath.quad(lambda y: f(1j * y) * mpmath.exp(-s * y), cuts)

            plateau = mpmath.quad(g, [0, x0, 10 * x0, 1, 10, 40, mpmath.inf])
            gamma_r = plateau - mpmath.re(rotated(g))
            gamma_i = mpmath.im(rotated(h))
        return float(4 * alpha * gamma_r), float(4 * alpha * gamma_i)


class TestBoseSeries:
    # (alpha, gap, T, t); gap 1e-3 at T = 2 needs N = 77052 terms.
    CASES = ((0.25, 0.1, 0.5, 1.0), (0.5, 0.1, 2.0, 0.1), (0.25, 0.1, 0.5, 300.0),
             (0.5, 0.5, 0.25, 1000.0), (0.25, 0.01, 2.0, 10.0), (0.25, 1e-3, 2.0, 1000.0))

    @pytest.mark.parametrize("alpha,gap,temperature,t", CASES)
    def test_against_mpmath(self, alpha, gap, temperature, t):
        ref_r, ref_i = _mp_gapped_thermal(alpha, gap, temperature, t)
        spec = OhmicGapSpectrum(alpha=alpha, omega0=gap, temperature=temperature)
        gamma_r, gamma_i, error = bath_exponents(spec, [t])
        np.testing.assert_allclose(gamma_r[0], ref_r, rtol=1e-13, atol=1e-14)
        np.testing.assert_allclose(gamma_i[0], ref_i, rtol=1e-13, atol=1e-14)
        assert abs(gamma_r[0] - ref_r) + abs(gamma_i[0] - ref_i) <= error[0]

    def test_term_count_is_smallest_under_tail_bound(self):
        for gap, temperature, expected in ((1e-3, 2.0, 77052), (1e-4, 2.0, 814356),
                                           (0.1, 0.5, 164), (0.1, 1e-6, 0)):
            n_terms = bath._bose_terms(gap, temperature)
            assert n_terms == expected
            assert bath._bose_log_tail(n_terms, gap, temperature) <= math.log(1e-16)
            if n_terms:
                assert bath._bose_log_tail(n_terms - 1, gap, temperature) > math.log(1e-16)

    def test_work_cap_admits_small_gap_and_refuses_smaller(self):
        assert 77052 * 401 <= bath._SERIES_MAX_WORK
        cold = OhmicGapSpectrum(alpha=0.25, omega0=1e-5, temperature=2.0)
        with pytest.raises(RuntimeError, match="N = 8583054 terms for 3 times"):
            bath_exponents(cold, [0.0, 2.5, 5.0])
        # Nothing to evaluate on an all-zero grid, so nothing is refused.
        assert np.all(bath_exponents(cold, [0.0])[0] == 0.0)

    def test_no_quadrature_calls(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return integrate_decaying(*args, **kwargs)

        monkeypatch.setattr(bath, "integrate_decaying", counting)
        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)
        bath_exponents(spec, np.linspace(0.0, 300.0, 20))
        assert calls == []

    def test_saturation_time(self):
        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)
        assert bath.saturation_time(spec) == 25600.0


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
    @pytest.mark.parametrize("gap,temperature", BRANCHES)
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
        # A grid longer than one block of the Bose series: entries on both
        # sides of the block boundary still equal their one-point values.
        long_grid = np.linspace(1.0, 300.0, bath._SERIES_CHUNK_TIMES + 44)
        gamma_r, gamma_i, _ = bath_exponents(spec, long_grid)
        for k in (0, bath._SERIES_CHUNK_TIMES - 1, bath._SERIES_CHUNK_TIMES, long_grid.size - 1):
            result = bath.bath_gamma(spec, long_grid[k])
            assert (result.gamma_r, result.gamma_i) == (gamma_r[k], gamma_i[k])

    def test_rejects_bad_times(self):
        for bad in ([1.0, -1.0], [math.nan], [math.inf]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                bath_exponents(OhmicGapSpectrum(alpha=0.25), bad)
        with pytest.raises(ValueError, match="1-D"):
            bath_exponents(OhmicGapSpectrum(alpha=0.25), [[1.0]])
