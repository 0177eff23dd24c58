"""Closed-form bath exponents against independent references.

Oracles: 30-digit mpmath for the E1 and ln Gamma helpers and for the defining
integrals of a gapped bath at T > 0, and the defining integrals evaluated by
the adaptive quadrature of ``quadrature.bath_exponents`` (and, for the
plateau gamma_R(inf), of ``integrate_decaying``), run at a tolerance of 1e-13.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twospinboson import bath, quadrature, sweeps
from twospinboson.bath import (
    OhmicGapSpectrum,
    bath_exponents,
    effective_coupling,
    gamma_R_infinity,
)
from twospinboson.entanglement import QubitAmplitudes
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

    def test_subnormal_temperature_is_the_zero_temperature_series(self):
        # r = x0/tau overflows to inf, which leaves the n = 0 term alone.
        cold = OhmicGapSpectrum(alpha=0.25, omega0=2.0)
        tiny = OhmicGapSpectrum(alpha=0.25, omega0=2.0, temperature=5e-324)
        for got, expected in zip(bath_exponents(tiny, TIMES)[:2], bath_exponents(cold, TIMES)[:2]):
            assert np.array_equal(got, expected)
        assert gamma_R_infinity(tiny) == gamma_R_infinity(cold)

    def test_no_quadrature_calls(self, monkeypatch):
        calls = []

        def counting(real):
            def wrapper(*args, **kwargs):
                calls.append(real.__name__)
                return real(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(quadrature, "integrate_decaying", counting(integrate_decaying))
        monkeypatch.setattr(quadrature, "composite_gauss", counting(quadrature.composite_gauss))
        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)
        bath_exponents(spec, np.linspace(0.0, 300.0, 20))
        gamma_R_infinity(spec)
        sweeps.thermal_overlap_table(np.linspace(0.0, 2.0, 3), np.linspace(0.0, 0.5, 3))
        sweeps.steady_state_table([0.25, 0.5], [0.0, 0.1], QubitAmplitudes.uniform(),
                                  temperature=0.5, phase_points=16)
        assert calls == []

    def test_one_pass_evaluates_each_plateau_term_once(self, monkeypatch):
        # gamma_R, gamma_I, the error estimate's plateau and its tail bound
        # all come from one pass: N = 164 is found once, and each of the
        # N + 1 plateau terms F_X(0) is evaluated once.
        calls = {"_bose_pass": [], "_bose_terms": [], "plateau terms": []}

        def counting(name):
            real = getattr(bath, name)

            def wrapper(*args):
                calls[name].append(args)
                return real(*args)
            return wrapper

        def counting_transform(x, s, real=bath._gap_transform):
            if np.ndim(s) == 0 and s == 0.0:
                calls["plateau terms"].append(np.size(x))
            return real(x, s)

        monkeypatch.setattr(bath, "_bose_pass", counting("_bose_pass"))
        monkeypatch.setattr(bath, "_bose_terms", counting("_bose_terms"))
        monkeypatch.setattr(bath, "_gap_transform", counting_transform)
        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)
        bath_exponents(spec, np.linspace(0.0, 300.0, 20))
        assert len(calls["_bose_pass"]) == 1
        assert len(calls["_bose_terms"]) == 1
        assert sum(calls["plateau terms"]) == 165


def _quadrature_plateau(x0, tau):
    """int_0^inf u e^{-u} coth((x0 + u)/2 tau) / (x0 + u)^2 du, with coth = 1 at T = 0."""
    def integrand(u):
        w = x0 + u
        with np.errstate(over="ignore"):  # w/2tau = inf at a subnormal tau: coth = 1
            coth = 1.0 / np.tanh(w / (2.0 * tau)) if tau > 0.0 else 1.0
        return u * np.exp(-u) * coth / w**2

    return integrate_decaying(integrand, upper=quadrature.X_MAX, abs_tol=1e-13)[0]


class TestPlateau:
    @pytest.mark.parametrize("temperature", (0.0, 0.5, 2.0))
    @pytest.mark.parametrize("gap", (0.01, 0.1, 0.5, 3.0))
    def test_against_quadrature(self, gap, temperature):
        spec = OhmicGapSpectrum(alpha=0.25, omega0=gap, temperature=temperature)
        np.testing.assert_allclose(gamma_R_infinity(spec), _quadrature_plateau(gap, temperature),
                                   rtol=0.0, atol=1e-12)

    def test_against_mpmath_at_small_gap(self):
        # N = 77052 terms; the quadrature of the seed did not converge here.
        with mpmath.workdps(30):
            x0, tau = mpmath.mpf("1e-3"), mpmath.mpf(2)
            integral = mpmath.quad(
                lambda u: u * mpmath.exp(-u) * mpmath.coth((x0 + u) / (2 * tau)) / (x0 + u) ** 2,
                [0, x0, 10 * x0, 100 * x0, 1, 10, 40, mpmath.inf])
        spec = OhmicGapSpectrum(alpha=0.25, omega0=1e-3, temperature=2.0)
        np.testing.assert_allclose(gamma_R_infinity(spec), float(integral), rtol=1e-13, atol=0.0)

    def test_work_cap_refuses_before_evaluation(self, monkeypatch):
        # At gap 1e-6, T = 2 the series needs more than 2^25 terms even with no times.
        def fail(*args, **kwargs):
            raise AssertionError("the series was evaluated")

        monkeypatch.setattr(bath, "_gap_transform", fail)
        hot = OhmicGapSpectrum(alpha=0.25, omega0=1e-6, temperature=2.0)
        message = (r"^Bose series at gap 1e-06, temperature 2 needs more than 33554432 terms "
                   r"for its plateau, above the work cap")
        with pytest.raises(RuntimeError, match=message):
            gamma_R_infinity(hot)
        with pytest.raises(RuntimeError, match=message):
            sweeps.thermal_overlap_table([0.0, 2.0], [1e-6, 0.1])

    def test_work_cap_covers_a_whole_table(self, monkeypatch):
        # Each cell near T = 2 passes on its own (N = 8583054 at gap 1e-5,
        # T = 2), but the six cells of each table need more than 2^25 terms.
        def fail(*args, **kwargs):
            raise AssertionError("the series was evaluated")

        monkeypatch.setattr(bath, "_gap_transform", fail)
        message = (r"^Bose series of 6 gapped spectra need \d+ terms together for "
                   r"their plateaus, above the work cap of 33554432 E1 evaluations$")
        with pytest.raises(RuntimeError, match=message):
            sweeps.thermal_overlap_table([1.9, 1.95, 2.0], [1e-5, 1.1e-5])
        with pytest.raises(RuntimeError, match=message):
            sweeps.steady_state_table([0.25, 0.5, 0.75], [1e-5, 1.1e-5],
                                      QubitAmplitudes.uniform(), temperature=2.0)

    @pytest.mark.parametrize("temperatures,gaps", (
        (np.linspace(0.0, 2.0, 5), np.linspace(0.0, 0.5, 4)),
        # Gap 1e-3 at T = 2 alone fills 301 rows of 256 terms, more than one
        # block of 2^16 terms, and the other cells follow it in the same pass.
        ([0.0, 0.5, 2.0], [1e-3, 0.01, 0.1])))
    def test_table_cells_equal_scalar_plateau(self, temperatures, gaps):
        alpha = 0.25
        table = sweeps.thermal_overlap_table(temperatures, gaps, alpha=alpha)
        k = 0
        for gap in gaps:
            for temperature in temperatures:
                g = gamma_R_infinity(OhmicGapSpectrum(alpha=alpha, omega0=gap,
                                                      temperature=temperature))
                expected = -1.0 if math.isinf(g) else math.exp(-g)
                assert table["overlap_infinity"][k] == expected
                k += 1

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(x0=st.floats(0.01, 2.0), tau=st.floats(0.0, 2.0),
           dx=st.floats(1e-3, 0.5), dtau=st.floats(1e-3, 0.5))
    def test_properties(self, x0, tau, dx, dtau):
        # Heating raises the plateau, widening the gap lowers it, and it is
        # the defining integral (alpha = 1/4 makes 4 alpha = 1).
        def plateau(gap, temperature):
            return gamma_R_infinity(OhmicGapSpectrum(alpha=0.25, omega0=gap,
                                                     temperature=temperature))

        value = plateau(x0, tau)
        assert plateau(x0, min(tau + dtau, 2.0)) >= value
        assert plateau(min(x0 + dx, 2.0), tau) <= value
        assert abs(value - _quadrature_plateau(x0, tau)) <= 1e-11


class TestClosedFormsAgainstQuadrature:
    @pytest.mark.parametrize("gap,temperature", BRANCHES)
    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_branch(self, alpha, gap, temperature):
        # Absolute 1e-12, plus 1e-15 relative: float64 cannot hold a gamma_R
        # of 1.25e4 (gapless, T = 2, t = 1000) to 1e-12, its spacing is 1.8e-12.
        spec = OhmicGapSpectrum(alpha=alpha, omega0=gap, temperature=temperature)
        gamma_r, gamma_i, error = bath_exponents(spec, TIMES)
        for k, t in enumerate(TIMES[1:], start=1):
            ref_r, ref_i, ref_err = quadrature.bath_exponents(spec, float(t), abs_tol=1e-13)
            np.testing.assert_allclose(gamma_r[k], ref_r, rtol=1e-15, atol=1e-12)
            np.testing.assert_allclose(gamma_i[k], ref_i, rtol=1e-15, atol=1e-12)
            # The reported estimate covers the actual deviation.
            assert abs(gamma_r[k] - ref_r) + abs(gamma_i[k] - ref_i) <= error[k] + ref_err

    @pytest.mark.parametrize("gap", (0.01, 0.1, 0.5, 3.0))
    def test_plateau_and_coupling(self, gap):
        spec = OhmicGapSpectrum(alpha=0.25, omega0=gap)
        # At T = gap/100 the first thermal term, 2 e^{-100} F, is below the
        # series' tail tolerance, so the series keeps only the n = 0 term;
        # both plateaus are checked against the quadrature of the T = 0
        # integrand (alpha = 1/4 makes 4 alpha = 1).
        cold = OhmicGapSpectrum(alpha=0.25, omega0=gap, temperature=gap / 100.0)
        reference = _quadrature_plateau(gap, 0.0)
        for plateau in (gamma_R_infinity(spec), gamma_R_infinity(cold)):
            np.testing.assert_allclose(plateau, reference, rtol=0.0, atol=1e-12)
        value, _ = integrate_decaying(lambda u: u * np.exp(-u) / (gap + u), upper=quadrature.X_MAX,
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
                assert bath.bath_gamma(spec, t)[:2] == (gamma_r[k], gamma_i[k])
        # A grid longer than one block of the Bose series: entries on both
        # sides of the block boundary still equal their one-point values.
        long_grid = np.linspace(1.0, 300.0, bath._SERIES_CHUNK_TIMES + 44)
        gamma_r, gamma_i, _ = bath_exponents(spec, long_grid)
        for k in (0, bath._SERIES_CHUNK_TIMES - 1, bath._SERIES_CHUNK_TIMES, long_grid.size - 1):
            assert bath.bath_gamma(spec, long_grid[k])[:2] == (gamma_r[k], gamma_i[k])

    def test_rejects_bad_times(self):
        for bad in ([1.0, -1.0], [math.nan], [math.inf]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                bath_exponents(OhmicGapSpectrum(alpha=0.25), bad)
        with pytest.raises(ValueError, match="1-D"):
            bath_exponents(OhmicGapSpectrum(alpha=0.25), [[1.0]])
