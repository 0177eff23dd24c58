"""Closed-form bath exponents against independent references.

Oracles: 40-digit mpmath for the E1 forms, 60-digit mpmath for the ln Gamma
drop of a gapless bath at T > 0, and 30-digit mpmath for the defining
integrals of a gapped bath at T > 0; the direct Bose sum for its
Euler-Maclaurin route, where the direct sum is affordable; and the defining
integrals evaluated by the adaptive quadrature of
``quadrature.bath_exponents`` (and, for the plateau gamma_R(inf), of
``integrate_decaying``), run at a tolerance of 1e-13.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twospinboson import bath, quadrature, sweeps
from twospinboson.bath import (
    OhmicGapSpectrum,
    bath_exponents,
    effective_coupling,
    gamma_R_infinity,
)
from twospinboson.single_mode import QubitAmplitudes
from twospinboson.quadrature import integrate_decaying

mpmath = pytest.importorskip("mpmath")

ALPHAS = (0.25, 0.5)
# Every (gap, temperature) branch: log1p/arctan, the ln Gamma drop, E1 and the Bose series.
BRANCHES = ((0.0, 0.0), (0.0, 0.5), (0.0, 2.0), (0.01, 0.0), (0.1, 0.0), (0.5, 0.0),
            (0.1, 0.5), (0.5, 2.0))
TIMES = np.array([0.0, 1e-3, 1.0, 100.0, 1000.0])


def _mp_rel_error(got, ref, floor=0.0):
    return abs(mpmath.mpc(got) - ref) / max(abs(ref), floor)


def _mp_e1_forms(w):
    """G, C and A of ``bath._exp_e1`` at an mpmath complex w, at the working precision."""
    g = mpmath.exp(w) * mpmath.e1(w)
    return (1 + w) * g - 1, 1 - w * g, w * (1 + w / 2) * g - (1 + w) / 2


class TestSpecialFunctions:
    def test_e1_power_tail_rounds_as_the_plain_loop(self):
        # Negating z once keeps each rounding of term * (-z) / k and of the
        # running sum, so the tail equals the plain loop bit for bit.
        def plain(z):
            term, tail = np.ones_like(z), np.zeros_like(z)
            for k in range(1, 21):
                term = term * (-z) / k
                tail = tail + term / k
            return tail

        rng = np.random.default_rng(3)
        x = rng.uniform(1e-9, 1.0, 300)
        z = np.sqrt(x) * np.exp(1j * rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 300))
        for values in (x, z):
            assert bath._e1_power_tail(values).tobytes() == plain(values).tobytes()

    def test_exp_e1_against_mpmath(self):
        # z = x0 (1 - i s) as the gapped closed form uses it, plus points on
        # both sides of the |z| = 1 switch from power series to continued
        # fraction; each form G, C, A to 2e-14 relative, cancellation or not.
        x0 = np.geomspace(1e-6, 20.0, 25)[:, None]
        s = np.concatenate([[0.0], np.geomspace(1e-3, 1e4, 26)])[None, :]
        phases = np.linspace(-1.5, 1.5, 13)
        switch = np.concatenate([(1.0 - 1e-12) * np.exp(1j * phases),
                                 (1.0 + 1e-12) * np.exp(1j * phases)])
        z = np.concatenate([(x0 * (1.0 - 1j * s)).ravel(), switch])
        got = bath._exp_e1(z)
        with mpmath.workdps(40):
            worst = 0.0
            for k, zk in enumerate(z):
                w = mpmath.mpc(zk)
                g = mpmath.exp(w) * mpmath.e1(w)
                refs = ((1 + w) * g - 1, 1 - w * g, w * (1 + w / 2) * g - (1 + w) / 2)
                worst = max(worst, *(_mp_rel_error(form[k], ref) for form, ref in zip(got, refs)))
        assert worst <= 2e-14

    @pytest.mark.parametrize("z", [2692923700986777 - 2.692923700986777e18j,
                                   5.972540772109541e18 + 1.6894395314528846e16j,
                                   2.7299386437827632e17 - 9.006549970390309e22j])
    def test_exp_e1_converges_at_huge_modulus(self, z):
        # Here the continued-fraction tail has its floor depth, 14.  A cancels
        # by |z|^3 in its definition; 120-digit arithmetic leaves the
        # references 40 digits.
        got = bath._exp_e1(np.array([z]))
        with mpmath.workdps(120):
            w = mpmath.mpc(z)
            g = mpmath.exp(w) * mpmath.e1(w)
            refs = ((1 + w) * g - 1, 1 - w * g, w * (1 + w / 2) * g - (1 + w) / 2)
            worst = max(_mp_rel_error(form[0], ref) for form, ref in zip(got, refs))
        assert worst <= 1e-15

    def test_exp_e1_batch_matches_single_points(self):
        # Each point's tail depth depends on that point alone; each value must
        # equal the one computed for that point alone, bit for bit.
        z = (np.geomspace(1e-3, 30.0, 12)[:, None]
             * (1.0 - 1j * np.geomspace(1e-2, 1e4, 12)[None, :])).ravel()
        batch = bath._exp_e1(z)
        for k in range(z.size):
            alone = bath._exp_e1(z[k:k + 1])
            assert all(form[0] == forms[k] for form, forms in zip(alone, batch))

    @pytest.mark.parametrize("z", [
        np.empty(0, dtype=complex),
        np.empty((0, 3), dtype=complex),
        np.array([0.1, 0.5 - 0.5j, 1e-300 + 0.9j]),
        np.array([1.5, 0.1 - 1.579j, 3.0 + 40.0j, 1e20 - 1e22j]),
        np.array([1.0 - 1e-12j, 1.0 + 1e-12 - 1e-12j]),
        np.array([1.0 + 0.0j, 0.6 - 0.8j]),
        np.array([[0.5, 2.0 - 2.0j], [1.0, 0.3 + 5.0j]]),
    ], ids=["empty", "empty-2d", "all-near", "all-far", "both-sides", "modulus-1", "mixed-2d"])
    def test_exp_e1_early_exits_keep_shape_and_bits(self, z, monkeypatch):
        # A batch with no point in the unit disc evaluates no power series, and
        # one with no point outside it no continued fraction.  Each form keeps
        # the batch's shape and each value is the one of that point alone.
        calls = []
        for name in ("_e1_power_tail", "_e1_tail_depth"):
            real = getattr(bath, name)
            monkeypatch.setattr(bath, name,
                                lambda v, name=name, real=real: calls.append(name) or real(v))
        batch = bath._exp_e1(z)
        near = np.abs(z) <= 1.0
        expected = ["_e1_power_tail"] * bool(near.any()) + ["_e1_tail_depth"] * bool((~near).any())
        assert calls == expected
        assert all(form.shape == z.shape and form.dtype == complex for form in batch)
        for k, zk in enumerate(z.ravel()):
            alone = bath._exp_e1(np.array([zk]))
            assert all(form.ravel()[k:k + 1].tobytes() == value.tobytes()
                       for form, value in zip(batch, alone))

    def test_exp_e1_just_outside_the_switch(self):
        # Just outside the unit disc and near the imaginary axis the tail is
        # deepest: |z| = 1 + 1e-12 at 50 arguments, and |z| = 1.5, 2, 4 near
        # arg z = +-pi/2.  Each form G, C, A to 2e-15 relative.
        phases = np.linspace(-(np.pi / 2 - 1e-6), np.pi / 2 - 1e-6, 50)
        edge = np.pi / 2 - np.array([1e-6, 1e-3, 0.05])
        edge = np.concatenate([edge, -edge])
        z = np.concatenate([(1.0 + 1e-12) * np.exp(1j * phases),
                            (np.array([1.5, 2.0, 4.0])[:, None] * np.exp(1j * edge)).ravel()])
        got = bath._exp_e1(z)
        with mpmath.workdps(40):
            worst = max(_mp_rel_error(form[k], ref)
                        for k, zk in enumerate(z)
                        for form, ref in zip(got, _mp_e1_forms(mpmath.mpc(zk))))
        assert worst <= 2e-15

    def test_tail_depth_meets_the_truncation_bound(self):
        # n = N + 1 levels give |g - g_n| <= 1/(|z| |L_n(-z)|^2) for Re z >= 0,
        # and each form's relative error is |slope/form| times that, with
        # slopes 1 + z, -z and z (1 + z/2) for G, C and A.  On a log-polar grid
        # the rule's depth is never below the smallest that puts all three at
        # eps/2.  |L_n(-z)| comes from (n + 1) L_{n+1} = (2n + 1 + z) L_n - n L_{n-1},
        # rescaled by |L_n| at each step (it reaches |z|^n/n!).
        z = (np.geomspace(1.0, 1e22, 133)[:, None]
             * np.exp(1j * np.linspace(-np.pi / 2, np.pi / 2, 41))[None, :]).ravel()
        log_slope_ratio = np.empty(z.size)
        for k, zk in enumerate(z):
            # A cancels by |z|^3 in its definition.
            with mpmath.workdps(20 + 3 * int(math.log10(abs(zk)))):
                w = mpmath.mpc(zk)
                ratios = (abs(slope / form) for slope, form
                          in zip((1 + w, -w, w * (1 + w / 2)), _mp_e1_forms(w)))
                log_slope_ratio[k] = float(mpmath.log(max(ratios)))
        depth = bath._e1_tail_depth(z)
        smallest = np.full(z.size, -1)
        previous, current = np.ones_like(z), 1.0 + z  # L_0(-z), L_1(-z)
        log_modulus = np.zeros(z.size)
        for n in range(1, depth.max() + 2):
            log_modulus += np.log(np.abs(current))
            previous, current = previous / np.abs(current), current / np.abs(current)
            met = log_slope_ratio - np.log(np.abs(z)) - 2.0 * log_modulus <= math.log(2.0**-53)
            smallest[(smallest < 0) & met] = n - 1
            previous, current = current, ((2 * n + 1 + z) * current - n * previous) / (n + 1)
        assert np.all(smallest >= 0)
        assert np.all(depth >= smallest)

    def test_exp_a_step_against_mpmath(self):
        # e^x [A(x) - A(x - i delta)], whose two terms cancel as delta -> 0.
        x = np.array([1e-300, 1e-8, 1e-3, 0.1, 0.5, 0.99])[:, None]
        delta = np.array([1e-12, 1e-6, 1e-3, 0.1, 0.14])[None, :]
        x, delta = (v.ravel() for v in np.broadcast_arrays(x, delta))
        got = bath._exp_a_step(x, delta)

        def antiderivative(w):
            return mpmath.e1(w) * (w + w * w / 2) - (1 + w) * mpmath.exp(-w) / 2

        with mpmath.workdps(40):
            for xk, dk, g in zip(x, delta, got):
                ref = mpmath.exp(xk) * (antiderivative(mpmath.mpf(xk))
                                        - antiderivative(mpmath.mpc(xk, -dk)))
                assert _mp_rel_error(g, ref) <= 1e-13
                assert abs(g.real - ref.real) <= 1e-13 * abs(ref.real)

    def test_thermal_drop_against_mpmath(self):
        # D = ln Gamma(1 + tau) - Re ln Gamma(1 + tau + i tau s), the T > 0 part
        # of the gapless gamma_R, from tau 1e-6 to 1e15 (8.9 and 9.5 straddle
        # the recurrence's switch at 1 + tau = 10) and s 1e-9 to 1e6, where a
        # difference of two ln Gamma values of size tau ln tau loses its digits.
        taus = (1e-6, 1e-3, 0.1, 0.5, 2.0, 8.9, 9.5, 30.0, 1e3, 1e6, 1e9, 1e15)
        s = np.array([1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 1e3, 1e6])
        alpha = 0.25
        with mpmath.workdps(60):
            for tau in taus:
                drop = bath._thermal_drop(tau, s)
                gamma_r, _, error = bath_exponents(
                    OhmicGapSpectrum(alpha=alpha, temperature=tau), s)
                for sk, got, g_r, err in zip(s, drop, gamma_r, error):
                    t, x = mpmath.mpf(tau), mpmath.mpf(sk)
                    ref = (mpmath.loggamma(1 + t)
                           - mpmath.re(mpmath.loggamma(mpmath.mpc(1 + t, t * x))))
                    assert abs(got - ref) <= 1e-14 * ref, (tau, sk)
                    ref_r = 4 * alpha * (mpmath.log1p(x * x) / 2 + 2 * ref)
                    assert abs(g_r - ref_r) <= err, (tau, sk)

    @pytest.mark.parametrize("tau, s", [(5e-324, 1.7e308), (1e-310, 1e300), (3e-308, 1e300)])
    def test_thermal_drop_keeps_its_digits_at_subnormal_temperature(self, tau, s):
        # tau / (1 + tau + k) is subnormal here and would round to a few
        # digits (relative error 0.39 at tau = 5e-324); s tau is formed first.
        got = bath._thermal_drop(tau, np.array([s]))[0]
        with mpmath.workdps(60):
            t, x = mpmath.mpf(tau), mpmath.mpf(s)
            ref = mpmath.loggamma(1 + t) - mpmath.re(mpmath.loggamma(mpmath.mpc(1 + t, t * x)))
            assert abs(got - ref) <= 1e-15 * ref


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
    # (alpha, gap, T, t).  The direct sum would need N = 77052 terms at gap
    # 1e-3 and T = 2, 8583054 at gap 1e-5 and about 8.6e7 at gap 1e-6.
    CASES = ((0.25, 0.1, 0.5, 1.0), (0.5, 0.1, 2.0, 0.1), (0.25, 0.1, 0.5, 300.0),
             (0.5, 0.5, 0.25, 1000.0), (0.25, 0.01, 2.0, 10.0), (0.25, 1e-3, 2.0, 1000.0),
             (0.25, 1e-5, 2.0, 2.5), (0.25, 1e-5, 2.0, 5.0), (0.25, 1e-5, 2.0, 1000.0),
             (0.25, 1e-6, 2.0, 5.0))

    @pytest.mark.parametrize("alpha,gap,temperature,t", CASES)
    def test_against_mpmath(self, alpha, gap, temperature, t):
        ref_r, ref_i = _mp_gapped_thermal(alpha, gap, temperature, t)
        spec = OhmicGapSpectrum(alpha=alpha, omega0=gap, temperature=temperature)
        gamma_r, gamma_i, error = bath_exponents(spec, [t])
        # The largest error, 3.1e-15, is gamma_R at gap 0.1, T 2, t 0.1.  At
        # gap 1e-3, t = 1000, z = x0 (1 - i s) sits just outside the unit
        # disc, where the continued-fraction tail is deepest.
        np.testing.assert_allclose(gamma_r[0], ref_r, rtol=3e-14, atol=0.0)
        np.testing.assert_allclose(gamma_i[0], ref_i, rtol=3e-14, atol=0.0)
        assert abs(gamma_r[0] - ref_r) + abs(gamma_i[0] - ref_i) <= error[0]

    def test_term_count_is_smallest_under_tail_bound(self):
        # A series keeps the direct route where its N is at most the M of the
        # Euler-Maclaurin route, and N is then the smallest under the tail
        # bound; gap 2 at T 0.5 (N = 7) and gap 0.1 at T 0.5 (N = 164) do not.
        gaps = np.array([0.1, 5.0, 3.0, 0.5, 2.0, 0.1])
        temperatures = np.array([1e-6, 0.5, 0.5, 0.05, 0.5, 0.5])
        terms, order, bound = bath._bose_plan(gaps, temperatures)
        assert list(order == 0) == [True, True, True, True, False, False]
        for gap, temperature, n_terms, tail in zip(gaps[:4], temperatures[:4], terms, bound):
            log_tail = bath._bose_log_tail(np.arange(n_terms), gap, temperature)
            assert log_tail[-1] <= math.log(1e-16) < min(log_tail[:-1], default=math.inf)
            assert tail == math.exp(log_tail[-1])
        assert list(terms) == [1, 4, 6, 4, 6, 7]

    def test_mixed_plan_equals_the_row_by_row_plans(self):
        # Rows at T = 0 skip the bound table: terms 1, order 0, bound 0.
        # Every row's route and bound are bitwise those it gets alone.
        gaps = np.array([0.1, 5.0, 0.1, 1e-5, 2.0, 0.5, 3.0, 1e-300])
        temperatures = np.array([0.0, 0.5, 0.5, 2.0, 0.0, 5e-324, 0.0, 2.0])
        plan = bath._bose_plan(gaps, temperatures)
        for k in range(gaps.size):
            alone = bath._bose_plan(gaps[k:k + 1], temperatures[k:k + 1])
            for got, expected in zip(plan, alone):
                assert got.dtype == expected.dtype and got[k] == expected[0]
        cold = temperatures == 0.0
        assert np.all(plan[0][cold] == 1) and np.all(plan[1][cold] == 0)
        assert np.all(plan[2][cold] == 0.0)

    def test_zero_temperature_plan_builds_no_bound_table(self, monkeypatch):
        def fail(*args):
            raise AssertionError("the Euler-Maclaurin bound table was built")

        monkeypatch.setattr(bath, "_em_remainders", fail)
        terms, order, bound = bath._bose_plan(np.array([1e-6, 0.1, 3.0]), np.zeros(3))
        assert list(terms) == [1, 1, 1] and list(order) == [0, 0, 0]
        assert list(bound) == [0.0, 0.0, 0.0]
        sweeps.steady_state_table([0.25, 0.5], [0.0, 1e-6, 0.1], QubitAmplitudes.uniform())

    def test_small_gaps_take_a_certified_route(self):
        # The Euler-Maclaurin route takes at most _EM_MAX_TERMS direct terms
        # and bounds its remainder by 1e-16, however large N would be.
        gaps = np.array([1e-3, 1e-4, 1e-5, 1e-6, 1e-300])
        terms, order, bound = bath._bose_plan(gaps, np.full(gaps.size, 2.0))
        assert np.all(order > 0) and np.all(terms <= bath._EM_MAX_TERMS)
        assert np.all(bound <= 1e-16)
        hot = OhmicGapSpectrum(alpha=0.25, omega0=1e-5, temperature=2.0)
        gamma_r, gamma_i, error = bath_exponents(hot, [0.0, 2.5, 5.0])
        assert np.all(np.isfinite(gamma_r)) and np.all(error[1:] >= 4 * 0.25 * bound[2])
        # Nothing to evaluate on an all-zero grid.
        assert np.all(bath_exponents(hot, [0.0])[0] == 0.0)

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
                                  temperature=0.5)
        assert calls == []

    def test_one_pass_evaluates_each_plateau_term_once(self, monkeypatch):
        # gamma_R, gamma_I, the error estimate's plateau and its remainder
        # bound all come from one pass: one plan, one evaluation, and each
        # plateau node (the M = 7 direct terms and the Euler-Maclaurin node
        # at M, all at real arguments) is evaluated once.
        calls = {"_bose_grids": 0, "_bose_plan": 0, "_bose_sums": 0}
        plateau_nodes = []

        def counting(name):
            real = getattr(bath, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        def counting_e1(z, real=bath._exp_e1):
            plateau_nodes.append(np.count_nonzero(np.imag(z) == 0.0))
            return real(z)

        for name in calls:
            monkeypatch.setattr(bath, name, counting(name))
        monkeypatch.setattr(bath, "_exp_e1", counting_e1)
        spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)
        bath_exponents(spec, np.linspace(0.0, 300.0, 20))
        assert calls == {"_bose_grids": 1, "_bose_plan": 1, "_bose_sums": 1}
        assert sum(plateau_nodes) == 8

    @pytest.mark.parametrize("points", (1, 20))
    def test_e1_values_per_cell_do_not_grow_with_n(self, monkeypatch, points):
        # N = 164, 77052, 8583054 and about 8.6e7 direct terms: each series
        # costs at most _EM_MAX_TERMS + 1 E1 values per row (the plateau and
        # each time), whatever its N.
        values = []

        def counting_e1(z, real=bath._exp_e1):
            values[-1] += np.size(z)
            return real(z)

        monkeypatch.setattr(bath, "_exp_e1", counting_e1)
        for gap, temperature in ((0.1, 0.5), (1e-3, 2.0), (1e-5, 2.0), (1e-6, 2.0)):
            values.append(0)
            bath_exponents(OhmicGapSpectrum(alpha=0.25, omega0=gap, temperature=temperature),
                           np.linspace(1.0, 300.0, points))
        assert max(values) <= (bath._EM_MAX_TERMS + 1) * (points + 1)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(x0=st.floats(1e-4, 2.0), tau=st.floats(0.05, 2.0), s=st.floats(0.0, 1e3))
    def test_euler_maclaurin_matches_direct_sum(self, x0, tau, s):
        # Where the direct sum is affordable (N <= 4000) it is the oracle of
        # the Euler-Maclaurin route: plateau and damping sums agree within
        # the rounding allowance of bath_exponents plus both remainder bounds.
        log_tail = bath._bose_log_tail(np.arange(4001), x0, tau)
        reached = np.flatnonzero(log_tail <= math.log(1e-16))
        assume(reached.size)
        x0s, taus, times = np.array([x0]), np.array([tau]), np.array([s])
        terms, order, bound = bath._bose_plan(x0s, taus)
        assume(order[0] > 0)
        plateau, damping, first = bath._bose_sums(x0s, taus, terms, order, times)
        direct = bath._bose_sums(x0s, taus, reached[:1] + 1, np.zeros(1, dtype=int), times)
        allowance = (1e-13 * (2.0 * direct[0][0] + abs(direct[2][0, 0]))
                     + bound[0] + math.exp(log_tail[reached[0]]))
        assert abs(plateau[0] - direct[0][0]) <= allowance
        assert abs(damping[0, 0] - direct[1][0, 0]) <= allowance
        assert first[0, 0] == direct[2][0, 0]


def _plain_em_remainders(q, r, count):
    """The recurrence of ``bath._em_remainders`` with Python-int multipliers."""
    out = [q]
    s, rem, power = q, q * q, 1.0
    for m in range(1, 2 * count - 2):
        power = power * r
        s = q * (power + m * s)
        rem = q * (s + m * rem)
        if m % 2:
            out.append(rem)
    return out


def _plan_inputs(rows, seed):
    """Gaps and temperatures of seeded series, most on the Euler-Maclaurin route."""
    rng = np.random.default_rng(seed)
    return 10.0 ** rng.uniform(-6.0, 1.0, rows), 10.0 ** rng.uniform(-2.0, 3.0, rows)


class TestEulerMaclaurinRounding:
    """The array forms of the remainders, their bound table and the order
    mask round exactly as the loops they replace."""

    @pytest.mark.parametrize("count", range(1, 13))
    def test_em_remainders_round_as_the_plain_loop(self, count):
        # Real inputs as the plan forms them, (rows, M) against (rows, 1), and
        # complex ones as the sums do, q = r/z_M with z_M = x0 + M r - i x0 s.
        x0, tau = _plan_inputs(40, count)
        r = (x0 / tau)[:, None]
        plan_q = 1.0 / (tau[:, None] + np.arange(1, bath._EM_MAX_TERMS + 1))
        s = np.random.default_rng(100 + count).uniform(0.0, 300.0, x0.size)
        sums_q = r[:, 0] / (x0 + 4 * r[:, 0] - 1j * x0 * s)
        for q, rr in ((plan_q, r), (sums_q, r[:, 0])):
            got, expected = bath._em_remainders(q, rr, count), _plain_em_remainders(q, rr, count)
            assert len(got) == len(expected) == count
            assert all(a.dtype == b.dtype and a.tobytes() == b.tobytes()
                       for a, b in zip(got, expected))

    @pytest.mark.parametrize("mixed", [True, False], ids=["orders-1-to-12", "all-order-1"])
    def test_em_corrections_round_as_the_per_order_loop(self, mixed):
        def plain(forms, q, r, order):
            G, C, _ = forms
            rems = _plain_em_remainders(q, r, int(np.max(order)))
            total = bath._BERNOULLI[0] * C * q
            for k, (beta, rem) in enumerate(zip(bath._BERNOULLI[1:], rems[1:]), start=2):
                total = total + np.where(order >= k, beta, 0.0) * rem
            return 0.5 * G + total

        rng = np.random.default_rng(11)
        x0, tau = _plan_inputs(60, 12)
        r = x0 / tau
        z_m = x0 + 3 * r - 1j * x0 * rng.uniform(0.0, 300.0, x0.size)
        order = rng.permutation(np.arange(60) % 12 + 1) if mixed else np.ones(60, dtype=np.intp)
        args = (bath._exp_e1(z_m), r / z_m, r, order)
        assert bath._em_corrections(*args).tobytes() == plain(*args).tobytes()

    def test_bose_plan_bound_rounds_as_per_order_products(self):
        # The bound table, 4 |B_2K|/(2K)! e^{-M r} R_{2K-3} at every (M, K),
        # formed one order at a time: each Euler-Maclaurin row takes its first
        # certified (M, K) and that entry's bits.
        x0, tau = _plan_inputs(200, 0)
        terms, order, bound = bath._bose_plan(x0, tau)
        m = np.arange(1, bath._EM_MAX_TERMS + 1)
        r = (x0 / tau)[:, None]
        decay = np.exp(-m * r)
        rems = _plain_em_remainders(1.0 / (tau[:, None] + m), r, len(bath._BERNOULLI))
        table = np.stack([4.0 * abs(beta) * decay * rem
                          for beta, rem in zip(bath._BERNOULLI, rems)], axis=-1)
        em = np.flatnonzero(order > 0)
        assert em.size > 150 and np.unique(order[em]).size >= 8
        for k in em:
            M, K = terms[k], order[k]
            assert np.all(table[k, :M - 1] > bath._SERIES_TAIL_TOL)
            assert np.all(table[k, M - 1, :K - 1] > bath._SERIES_TAIL_TOL)
            assert table[k, M - 1, K - 1].tobytes() == bound[k].tobytes()


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
        # The direct sum would need N = 77052, 8583054 and about 8.6e7 terms.
        for gap in (1e-3, 1e-5, 1e-6):
            with mpmath.workdps(30):
                x0, tau = mpmath.mpf(gap), mpmath.mpf(2)
                integral = mpmath.quad(
                    lambda u: u * mpmath.exp(-u) * mpmath.coth((x0 + u) / (2 * tau)) / (x0 + u) ** 2,
                    [0, x0, 10 * x0, 100 * x0, 1000 * x0, 1, 10, 40, mpmath.inf])
            spec = OhmicGapSpectrum(alpha=0.25, omega0=gap, temperature=2.0)
            np.testing.assert_allclose(gamma_R_infinity(spec), float(integral), rtol=1e-15, atol=0.0)

    def test_uncertified_series_is_refused_before_evaluation(self, monkeypatch):
        # At gap 5e-324 and T = 2, x0/tau underflows to 0: no route certifies
        # a sum of size tau/x0, and nothing is evaluated.
        def fail(*args, **kwargs):
            raise AssertionError("the series was evaluated")

        monkeypatch.setattr(bath, "_exp_e1", fail)
        hot = OhmicGapSpectrum(alpha=0.25, omega0=5e-324, temperature=2.0)
        message = (r"^Bose series at gap 4\.94066e-324, temperature 2 has no certified route: "
                   r"temperature/gap overflows$")
        with pytest.raises(RuntimeError, match=message):
            gamma_R_infinity(hot)
        with pytest.raises(RuntimeError, match=message):
            sweeps.thermal_overlap_table([0.0, 2.0], [5e-324, 0.1])

    def test_small_gap_tables_are_evaluated(self, monkeypatch):
        # Gaps 1e-5 and 1.1e-5 near T = 2 need about 8.6e6 direct terms per
        # cell; both tables evaluate them at most _EM_MAX_TERMS + 1 E1 values a cell.
        values = []

        def counting_e1(z, real=bath._exp_e1):
            values.append(np.size(z))
            return real(z)

        monkeypatch.setattr(bath, "_exp_e1", counting_e1)
        table = sweeps.thermal_overlap_table([1.9, 1.95, 2.0], [1e-5, 1.1e-5])
        assert sum(values) <= 6 * (bath._EM_MAX_TERMS + 1)
        assert np.all(table["has_steady_state"] == 1.0)
        values.clear()
        table = sweeps.steady_state_table([0.25, 0.5, 0.75], [1e-5, 1.1e-5],
                                          QubitAmplitudes.uniform(), temperature=2.0)
        assert sum(values) <= 6 * (bath._EM_MAX_TERMS + 1)
        assert np.all(table["has_steady_state"] == 1.0)

    @pytest.mark.parametrize("temperatures,gaps", (
        (np.linspace(0.0, 2.0, 5), np.linspace(0.0, 0.5, 4)),
        # Gap 1e-3 at T = 2 takes the Euler-Maclaurin route, the other cells
        # the direct one, in the same pass.
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


class TestLargeGaps:
    # At T = 0 the coupling 2 alpha (1 - x e^x E1(x)) and the plateau
    # 4 alpha ((1 + x) e^x E1(x) - 1) fall like 2 alpha/x and 4 alpha/x^2:
    # their closed forms cancel, the tail forms g (1 - h) and g h do not.
    # References to 40 digits (80-digit arithmetic covers the cancellation).
    # Gap 1 is on the power series of E1, whose G still cancels fivefold.
    @pytest.mark.parametrize("gap,rtol", ((1.0, 1e-14), (1e4, 5e-16), (1e7, 5e-16), (1e8, 5e-16),
                                          (1e15, 5e-16), (1e16, 5e-16)))
    def test_coupling_and_plateau_against_mpmath(self, gap, rtol):
        spec = OhmicGapSpectrum(alpha=0.25, omega0=gap)
        with mpmath.workdps(80):
            x = mpmath.mpf(gap)
            g = mpmath.exp(x) * mpmath.e1(x)
            coupling, plateau = 0.5 * (1 - x * g), (1 + x) * g - 1
        np.testing.assert_allclose(effective_coupling(spec), float(coupling), rtol=rtol, atol=0.0)
        np.testing.assert_allclose(gamma_R_infinity(spec), float(plateau), rtol=rtol, atol=0.0)

    def test_signs_where_the_closed_forms_cancelled(self):
        # The coupling at gap 1e16 is 5e-17, not 0; the plateau at gap 1e8 is
        # +1.0e-16, not -1.1e-16.
        assert effective_coupling(OhmicGapSpectrum(alpha=0.25, omega0=1e16)) > 0.0
        assert gamma_R_infinity(OhmicGapSpectrum(alpha=0.25, omega0=1e8)) > 0.0


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
        # A grid longer than one block of rows of the Bose series (the plateau
        # row, then one row per time): entries on both sides of the block
        # boundary still equal their one-point values.
        rows = bath._SERIES_CHUNK_ROWS
        long_grid = np.linspace(1.0, 300.0, rows + 44)
        gamma_r, gamma_i, _ = bath_exponents(spec, long_grid)
        for k in (0, rows - 2, rows - 1, long_grid.size - 1):
            assert bath.bath_gamma(spec, long_grid[k])[:2] == (gamma_r[k], gamma_i[k])

    def test_rejects_bad_times(self):
        for bad in ([1.0, -1.0], [math.nan], [math.inf]):
            with pytest.raises(ValueError, match="finite and nonnegative"):
                bath_exponents(OhmicGapSpectrum(alpha=0.25), bad)
        with pytest.raises(ValueError, match="1-D"):
            bath_exponents(OhmicGapSpectrum(alpha=0.25), [[1.0]])
