"""Closed-form single-mode dynamics: decoherence factors, revivals, sweeps.

Frozen expected values come from evaluating the analytic expressions by hand
at special times (t = 0, half period, full period) and from the exact
decohered limit of the uniform state.
"""

import math

import numpy as np
import pytest

from twospinboson import single_mode
from twospinboson.entanglement import (
    QubitAmplitudes,
    concurrence,
    validate_density,
    von_neumann_entropy,
)
from twospinboson.single_mode import (
    GammaValue,
    SingleModeParams,
    coherent_amplitude,
    gamma_single_mode,
    ideal_concurrence,
    reduced_density,
    time_series,
)

UNIFORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5)
BELL_PHI = QubitAmplitudes(1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2))
DECOHERED_UNIFORM = np.array(
    [[1, 0, 0, 0],
     [0, 1, 1, 0],
     [0, 1, 1, 0],
     [0, 0, 0, 1]], dtype=float) / 4.0


def _refuse(*args, **kwargs):
    raise AssertionError("evaluated an overflowing grid")


def evolve(params, psi, t):
    """Reduced state of the single-mode model at time t (in 1/lambda)."""
    return reduced_density(psi, params.theta * t, gamma_single_mode(params, t))


class TestParams:
    def test_theta(self):
        # theta = 2 lambda^2 / omega, which is 2 / omega in units of lambda.
        params = SingleModeParams(omega=4.0)
        np.testing.assert_allclose(params.theta, 0.5, atol=1e-15)

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError, match="omega"):
            SingleModeParams(omega=0.0)
        with pytest.raises(ValueError, match="omega"):
            SingleModeParams(-4.0)

    def test_rejects_nonfinite_values(self):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="omega must be positive and finite"):
                SingleModeParams(omega=bad)

    def test_rejects_overflowing_scales(self):
        # A float power raises OverflowError where the check compares products.
        for omega, shown in ((1e-200, "omega 1e-200"), (1e-154, "omega 1e-154")):
            with pytest.raises(ValueError) as err:
                SingleModeParams(omega)
            assert str(err.value) == f"{shown} overflows (2 / omega)^2"
        params = SingleModeParams(1e-150)
        assert math.isfinite(params.theta)
        assert math.isfinite(gamma_single_mode(params, 1.0).gamma_r)


class TestGamma:
    def test_zero_time(self):
        g = gamma_single_mode(SingleModeParams(2.0), 0.0)
        assert g.gamma_r == 0.0
        assert g.gamma_i == 0.0
        assert g.overlap == 1.0

    def test_half_period_maximum(self):
        # At omega t = pi: gamma_r = 2 (2/omega)^2, gamma_i = 0.
        params = SingleModeParams(omega=2.0)
        g = gamma_single_mode(params, 0.5 * math.pi)
        np.testing.assert_allclose(g.gamma_r, 2.0, atol=1e-12)
        np.testing.assert_allclose(g.gamma_i, 0.0, atol=1e-12)

    def test_full_period_revival(self):
        params = SingleModeParams(omega=2.0)
        g = gamma_single_mode(params, math.pi)
        assert abs(g.gamma_r) <= 1e-12
        assert abs(g.gamma_i) <= 1e-12

    def test_quarter_period(self):
        # omega t = pi/2: 1 - cos = 1 and sin = 1, both gammas (2/omega)^2.
        params = SingleModeParams(omega=4.0)
        g = gamma_single_mode(params, math.pi / 8.0)
        np.testing.assert_allclose(g.gamma_r, 0.25, atol=1e-12)
        np.testing.assert_allclose(g.gamma_i, 0.25, atol=1e-12)

    def test_periodicity_and_positivity(self):
        # omega = 1.3 at lambda = 0.4, times scaled by lambda.
        params = SingleModeParams(omega=1.3 / 0.4)
        period = 2.0 * math.pi / params.omega
        rng = np.random.default_rng(23)
        for t in 0.4 * rng.uniform(0.0, 50.0, size=40):
            g = gamma_single_mode(params, t)
            g_shift = gamma_single_mode(params, t + period)
            assert g.gamma_r >= 0.0
            np.testing.assert_allclose(g_shift.gamma_r, g.gamma_r, atol=1e-10)
            np.testing.assert_allclose(g_shift.gamma_i, g.gamma_i, atol=1e-10)

    def test_overlap_property(self):
        g = GammaValue(gamma_r=2.0, gamma_i=0.7)
        np.testing.assert_allclose(g.overlap, math.exp(-2.0), atol=1e-15)
        with pytest.raises(ValueError, match="gamma_r"):
            GammaValue(gamma_r=-0.1, gamma_i=0.0)

    def test_rejects_nonfinite_time(self):
        params = SingleModeParams(2.0)
        for bad in (math.nan, math.inf, -1.0):
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                gamma_single_mode(params, bad)
            with pytest.raises(ValueError, match="t must be finite and nonnegative"):
                coherent_amplitude(params, bad)

    def test_gamma_value_rejects_nonfinite(self):
        for gamma_r, gamma_i in ((math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan),
                                 (0.5, -math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                GammaValue(gamma_r=gamma_r, gamma_i=gamma_i)

    def test_coherent_amplitude_magnitude(self):
        # |alpha(t)|^2 equals 2 gamma_r at every time, and vanishes at t = 0.
        params = SingleModeParams(omega=1.0 / 0.3)
        assert coherent_amplitude(params, 0.0) == 0.0
        for t in 0.3 * np.array([0.3, 1.0, 2.5, 7.0]):
            alpha = coherent_amplitude(params, t)
            g = gamma_single_mode(params, t)
            np.testing.assert_allclose(abs(alpha) ** 2, 2.0 * g.gamma_r,
                                       atol=1e-12)


class TestReducedDensity:
    def test_initial_time_is_projector(self):
        params = SingleModeParams(4.0)
        rho = evolve(params, UNIFORM, 0.0)
        vec = UNIFORM.vector()
        np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)

    def test_decohered_uniform_limit(self):
        # Deep in the decohered regime every factor between branches with
        # different displacement dies and the exact pattern
        # (1/4) [[1,0,0,0],[0,1,1,0],[0,1,1,0],[0,0,0,1]] survives, with
        # entropy exactly 1.5 bits.
        rho = reduced_density(UNIFORM, 0.0, GammaValue(50.0, 0.0))
        np.testing.assert_allclose(rho, DECOHERED_UNIFORM, atol=1e-12)
        np.testing.assert_allclose(von_neumann_entropy(rho), 1.5, atol=1e-10)

    def test_always_valid(self):
        rng = np.random.default_rng(29)
        params = SingleModeParams(1.0 / 0.7)
        for _ in range(25):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = QubitAmplitudes.normalized(*vec)
            rho = evolve(params, psi, 0.7 * rng.uniform(0.0, 20.0))
            assert validate_density(rho).valid

    def test_revival_restores_pure_state(self):
        params = SingleModeParams(omega=1.0 / 0.6)
        rng = np.random.default_rng(31)
        for k in (1, 2, 5):
            t = 2.0 * math.pi * k / params.omega
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = QubitAmplitudes.normalized(*vec)
            rho = evolve(params, psi, t)
            expected = ideal_concurrence(psi, params.theta * t)
            np.testing.assert_allclose(concurrence(rho), expected, atol=1e-10)

    def test_decoherence_free_pair_untouched(self):
        # States supported on the zero-displacement subspace never decohere.
        psi = QubitAmplitudes.normalized(0.0, 1.0, 1.0j, 0.0)
        params = SingleModeParams(omega=1.0 / 3.0)
        for t in (1.5, 3.0 * math.pi, 12.0):
            rho = evolve(params, psi, t)
            np.testing.assert_allclose(concurrence(rho), 1.0, atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            reduced_density(QubitAmplitudes(1.0, 1.0, 0.0, 0.0), 0.3,
                            GammaValue(0.1, 0.0))


class TestIdealConcurrence:
    def test_uniform_sine_law(self):
        theta_ts = np.linspace(0.0, math.pi, 17)
        for theta_t in theta_ts:
            expected = abs(math.sin(2.0 * theta_t))
            np.testing.assert_allclose(ideal_concurrence(UNIFORM, theta_t),
                                       expected, atol=1e-12)
        np.testing.assert_allclose(ideal_concurrence(UNIFORM, theta_ts),
                                   np.abs(np.sin(2.0 * theta_ts)), atol=1e-12)

    def test_bell_is_stationary_in_magnitude(self):
        for theta_t in (0.0, 0.3, math.pi / 4.0):
            np.testing.assert_allclose(
                ideal_concurrence(BELL_PHI, theta_t), 1.0, atol=1e-12)

    def test_matches_pure_state_at_revival(self):
        # At omega t = 2 pi k the reduced state is pure and its concurrence
        # must equal the coherent-limit value for arbitrary complex input.
        rng = np.random.default_rng(37)
        params = SingleModeParams(omega=1.0 / 0.45)
        for _ in range(20):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = QubitAmplitudes.normalized(*vec)
            t = 2.0 * math.pi * rng.integers(1, 6) / params.omega
            rho = evolve(params, psi, t)
            np.testing.assert_allclose(
                concurrence(rho), ideal_concurrence(psi, params.theta * t),
                atol=1e-9)


class TestTimeSeries:
    def test_matches_pointwise_ops(self):
        params = SingleModeParams(4.0)
        t_grid = np.linspace(0.0, 8.0, 33)
        series = time_series(params, UNIFORM, t_grid)
        assert list(series) == ["t", "theta_t", "concurrence", "ideal_concurrence",
                                "entropy", "overlap"]
        assert all(column.shape == (33,) for column in series.values())
        np.testing.assert_array_equal(series["t"], t_grid)
        for k in (0, 7, -1):
            t = series["t"][k]
            rho = evolve(params, UNIFORM, t)
            np.testing.assert_allclose(series["concurrence"][k], concurrence(rho),
                                       atol=1e-12)
            np.testing.assert_allclose(series["entropy"][k], von_neumann_entropy(rho),
                                       atol=1e-12)
            np.testing.assert_allclose(series["theta_t"][k], params.theta * t,
                                       atol=1e-12)
            np.testing.assert_allclose(series["ideal_concurrence"][k],
                                       ideal_concurrence(UNIFORM, params.theta * t),
                                       atol=1e-12)
            g = gamma_single_mode(params, t)
            np.testing.assert_allclose(series["overlap"][k], g.overlap, atol=1e-12)

    def test_initial_entropy_is_exactly_zero(self):
        # The t = 0 state is a projector.  For the second state the top
        # eigenvalue comes out as 1 + eps, which must give entropy 0, not -eps.
        params = SingleModeParams(4.5)
        for psi in (UNIFORM, QubitAmplitudes(0.5, 0.5j, -0.5, -0.5j)):
            series = time_series(params, psi, np.linspace(0.0, 5.0, 11))
            assert series["entropy"][0] == 0.0

    def test_pure_state_entropy_is_positive_zero(self):
        # At omega t = 2 pi k the state is pure: S is +0, which prints as 0, not -0.
        params = SingleModeParams(4.0)
        t = 2.0 * math.pi * np.arange(4) / params.omega
        for psi in (UNIFORM, QubitAmplitudes(0.5, 0.5j, -0.5, -0.5j)):
            entropy = time_series(params, psi, t)["entropy"]
            assert np.all(entropy == 0.0) and not np.any(np.signbit(entropy))

    def test_commensurate_ratio_exact_maximum(self):
        # omega/lambda = 4 sqrt(3): the theta t = pi/4 maximum lands on a
        # revival and the concurrence reaches 1 exactly.
        params = SingleModeParams(4.0 * math.sqrt(3.0))
        t_quarter = math.pi / (4.0 * params.theta)
        series = time_series(params, UNIFORM, np.array([t_quarter]))
        np.testing.assert_allclose(series["concurrence"][0], 1.0, atol=1e-9)
        np.testing.assert_allclose(series["ideal_concurrence"][0], 1.0, atol=1e-12)

    def test_weak_coupling_tracks_ideal_curve(self):
        # omega/lambda = 100: the reduced dynamics stays within a few parts
        # per thousand of the coherent limit over a full phase period.
        params = SingleModeParams(100.0)
        t_grid = np.linspace(0.0, math.pi / (2.0 * params.theta), 401)
        series = time_series(params, UNIFORM, t_grid)
        gap = np.max(np.abs(series["concurrence"] - series["ideal_concurrence"]))
        max_entropy = np.max(series["entropy"])
        assert gap <= 5e-3
        assert max_entropy <= 0.02

    def test_rejects_bad_grid(self):
        params = SingleModeParams(2.0)
        with pytest.raises(ValueError, match="increasing"):
            time_series(params, UNIFORM, np.array([0.0, 2.0, 1.0]))
        with pytest.raises(ValueError, match="nonnegative"):
            time_series(params, UNIFORM, np.array([-1.0, 0.0, 1.0]))
        for bad in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                time_series(params, UNIFORM, np.array([0.0, bad]))

    def test_rejects_an_overflowing_grid(self, monkeypatch):
        monkeypatch.setattr(single_mode, "_gammas", _refuse)
        with pytest.raises(ValueError) as err:
            time_series(SingleModeParams(1e160), UNIFORM, np.array([0.0, 1e150, 1e155]))
        assert str(err.value) == "omega t = 1e+160 * 1e+155 overflows"
        # theta = 2e100 keeps omega t finite but overflows the phase 2 theta t.
        with pytest.raises(ValueError) as err:
            time_series(SingleModeParams(1e-100), UNIFORM, np.array([0.0, 1e208]))
        assert str(err.value) == "2 theta t = 4e+100 * 1e+208 overflows"
