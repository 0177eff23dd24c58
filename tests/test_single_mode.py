"""Closed-form single-mode dynamics: decoherence factors, revivals, sweeps.

Frozen expected values come from evaluating the analytic expressions by hand
at special times (t = 0, half period, full period) and from the exact
decohered limit of the uniform state.
"""

import math

import numpy as np
import pytest

from twospinboson import single_mode
from twospinboson.entanglement import entanglement_measures, reduced_density, validate_density
from twospinboson.single_mode import (
    QubitAmplitudes,
    SingleModeParams,
    _gammas,
    _require_grid,
    ideal_concurrence,
    time_series,
)

UNIFORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5)
BELL_PHI = QubitAmplitudes(1 / math.sqrt(2), 0.0, 0.0, 1 / math.sqrt(2))
DECOHERED_UNIFORM = np.array(
    [[1, 0, 0, 0],
     [0, 1, 1, 0],
     [0, 1, 1, 0],
     [0, 0, 0, 1]], dtype=float) / 4.0


def evolve(params, psi, t):
    """Reduced state of the single-mode model at time t (in 1/lambda)."""
    return reduced_density(psi, params.theta * t, *_gammas(params.omega, t))


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
        assert math.isfinite(_gammas(params.omega, 1.0)[0])

    def test_rejects_an_overflowing_peak_of_gamma_r(self):
        # (2 / omega)^2 = 1.78e308 is finite, but gamma_r's factor 2 (2 / omega)^2
        # is not: at t = 0 it would give inf * 0 = NaN.
        with pytest.raises(ValueError) as err:
            SingleModeParams(1.5e-154)
        assert str(err.value) == "omega 1.5e-154 overflows 2 (2 / omega)^2, the peak of gamma_r"
        params = SingleModeParams(2.2e-154)
        with np.errstate(all="raise"):
            gamma_r, _ = _gammas(params.omega, np.array([0.0, math.pi / params.omega]))
        assert gamma_r[0] == 0.0 and math.isfinite(gamma_r[1])


class TestGamma:
    def test_zero_time(self):
        assert _gammas(2.0, 0.0) == (0.0, 0.0)

    def test_omega_column_equals_its_rows(self):
        # One broadcast call over an (n, 1) column of omegas gives, bit for
        # bit, the rows of one call per omega, as period-stats relies on.
        omegas = 4.0 * np.sqrt(np.linspace(0.25, 12.0, 47))
        theta_ts = np.linspace(0.0, 0.5 * math.pi, 2001)
        thetas = 2.0 / omegas
        gamma_rs, gamma_is = _gammas(omegas[:, None], theta_ts / thetas[:, None])
        for k, omega in enumerate(omegas.tolist()):
            params = SingleModeParams(omega)
            row_r, row_i = _gammas(params.omega, theta_ts / params.theta)
            assert gamma_rs[k].tobytes() == row_r.tobytes()
            assert gamma_is[k].tobytes() == row_i.tobytes()

    def test_half_period_maximum(self):
        # At omega t = pi: gamma_r = 2 (2/omega)^2, gamma_i = 0.
        params = SingleModeParams(omega=2.0)
        gamma_r, gamma_i = _gammas(params.omega, 0.5 * math.pi)
        np.testing.assert_allclose(gamma_r, 2.0, atol=1e-12)
        np.testing.assert_allclose(gamma_i, 0.0, atol=1e-12)

    def test_full_period_revival(self):
        params = SingleModeParams(omega=2.0)
        gamma_r, gamma_i = _gammas(params.omega, math.pi)
        assert abs(gamma_r) <= 1e-12
        assert abs(gamma_i) <= 1e-12

    def test_quarter_period(self):
        # omega t = pi/2: 1 - cos = 1 and sin = 1, both gammas (2/omega)^2.
        params = SingleModeParams(omega=4.0)
        gamma_r, gamma_i = _gammas(params.omega, math.pi / 8.0)
        np.testing.assert_allclose(gamma_r, 0.25, atol=1e-12)
        np.testing.assert_allclose(gamma_i, 0.25, atol=1e-12)

    def test_periodicity_and_positivity(self):
        # omega = 1.3 at lambda = 0.4, times scaled by lambda.
        params = SingleModeParams(omega=1.3 / 0.4)
        period = 2.0 * math.pi / params.omega
        rng = np.random.default_rng(23)
        for t in 0.4 * rng.uniform(0.0, 50.0, size=40):
            gamma_r, gamma_i = _gammas(params.omega, t)
            shifted_r, shifted_i = _gammas(params.omega, t + period)
            assert gamma_r >= 0.0
            np.testing.assert_allclose(shifted_r, gamma_r, atol=1e-10)
            np.testing.assert_allclose(shifted_i, gamma_i, atol=1e-10)

    def test_displacement_magnitude(self):
        # The |00> branch is displaced by alpha(t) = theta (e^{-i omega t} - 1):
        # |alpha(t)|^2 equals 2 gamma_r at every time, and vanishes at t = 0.
        params = SingleModeParams(omega=1.0 / 0.3)
        times = 0.3 * np.array([0.0, 0.3, 1.0, 2.5, 7.0])
        alpha = params.theta * (np.exp(-1j * params.omega * times) - 1.0)
        assert alpha[0] == 0.0
        np.testing.assert_allclose(np.abs(alpha) ** 2, 2.0 * _gammas(params.omega, times)[0],
                                   atol=1e-12)

    def test_overlap_property(self):
        # A displaced branch overlaps an undisplaced one by exp(-gamma_r) in
        # magnitude; gamma_i only turns the phase.
        rho = reduced_density(UNIFORM, 0.0, 2.0, 0.7)
        np.testing.assert_allclose(abs(rho[0, 1]) / 0.25, math.exp(-2.0), atol=1e-15)
        with pytest.raises(ValueError, match="gamma_r"):
            reduced_density(UNIFORM, 0.0, -0.1, 0.0)

    def test_gamma_value_rejects_nonfinite(self):
        for gamma_r, gamma_i in ((math.nan, 0.0), (math.inf, 0.0), (0.5, math.nan),
                                 (0.5, -math.inf)):
            with pytest.raises(ValueError, match="must be finite"):
                reduced_density(UNIFORM, 0.0, gamma_r, gamma_i)


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
        rho = reduced_density(UNIFORM, 0.0, 50.0, 0.0)
        np.testing.assert_allclose(rho, DECOHERED_UNIFORM, atol=1e-12)
        np.testing.assert_allclose(entanglement_measures(rho)[1], 1.5, atol=1e-10)

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
            np.testing.assert_allclose(entanglement_measures(rho)[0], expected, atol=1e-10)

    def test_decoherence_free_pair_untouched(self):
        # States supported on the zero-displacement subspace never decohere.
        psi = QubitAmplitudes.normalized(0.0, 1.0, 1.0j, 0.0)
        params = SingleModeParams(omega=1.0 / 3.0)
        for t in (1.5, 3.0 * math.pi, 12.0):
            rho = evolve(params, psi, t)
            np.testing.assert_allclose(entanglement_measures(rho)[0], 1.0, atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            reduced_density(QubitAmplitudes(1.0, 1.0, 0.0, 0.0), 0.3, 0.1, 0.0)

    def test_rejects_bad_exponents(self):
        # A non-finite exponent anywhere in the stack, or a negative gamma_r,
        # is refused with one line before any state is built.
        for gamma_r, gamma_i in (([0.1, math.nan], 0.0), (0.1, [0.0, math.inf])):
            with pytest.raises(ValueError, match="must be finite"):
                reduced_density(UNIFORM, 0.3, gamma_r, gamma_i)
        for gamma_r in ([0.2, -1e-300], [[0.0], [-0.1]]):
            with pytest.raises(ValueError, match="gamma_r must be nonnegative"):
                reduced_density(UNIFORM, 0.3, gamma_r, 0.0)

    def test_stack_equals_single_states(self):
        # Scalars and arrays broadcast to one stack; each entry is, bit for
        # bit, the state built from its own scalars.
        params = SingleModeParams(2.3)
        times = np.linspace(0.0, 4.0, 6)
        theta_ts = params.theta * times
        gamma_rs, gamma_is = _gammas(params.omega, times)
        stack = reduced_density(UNIFORM, theta_ts, gamma_rs, gamma_is)
        assert stack.shape == (6, 4, 4)
        for k in range(6):
            single = reduced_density(UNIFORM, theta_ts[k], gamma_rs[k], gamma_is[k])
            assert single.shape == (4, 4)
            assert stack[k].tobytes() == single.tobytes()
        assert reduced_density(UNIFORM, theta_ts[:, None], gamma_rs, 0.0).shape == (6, 6, 4, 4)


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
                entanglement_measures(rho)[0], ideal_concurrence(psi, params.theta * t),
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
            np.testing.assert_allclose(series["concurrence"][k], entanglement_measures(rho)[0],
                                       atol=1e-12)
            np.testing.assert_allclose(series["entropy"][k], entanglement_measures(rho)[1],
                                       atol=1e-12)
            np.testing.assert_allclose(series["theta_t"][k], params.theta * t,
                                       atol=1e-12)
            np.testing.assert_allclose(series["ideal_concurrence"][k],
                                       ideal_concurrence(UNIFORM, params.theta * t),
                                       atol=1e-12)
            np.testing.assert_allclose(series["overlap"][k], math.exp(-_gammas(params.omega, t)[0]),
                                       atol=1e-12)

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

    def test_rejects_an_overflowing_grid(self, spy):
        spy(single_mode, "_gammas", raises=AssertionError("evaluated an overflowing grid"))
        with pytest.raises(ValueError) as err:
            time_series(SingleModeParams(1e160), UNIFORM, np.array([0.0, 1e150, 1e155]))
        assert str(err.value) == "omega t = 1e+160 * 1e+155 overflows"
        # theta = 2e100 keeps omega t finite but overflows the phase 2 theta t.
        with pytest.raises(ValueError) as err:
            time_series(SingleModeParams(1e-100), UNIFORM, np.array([0.0, 1e208]))
        assert str(err.value) == "2 theta t = 4e+100 * 1e+208 overflows"


def _normalized_by_arrays(a, b, c, d) -> np.ndarray:
    """QubitAmplitudes.normalized as numpy array arithmetic: scale, norm, divide."""
    vec = np.array([a, b, c, d], dtype=complex)
    peak = float(np.max(np.abs(vec.view(float))))
    vec = np.ldexp(vec.view(float), -math.frexp(peak)[1]).view(complex)
    return vec / float(np.linalg.norm(vec))


def _require_grid_by_arrays(values, name):
    """_require_grid's checks as np.all, np.isfinite and np.diff."""
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{name} entries must be finite")
    if grid[0] < 0.0:
        raise ValueError(f"{name} entries must be nonnegative")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return grid


class TestSetUpBits:
    """The per-run set-up in plain floats against its numpy array form."""

    def test_normalized_keeps_the_bits_of_the_array_division(self):
        rng = np.random.default_rng(20)
        parts = np.copysign(10.0 ** rng.uniform(-300.0, 300.0, (10_000, 8)),
                            rng.uniform(-1.0, 1.0, (10_000, 8)))
        kind = rng.integers(0, 10, parts.shape)
        parts[kind == 0] = 0.0
        parts[kind == 1] = -0.0
        # Parts many decades below the largest underflow when it is scaled to
        # [1/2, 1); rows of one decade keep every part.
        parts[:1000] = np.copysign(10.0 ** rng.uniform(-1.0, 0.0, (1000, 8)), parts[:1000])
        parts[0] = [-0.0, 0.0, 0.0, -0.0, 5e-324, -0.0, 0.0, -5e-324]
        parts[1] = [1e300, -0.0, -0.0, 1e-300, 0.0, -0.0, -1e300, 0.0]
        tested = 0
        for row in parts.view(complex):
            if not row.any():
                continue
            values = [complex(z) for z in row]
            psi = QubitAmplitudes.normalized(*values)
            assert psi.vector().tobytes() == _normalized_by_arrays(*values).tobytes(), values
            tested += 1
        assert tested >= 9_990

    def test_norm_defect_is_the_array_sum_to_rounding(self):
        # Plain floats, |z|^2 as Re^2 + Im^2: within a few ulps of the numpy
        # sum, and inf or NaN past the largest float without a warning.
        rng = np.random.default_rng(21)
        parts = rng.normal(size=(2000, 8)) * 10.0 ** rng.uniform(-3.0, 3.0, (2000, 1))
        for row in parts.view(complex):
            psi = QubitAmplitudes(*(complex(z) for z in row))
            total = float(np.sum(np.abs(psi.vector()) ** 2))
            assert abs(psi.norm_defect() - abs(total - 1.0)) <= 4.0 * np.finfo(float).eps * max(total, 1.0)
        assert QubitAmplitudes(1e200, 0.0, 0.0, 0.0).norm_defect() == math.inf
        assert math.isnan(QubitAmplitudes(complex(0.0, math.nan), 0.0, 0.0, 0.0).norm_defect())

    @pytest.mark.parametrize("grid", [
        [0.0, math.nan], [math.nan, 1.0], [0.0, math.inf], [-math.inf, 0.0],
        [-1.0, 0.0, 1.0], [-1.0, math.nan], [-1.0, -2.0], [0.0, 1.0, 1.0], [0.0, 2.0, 1.0],
        [0.0, 1.7e308, -1.7e308], [1.0, 1.0], [0.0, 0.0, math.nan], [0.0, -0.0], [],
        [[0.0, 1.0]], [2.0], [0.0, 5e-324, 1e-323], [-0.0, 1.7e308]])
    def test_require_grid_gives_the_messages_of_the_array_checks(self, grid):
        with np.errstate(over="ignore"):
            try:
                expected = _require_grid_by_arrays(grid, "grid")
            except ValueError as err:
                expected = str(err)
        try:
            got = _require_grid(grid, "grid")
        except ValueError as err:
            got = str(err)
        if isinstance(expected, str):
            assert got == expected
        else:
            assert got.tobytes() == expected.tobytes()
