"""Truncated-oscillator cross-check against the closed-form reduced state.

The numerically exact route diagonalizes the displaced-oscillator blocks in a
finite number-state basis; these tests pin its agreement with the analytic
route and the behavior of the truncation guard.
"""

import math

import numpy as np
import pytest

from twospinboson.entanglement import reduced_density, validate_density
from twospinboson import fock, single_mode
from twospinboson.fock import (
    MAX_N_CUT,
    FockConfig,
    TruncationError,
    evolve_auto,
    evolve_truncated,
    initial_cutoff,
    oscillator_branch,
    trace_distance,
)
from twospinboson.single_mode import (
    InvalidDensityMatrixError,
    QubitAmplitudes,
    SingleModeParams,
)

UNIFORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5)


def assert_time_rejected_before_eigh(spy, evolve, *extra):
    # A NaN or infinite time is refused with one line, before any eigh and
    # without a numpy warning.
    spy(np.linalg, "eigh", raises=AssertionError("eigh was called"))
    params = SingleModeParams(omega=4.0)
    for t in (math.nan, math.inf):
        with pytest.raises(ValueError, match="t must be finite and nonnegative") as excinfo:
            evolve(params, UNIFORM, t, *extra)
        assert len(str(excinfo.value).splitlines()) == 1


def closed_form(params, psi, t):
    return reduced_density(psi, params.theta * t, *single_mode._gammas(params.omega, t))


class TestConfig:
    def test_rejects_small_cutoff(self):
        with pytest.raises(ValueError, match="n_cut"):
            FockConfig(n_cut=4)
        # A fractional cutoff would propagate in np.arange(n_cut + 1) levels.
        with pytest.raises(ValueError, match=r"^n_cut must be an integer, got 8\.5$"):
            FockConfig(n_cut=8.5)

    def test_initial_cutoff_scales_with_coupling(self):
        weak = initial_cutoff(SingleModeParams(omega=4.0))
        strong = initial_cutoff(SingleModeParams(omega=0.25))
        assert weak >= 8
        assert strong > weak
        # 8 (2 / omega)^2 + 16 with omega/lambda = 1/4 gives 512 + 16.
        assert strong == 528


class TestOscillatorBranch:
    def test_unshifted_branch_stays_in_vacuum(self):
        params = SingleModeParams(omega=1.0 / 0.9)
        state = oscillator_branch(params, 0, 0.9 * 2.7, 32)
        np.testing.assert_allclose(abs(state[0]), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(state[1:]), 0.0, atol=1e-12)

    def test_unitary_norm(self):
        params = SingleModeParams(omega=2.0)
        for shift in (2, 0, -2):
            state = oscillator_branch(params, shift, 0.5 * 3.1, 48)
            np.testing.assert_allclose(np.linalg.norm(state), 1.0, atol=1e-10)

    def test_vacuum_overlap_matches_damping_factor(self):
        # |<0|branch>| = exp(-|alpha|^2 / 2) = exp(-gamma_r) for the
        # displaced branch; at omega t = pi with omega/lambda = 2, gamma_r = 2.
        params = SingleModeParams(omega=2.0)
        state = oscillator_branch(params, 2, 0.5 * math.pi, 64)
        np.testing.assert_allclose(abs(state[0]), math.exp(-2.0), atol=1e-10)

    def test_opposite_shifts_related_by_parity(self):
        # Flipping the displacement sign flips the sign of every odd Fock
        # component and nothing else.
        params = SingleModeParams(omega=1.0 / 0.4)
        up = oscillator_branch(params, 2, 0.4 * 1.3, 48)
        down = oscillator_branch(params, -2, 0.4 * 1.3, 48)
        signs = (-1.0) ** np.arange(48)
        np.testing.assert_allclose(down, signs * up, atol=1e-10)


class TestEvolveTruncated:
    def test_initial_time_projector(self):
        params = SingleModeParams(2.0)
        rho, leak = evolve_truncated(params, UNIFORM, 0.0, FockConfig(n_cut=16))
        vec = UNIFORM.vector()
        np.testing.assert_allclose(rho, np.outer(vec, vec.conj()), atol=1e-12)
        assert leak <= 1e-15

    def test_matches_closed_form_quarter_phase(self):
        # omega/lambda = 4 at theta t = pi/4 with a generous basis: the two
        # routes agree to well below 1e-8 in trace distance.
        params = SingleModeParams(4.0)
        t = math.pi / (4.0 * params.theta)
        exact = closed_form(params, UNIFORM, t)
        numeric, leak = evolve_truncated(params, UNIFORM, t, FockConfig(n_cut=40))
        assert leak < 1e-10
        assert trace_distance(numeric, exact) < 1e-8

    def test_truncation_error_on_tight_basis(self):
        # Strong coupling pushes the displaced packet past a minimal basis.
        params = SingleModeParams(omega=0.5)
        with pytest.raises(TruncationError) as excinfo:
            evolve_truncated(params, UNIFORM, 2.0 * math.pi, FockConfig(n_cut=8))
        assert excinfo.value.leak > 1e-10
        assert excinfo.value.n_cut == 8
        assert "n_cut" in str(excinfo.value)

    def test_valid_density_on_random_inputs(self):
        rng = np.random.default_rng(41)
        params = SingleModeParams(omega=1.0 / 0.6)
        config = FockConfig(n_cut=48)
        for _ in range(10):
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            psi = QubitAmplitudes.normalized(*vec)
            rho, leak = evolve_truncated(params, psi, 0.6 * rng.uniform(0.0, 12.0),
                                         config)
            assert leak < fock._LEAK_TOL
            assert validate_density(rho).valid

    def test_rejects_nonfinite_time(self, spy):
        assert_time_rejected_before_eigh(spy, evolve_truncated, FockConfig(n_cut=16))


class TestEvolveAuto:
    def test_escalates_until_converged(self):
        params = SingleModeParams(omega=0.5)
        rho, config = evolve_auto(params, UNIFORM, 2.0 * math.pi)
        assert config.n_cut >= initial_cutoff(params)
        exact = closed_form(params, UNIFORM, 2.0 * math.pi)
        assert trace_distance(rho, exact) < 1e-8

    def test_tracks_closed_form_along_a_period(self):
        params = SingleModeParams(4.0)
        for frac in (0.1, 0.3, 0.5, 0.8, 1.0):
            t = frac * 2.0 * math.pi / params.omega
            rho, _ = evolve_auto(params, UNIFORM, t)
            exact = closed_form(params, UNIFORM, t)
            assert trace_distance(rho, exact) < 1e-8

    def test_rejects_nonfinite_time(self, spy):
        assert_time_rejected_before_eigh(spy, evolve_auto)

    def test_refuses_cutoff_above_ceiling_before_eigh(self, spy):
        # omega/lambda = 0.05 starts at n_cut = 12816, a dense 12817^2 block.
        spy(np.linalg, "eigh", raises=AssertionError("eigh was called"))
        params = SingleModeParams(0.05)
        assert initial_cutoff(params) == 12816 > MAX_N_CUT
        with pytest.raises(TruncationError, match="above the ceiling") as excinfo:
            evolve_auto(params, UNIFORM, 1.0)
        assert excinfo.value.n_cut == 12816
        with pytest.raises(ValueError, match="n_cut"):
            FockConfig(n_cut=MAX_N_CUT + 1)

    def test_escalation_stops_at_ceiling(self, monkeypatch, spy):
        # The ceiling is tried once, not doubled past; a leak tolerance of
        # 1e-300 cannot be met, so the last attempt is at the ceiling itself.
        monkeypatch.setattr(fock, "MAX_N_CUT", 24)
        monkeypatch.setattr(fock, "_LEAK_TOL", 1e-300)
        params = SingleModeParams(omega=4.0)
        assert initial_cutoff(params) == 18
        tried = spy(fock, "oscillator_branch", record=lambda params, shift, t, dim: dim - 1)
        with pytest.raises(TruncationError, match="ceiling n_cut=24") as excinfo:
            evolve_auto(params, UNIFORM, 1.0)
        assert excinfo.value.n_cut == 24
        assert sorted(set(tried)) == [18, 24]


class TestTraceDistance:
    def test_identical_states(self):
        rho = np.eye(4) / 4.0
        assert trace_distance(rho, rho) <= 1e-15

    def test_orthogonal_pure_states(self):
        a = np.zeros((4, 4)); a[0, 0] = 1.0
        b = np.zeros((4, 4)); b[3, 3] = 1.0
        np.testing.assert_allclose(trace_distance(a, b), 1.0, atol=1e-12)

    def test_projector_to_mixed(self):
        # Eigenvalues of the difference are {3/4, -1/4, -1/4, -1/4}.
        proj = np.zeros((4, 4)); proj[0, 0] = 1.0
        np.testing.assert_allclose(trace_distance(proj, np.eye(4) / 4.0), 0.75,
                                   atol=1e-12)

    def test_symmetry(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho1 = a @ a.conj().T; rho1 /= np.trace(rho1).real
        b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        rho2 = b @ b.conj().T; rho2 /= np.trace(rho2).real
        np.testing.assert_allclose(trace_distance(rho1, rho2),
                                   trace_distance(rho2, rho1), atol=1e-14)

    def test_rejects_invalid_input(self):
        with pytest.raises(InvalidDensityMatrixError):
            trace_distance(np.eye(4), np.eye(4) / 4.0)
