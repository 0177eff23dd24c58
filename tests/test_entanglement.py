"""State-algebra tests: validity reports, concurrence, entropy.

Expected values are frozen from independent routes: the Werner-state closed
form max{0, (3p-1)/2}, hand eigendecompositions of small matrices, and the
general (non-Hermitian) Wootters eigenvalue route.
"""

import math
import warnings

import numpy as np
import pytest

from twospinboson import bath, single_mode
from twospinboson.entanglement import (
    InvalidDensityMatrixError,
    QubitAmplitudes,
    concurrence,
    entanglement_measures,
    pure_concurrence,
    purity,
    validate_density,
    von_neumann_entropy,
)

BELL = np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0
MIXED = np.eye(4) / 4.0
# Fully decohered uniform-amplitude state: eigenvalues {1/2, 1/4, 1/4, 0}.
DECOHERED = np.array(
    [[1, 0, 0, 0],
     [0, 1, 1, 0],
     [0, 1, 1, 0],
     [0, 0, 0, 1]], dtype=float) / 4.0


def random_density(rng):
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_pure(rng):
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    return QubitAmplitudes.normalized(*vec)


class TestValidateDensity:
    def test_maximally_mixed(self):
        check = validate_density(MIXED)
        assert check.valid
        np.testing.assert_allclose(check.min_eigenvalue, 0.25, atol=1e-14)

    def test_pure_projector(self):
        rho = np.zeros((4, 4)); rho[0, 0] = 1.0
        check = validate_density(rho)
        assert check.valid
        assert abs(check.min_eigenvalue) <= 1e-14

    def test_trace_defect(self):
        check = validate_density(1.1 * MIXED)
        assert not check.valid
        np.testing.assert_allclose(check.trace_defect, 0.1, atol=1e-14)

    def test_hermiticity_defect(self):
        rho = MIXED.astype(complex).copy()
        rho[0, 1] = 0.3
        check = validate_density(rho)
        assert not check.valid
        assert check.hermiticity_defect >= 0.3 - 1e-12

    def test_negative_eigenvalue(self):
        rho = np.diag([1.2, 0.1, -0.3, 0.0])
        check = validate_density(rho)
        assert not check.valid
        assert check.min_eigenvalue < -1e-10

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError, match="4x4"):
            validate_density(np.eye(3))

    def test_nonfinite_matrix_is_invalid(self):
        for bad in (np.full((4, 4), np.nan), np.diag([np.inf, 0.0, 0.0, 0.0])):
            check = validate_density(bad)
            assert not check.valid
            assert np.isnan(check.min_eigenvalue)
            with pytest.raises(InvalidDensityMatrixError, match="nan"):
                concurrence(bad)


class TestConcurrence:
    def test_bell_state(self):
        np.testing.assert_allclose(concurrence(BELL), 1.0, atol=1e-12)

    def test_maximally_mixed(self):
        assert concurrence(MIXED) == 0.0

    def test_werner_half(self):
        # Frozen: closed form max{0, (3p-1)/2} at p = 1/2 gives exactly 1/4.
        werner = 0.5 * BELL + 0.5 * MIXED
        np.testing.assert_allclose(concurrence(werner), 0.25, atol=1e-12)

    def test_werner_closed_form(self):
        for p in (0.0, 0.2, 1.0 / 3.0, 0.6, 1.0):
            werner = p * BELL + (1.0 - p) * MIXED
            expected = max(0.0, (3.0 * p - 1.0) / 2.0)
            np.testing.assert_allclose(concurrence(werner), expected, atol=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(InvalidDensityMatrixError) as excinfo:
            concurrence(1.1 * MIXED)
        assert excinfo.value.check.trace_defect > 0.09

    def test_matches_general_eigensolver_route(self):
        flip = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]],
                        dtype=float)
        rng = np.random.default_rng(7)
        for _ in range(40):
            rho = random_density(rng)
            lam = np.linalg.eigvals(rho @ flip @ rho.conj() @ flip)
            assert np.max(np.abs(lam.imag)) < 1e-10
            r = np.sort(np.sqrt(np.clip(lam.real, 0.0, None)))[::-1]
            reference = max(0.0, r[0] - r[1] - r[2] - r[3])
            np.testing.assert_allclose(concurrence(rho), reference, atol=1e-9)

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            rho = random_density(rng)
            us = []
            for _ in range(2):
                g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
                q, r = np.linalg.qr(g)
                us.append(q * (np.diag(r) / np.abs(np.diag(r))))
            u = np.kron(us[0], us[1])
            rotated = u @ rho @ u.conj().T
            np.testing.assert_allclose(concurrence(rotated), concurrence(rho),
                                       atol=1e-9)
            np.testing.assert_allclose(von_neumann_entropy(rotated),
                                       von_neumann_entropy(rho), atol=1e-9)

    def test_ranges(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            rho = random_density(rng)
            assert 0.0 <= concurrence(rho) <= 1.0
            assert 0.0 <= von_neumann_entropy(rho) <= 2.0


class TestPureConcurrence:
    def test_bell(self):
        psi = QubitAmplitudes(1 / math.sqrt(2), 0, 0, 1 / math.sqrt(2))
        np.testing.assert_allclose(pure_concurrence(psi), 1.0, atol=1e-12)

    def test_product_state(self):
        assert pure_concurrence(QubitAmplitudes(1, 0, 0, 0)) == 0.0

    def test_quarter_phase_gives_sine_maximum(self):
        # Uniform amplitudes with the d amplitude rotated by e^{4 i theta t}
        # at theta t = pi/4: concurrence |sin(2 theta t)| = 1.
        theta_t = math.pi / 4.0
        psi = QubitAmplitudes(0.5, 0.5, 0.5, 0.5 * np.exp(4j * theta_t))
        np.testing.assert_allclose(pure_concurrence(psi), 1.0, atol=1e-12)

    def test_agrees_with_density_route(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            psi = random_pure(rng)
            vec = psi.vector()
            rho = np.outer(vec, vec.conj())
            np.testing.assert_allclose(concurrence(rho), pure_concurrence(psi),
                                       atol=1e-10)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="not normalized"):
            pure_concurrence(QubitAmplitudes(1.0, 1.0, 0.0, 0.0))

    @pytest.mark.parametrize("call", [
        pure_concurrence,
        lambda psi: single_mode.reduced_density(psi, 0.3, single_mode.GammaValue(0.1, 0.2)),
        lambda psi: single_mode.ideal_concurrence(psi, 0.3),
        lambda psi: single_mode.time_series(single_mode.SingleModeParams(4.0), psi, [0.0, 1.0]),
        lambda psi: bath.steady_state_stats(bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1), psi),
    ], ids=["pure_concurrence", "reduced_density", "ideal_concurrence", "time_series",
            "steady_state_stats"])
    def test_rejects_nan_amplitudes(self, call):
        # A NaN norm defect fails every comparison, so it must be refused, not passed.
        with pytest.raises(ValueError, match="not normalized"):
            call(QubitAmplitudes(math.nan, 0.5, 0.5, 0.5))

    def test_normalized_constructor(self):
        psi = QubitAmplitudes.normalized(1.0, 1.0, 1.0, 1.0)
        assert psi.norm_defect() < 1e-15
        assert psi.a == 0.5
        with pytest.raises(ValueError, match="zero"):
            QubitAmplitudes.normalized(0, 0, 0, 0)

    def test_normalized_extreme_magnitudes(self):
        # The norm of these vectors overflows or underflows when squared.
        for values, expected in (((1e160, 1e160, 0, 0), (1.0, 1.0, 0.0, 0.0)),
                                 ((3e-170, 4e-170, 0, 0), (0.6, 0.8, 0.0, 0.0)),
                                 ((1.7e308 + 1.7e308j, 0, 0, 0), (1.0 + 1.0j, 0.0, 0.0, 0.0))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                psi = QubitAmplitudes.normalized(*values)
            target = np.array(expected) / np.linalg.norm(expected)
            np.testing.assert_allclose(psi.vector(), target, rtol=0.0, atol=1e-15)
        with pytest.raises(ValueError, match="cannot normalize the zero amplitude vector"):
            QubitAmplitudes.normalized(0.0, 0.0j, 0.0, 0.0)

    def test_normalized_rejects_nonfinite(self):
        for bad in (float("nan"), float("inf"), complex(0.0, float("nan"))):
            with pytest.raises(ValueError, match="finite"):
                QubitAmplitudes.normalized(1.0, 0.0, 0.0, bad)


class TestEntropy:
    def test_pure_projector(self):
        assert von_neumann_entropy(BELL) <= 1e-12

    def test_maximally_mixed(self):
        np.testing.assert_allclose(von_neumann_entropy(MIXED), 2.0, atol=1e-12)

    def test_pure_state_entropy_is_positive_zero(self):
        product = np.zeros((4, 4))
        product[0, 0] = 1.0
        _, entropy = entanglement_measures(np.array([BELL, product]))
        assert np.all(entropy == 0.0) and not np.any(np.signbit(entropy))

    def test_decohered_uniform_limit(self):
        # Frozen: eigenvalues {1/2, 1/4, 1/4, 0} give 0.5 + 2*(0.25*2) bits.
        eigs = np.sort(np.linalg.eigvalsh(DECOHERED))
        np.testing.assert_allclose(eigs, [0.0, 0.25, 0.25, 0.5], atol=1e-14)
        np.testing.assert_allclose(von_neumann_entropy(DECOHERED), 1.5, atol=1e-12)

    def test_rejects_invalid(self):
        with pytest.raises(InvalidDensityMatrixError):
            von_neumann_entropy(np.diag([1.2, 0.1, -0.3, 0.0]))


class TestBatchMeasures:
    def test_matches_scalar_ops(self):
        rng = np.random.default_rng(19)
        rhos = np.array([random_density(rng) for _ in range(12)])
        conc, entropy = entanglement_measures(rhos)
        for k in range(12):
            np.testing.assert_allclose(conc[k], concurrence(rhos[k]), atol=1e-12)
            np.testing.assert_allclose(entropy[k], von_neumann_entropy(rhos[k]),
                                       atol=1e-12)

    def test_invalid_member_rejected(self):
        rhos = np.array([MIXED, 1.1 * MIXED])
        with pytest.raises(InvalidDensityMatrixError):
            entanglement_measures(rhos)

    def test_error_names_first_bad_index(self):
        rhos = np.array([MIXED, BELL, np.diag([1.2, 0.1, -0.3, 0.0]), DECOHERED])
        with pytest.raises(InvalidDensityMatrixError, match="at batch index 2:") as excinfo:
            entanglement_measures(rhos)
        assert excinfo.value.index == 2
        np.testing.assert_allclose(excinfo.value.check.min_eigenvalue, -0.3, atol=1e-14)
        with pytest.raises(InvalidDensityMatrixError) as single:
            entanglement_measures(rhos[2])
        assert single.value.index is None and "index" not in str(single.value)

    def test_nonfinite_member_rejected(self):
        rhos = np.array([MIXED, BELL, np.full((4, 4), np.nan), DECOHERED])
        with pytest.raises(InvalidDensityMatrixError, match="at batch index 2:") as excinfo:
            entanglement_measures(rhos)
        assert not excinfo.value.check.valid

    def test_pure_states_have_zero_entropy(self):
        # A pure state's top eigenvalue can come out as 1 + eps; the entropy
        # must still be nonnegative and at rounding level.
        rng = np.random.default_rng(41)
        vecs = [random_pure(rng).vector() for _ in range(50)]
        rhos = np.array([np.outer(v, v.conj()) for v in vecs])
        _, entropy = entanglement_measures(rhos)
        assert np.all(entropy >= 0.0)
        assert np.all(entropy <= 1e-14)

    def test_purity(self):
        assert abs(purity(BELL) - 1.0) <= 1e-12
        np.testing.assert_allclose(purity(MIXED), 0.25, atol=1e-14)
