"""Model-state measures by the Gram route against the 4x4 kernel and 40-digit mpmath.

``single_mode._model_measures`` computes the entropy of every model state
from the exact invariants of the Gram form H, with one real 3x3 ``eigvalsh``
only on the rows whose closed-form top eigenvalue it cannot certify, and the
concurrence in closed form: the index flip splits Uhlmann's tau into a 1x1
and a 2x2 block, whose singular values are sums of nonnegative terms.  On
ordinary inputs no ``np.linalg`` function is called.  The steady-state
scan, ``time_series``, ``commensurability_table`` and ``state_series`` all
go through it.  Oracles: the general kernel ``entanglement_measures`` applied to the
4x4 states the helper stands for (values and validation decisions), and,
where that kernel loses accuracy, where the state is nearly pure or nearly
unentangled, or where the closed form could cancel or round its phase, the
Wootters formula at 40 digits.
"""

import math
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twospinboson import bath, entanglement, single_mode, sweeps
from twospinboson.bath import OhmicGapSpectrum, steady_state_stats
from twospinboson.entanglement import entanglement_measures, reduced_density
from twospinboson.single_mode import (
    InvalidDensityMatrixError,
    QubitAmplitudes,
    SingleModeParams,
    _model_measures,
    time_series,
)
from twospinboson.sweeps import commensurability_table, state_series

PHASES = np.linspace(0.0, 0.5 * math.pi, 64, endpoint=False)
GAPPED = OhmicGapSpectrum(alpha=0.25, omega0=0.1)


def _states(vec, theta_ts, gamma_rs, gamma_is):
    """The 4x4 model states of the amplitude vector ``vec``, by the oracle's builder."""
    return reduced_density(QubitAmplitudes(*vec), theta_ts, gamma_rs, gamma_is)


def _kernel(vec, gamma_r, theta_ts):
    """Per-phase C and S of the 4x4 steady states by the general kernel."""
    return entanglement_measures(_states(
        vec, theta_ts, np.full_like(theta_ts, gamma_r), np.zeros_like(theta_ts)))


def _scan(vec, gamma_rs, theta_ts):
    """Steady-state scan: every plateau in gamma_rs at every phase theta_t."""
    gamma_rs = np.asarray(gamma_rs, dtype=float)
    return _model_measures(vec, gamma_rs,
                           np.broadcast_to(2.0 * theta_ts, (gamma_rs.size, theta_ts.size)))


def _mp_measures(vec, gamma_r, theta_t, gamma_i=0.0):
    """Wootters concurrence and entropy of the model state at 40 digits, by Hermitian routines.

    The Wootters values are the singular values of sqrt(rho) sqrt(rho~), with
    sqrt(rho) from the Hermitian eigensolver and sqrt(rho~) its spin flip.
    The general eigensolver on the non-Hermitian rho rho~ fails to converge
    when the entries of rho span many decades.  The entropy drops the
    eigenvalues below ``_ENTROPY_CLIP``, as ``_entropy_bits`` does.
    """
    with mpmath.workdps(40):
        a, b, c, d = (mpmath.mpc(complex(z)) for z in vec)
        phase = 2 * mpmath.mpf(theta_t) - mpmath.mpf(gamma_i)
        f = mpmath.exp(-mpmath.mpf(gamma_r) + 1j * phase)
        g = mpmath.exp(-4 * mpmath.mpf(gamma_r))
        cj = mpmath.conj
        rho = mpmath.matrix([
            [abs(a) ** 2, a * cj(b) * f, a * cj(c) * f, a * cj(d) * g],
            [0, abs(b) ** 2, b * cj(c), b * cj(d) * cj(f)],
            [0, 0, abs(c) ** 2, c * cj(d) * cj(f)],
            [0, 0, 0, abs(d) ** 2]])
        for i in range(4):
            for j in range(i):
                rho[i, j] = cj(rho[j, i])
        flip = mpmath.matrix([[0, 0, 0, -1], [0, 0, 1, 0], [0, 1, 0, 0], [-1, 0, 0, 0]])
        eigvals, eigvecs = mpmath.eighe(rho)
        root = eigvecs * mpmath.diag([mpmath.sqrt(max(x, 0)) for x in eigvals]) \
            * eigvecs.transpose_conj()
        r = sorted(mpmath.svd_c(root * flip * root.apply(cj) * flip, compute_uv=False),
                   reverse=True)
        entropy = -sum(x * mpmath.log(x, 2) for x in eigvals if x > entanglement._ENTROPY_CLIP)
        return float(max(r[0] - r[1] - r[2] - r[3], 0)), float(entropy)


def _mp_concurrence(vec, gamma_r, theta_t, gamma_i=0.0):
    """Wootters concurrence of the model state at 40 digits."""
    return _mp_measures(vec, gamma_r, theta_t, gamma_i)[0]


_DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")


def _matrices(a, *args, **kwargs):
    """(dtype kind, matrix count) of a call's stack of matrices."""
    a = np.asarray(a)
    return ("complex" if np.iscomplexobj(a) else "real", a.size // (a.shape[-1] * a.shape[-2]))


@pytest.fixture
def lapack_calls(spy):
    """(dtype kind, matrices) of each call, per ``np.linalg`` decomposition."""
    return {name: spy(np.linalg, name, record=_matrices) for name in _DECOMPOSITIONS}


def _forbid_decompositions(spy):
    """Make every ``np.linalg`` decomposition and the spectrum of H fail."""
    refusal = AssertionError("decomposed an invalid state")
    for name in _DECOMPOSITIONS:
        spy(np.linalg, name, raises=refusal)
    spy(single_mode, "_gram_spectrum", raises=refusal)


@pytest.fixture
def spectrum_calls(spy):
    """Row counts of the calls to ``single_mode._gram_spectrum``."""
    return spy(single_mode, "_gram_spectrum", record=lambda root, gamma, decay: gamma.size)


@pytest.fixture
def kernel_calls(spy):
    """Calls to ``entanglement_measures`` made through any ``twospinboson`` module."""
    return spy(entanglement, "entanglement_measures")


# Moduli are 0 or at least 0.1.  When one of b, c is much smaller than the
# other the kernel's concurrence errs by about 2e-16 times the ratio of the
# larger to the smaller (2e-12 at a ratio of 1e4, up to 2.5e-8 when exactly
# one is zero), so those states are checked against mpmath instead, in
# test_scan_matches_mpmath_where_one_of_b_c_vanishes and
# test_series_match_mpmath_where_one_of_b_c_vanishes.
_modulus = st.just(0.0) | st.floats(0.1, 1.0)
_phase = st.floats(0.0, 2.0 * math.pi)
_moduli = st.tuples(_modulus, _modulus, _modulus, _modulus)
_phases = st.tuples(_phase, _phase, _phase, _phase)


def _state(moduli, phases):
    assume(any(moduli) and (moduli[1] == 0.0) == (moduli[2] == 0.0))
    return QubitAmplitudes.normalized(*(m * np.exp(1j * p) for m, p in zip(moduli, phases)))


# Exactly one of b, c is 0 or 1e-9, where the kernel's concurrence errs by up
# to ~1e-8; the last state is one where it was seen 6.9e-9 off.
_ONE_OF_B_C_VANISHES = [
    (0.4 + 0.3j, 0.6 - 0.2j, 0.0, -0.5 + 0.1j),
    (0.4 + 0.3j, 0.0, -0.3 + 0.5j, -0.5 + 0.1j),
    (0.4 + 0.3j, 0.6 - 0.2j, 1e-9j, -0.5 + 0.1j),
    (0.0410 + 0.1847j, 0.4376 - 0.1576j, 0.0, -0.8127 + 0.2956j),
]


# |a|^2 = |b|^2 + |c|^2 = 0.4, |d|^2 = 0.2: H has a double top eigenvalue as gamma_R grows.
_DOUBLE_TOP = (math.sqrt(0.4), math.sqrt(0.2), 1j * math.sqrt(0.2),
               math.sqrt(0.2) * np.exp(0.3j))
# The entropy against 40-digit mpmath, on the edge cases and the double-top rows:
# the invariant route errs by at most 2.5e-16 there, the 4x4 kernel by 1.0e-14.
ENTROPY_ATOL = 3e-16


def _steady_c_max(vec, gamma_rs, phase_points):
    """c_max of ``bath._steady_states`` on the plateaus ``gamma_rs``, ``phase_points`` phases."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bath, "_PHASE_POINTS", phase_points)
        return bath._steady_states(single_mode._require_amplitudes(QubitAmplitudes(*vec)),
                                   np.asarray(gamma_rs, dtype=float))[0]


def _full_scan_c_max(vec, gamma_rs, phase_points):
    """The largest concurrence over every (plateau, grid phase) pair: the oracle."""
    theta_ts = np.linspace(0.0, 0.5 * math.pi, phase_points, endpoint=False)
    return np.max(_scan(vec, gamma_rs, theta_ts)[0], axis=1)


# The plateaus of the edge cases: gamma_R = 0, tiny, large and near the largest float.
_EDGE_PLATEAUS = [0.0, 1e-300, 1e-8, 0.3, 2.0, 40.0, 1e300]
# a d = 0, b c = 0 and |a d| = |2 b c|.
_EDGE_STATES = {
    "ad=0": (0.0, 0.6 - 0.2j, -0.3 + 0.5j, -0.5 + 0.1j),
    "bc=0": (0.4 + 0.3j, 0.0, 0.0, -0.5 + 0.1j),
    "|ad|=|2bc|": (math.sqrt(1 / 3), math.sqrt(1 / 6), 1j * math.sqrt(1 / 6),
                   math.sqrt(1 / 3) * np.exp(0.3j)),
    "uniform": (0.5, 0.5, 0.5, 0.5),
}


class TestSteadyScan:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(moduli=_moduli, phases=_phases, gamma_r=st.floats(0.0, 50.0))
    def test_scan_matches_kernel(self, moduli, phases, gamma_r):
        vec = _state(moduli, phases).vector()
        conc, entropy = _scan(vec, [gamma_r], PHASES)
        c_ref, s_ref = _kernel(vec, gamma_r, PHASES)
        np.testing.assert_allclose(conc[0], c_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(entropy[0], s_ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("b, c", [(0.6 - 0.2j, 0.0), (0.0, -0.3 + 0.5j),
                                      (0.6 - 0.2j, 1e-9j)])
    def test_scan_matches_mpmath_where_one_of_b_c_vanishes(self, b, c):
        vec = QubitAmplitudes.normalized(0.4 + 0.3j, b, c, -0.5 + 0.1j).vector()
        theta_ts = PHASES[::8]
        gamma_rs = np.array([0.0, 0.3, 2.0])
        conc, _ = _scan(vec, gamma_rs, theta_ts)
        exact = [[_mp_concurrence(vec, g, th) for th in theta_ts] for g in gamma_rs]
        np.testing.assert_allclose(conc, exact, rtol=0.0, atol=1e-12)

    def test_table_and_stats_never_call_the_kernel(self, kernel_calls):
        sweeps.steady_state_table([0.25, 0.5], [0.0, 0.1], QubitAmplitudes.uniform(),
                                  temperature=0.5)
        sweeps.steady_sweep_tables([0.25, 0.5], [0.0, 0.1], [0.0, 2.0],
                                   QubitAmplitudes.uniform(), temperature=0.5)
        steady_state_stats(GAPPED, QubitAmplitudes.uniform())
        assert kernel_calls == []

    def test_invalid_state_is_refused(self):
        # A norm defect of 4e-10 would leave rho(0) with a trace defect above
        # 1e-12, so the amplitude check refuses it.
        psi = QubitAmplitudes(0.5, 0.5, 0.5, 0.5 * (1.0 + 4e-10))
        with pytest.raises(ValueError, match="amplitudes are not normalized"):
            steady_state_stats(GAPPED, psi)

    def test_blocks_do_not_change_cells(self, monkeypatch):
        plateaus = bath._bose_grids([(np.array([0.1, 0.3, 0.7]), 0.1, 0.0)])[0][0].ravel()
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        whole = bath._steady_states(vec, plateaus)
        monkeypatch.setattr(single_mode, "_BLOCK", 1)
        blocked = bath._steady_states(vec, plateaus)
        assert [v.tobytes() for v in blocked] == [v.tobytes() for v in whole]

    # c_max from the two grid phases with the extreme cross terms equals, bit
    # for bit, the maximum of the full (cells x phase_points) scan.
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(moduli=_moduli, phases=_phases,
           gamma_rs=st.lists(st.floats(0.0, 60.0) | st.floats(0.0, 1e300), min_size=1, max_size=6),
           phase_points=st.integers(4, 300))
    def test_two_phases_equal_the_full_scan(self, moduli, phases, gamma_rs, phase_points):
        vec = _state(moduli, phases).vector()
        got = _steady_c_max(vec, gamma_rs, phase_points)
        assert got.tobytes() == _full_scan_c_max(vec, gamma_rs, phase_points).tobytes()

    @pytest.mark.parametrize("phase_points", [4, 5, 2048, 4097])
    @pytest.mark.parametrize("name", _EDGE_STATES)
    def test_two_phases_equal_the_full_scan_on_edge_cases(self, name, phase_points):
        vec = QubitAmplitudes.normalized(*_EDGE_STATES[name]).vector()
        got = _steady_c_max(vec, _EDGE_PLATEAUS, phase_points)
        assert got.tobytes() == _full_scan_c_max(vec, _EDGE_PLATEAUS, phase_points).tobytes()

    def test_no_array_spans_cells_and_phases(self, spy):
        cells, phase_points = 500, 4097
        shapes = spy(bath, "_model_measures", record=lambda vec, gamma_rs, phases: phases.shape)
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        gamma_rs = np.linspace(0.0, 30.0, cells)
        tracemalloc.start()
        try:
            _steady_c_max(vec, gamma_rs, phase_points)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert shapes == [(cells, 2)]
        # One float64 (cells x phase_points) array would take 16.4 MB.
        assert peak < cells * phase_points * 8


class TestModelMeasures:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(moduli=_moduli, phases=_phases,
           points=st.lists(st.tuples(st.floats(0.0, 50.0), st.floats(-5.0, 5.0),
                                     st.floats(0.0, 20.0)), min_size=1, max_size=8))
    def test_series_match_kernel(self, moduli, phases, points):
        vec = _state(moduli, phases).vector()
        gamma_rs, gamma_is, theta_ts = (np.array(v) for v in zip(*points))
        conc, entropy = _model_measures(vec, gamma_rs, (2.0 * theta_ts - gamma_is)[:, None])
        c_ref, s_ref = entanglement_measures(
            _states(vec, theta_ts, gamma_rs, gamma_is))
        np.testing.assert_allclose(conc[:, 0], c_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(entropy, s_ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("amplitudes", _ONE_OF_B_C_VANISHES)
    def test_series_match_mpmath_where_one_of_b_c_vanishes(self, amplitudes):
        psi = QubitAmplitudes.normalized(*amplitudes)
        params = SingleModeParams(2.3)
        t = np.linspace(0.0, 9.0, 13)
        series = time_series(params, psi, t)
        gamma_rs, gamma_is = single_mode._gammas(params.omega, t)
        exact = [_mp_concurrence(psi.vector(), g_r, th, g_i)
                 for g_r, g_i, th in zip(gamma_rs, gamma_is, series["theta_t"])]
        np.testing.assert_allclose(series["concurrence"], exact, rtol=0.0, atol=1e-14)

    def test_no_lapack_call_on_certified_rows(self, lapack_calls):
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        _model_measures(vec, np.array([0.0, 0.4, 3.0]), np.tile(2.0 * PHASES, (3, 1)))
        # Four gapped cells; the gapless cells have no plateau.
        sweeps.steady_state_table([0.25, 0.5], [0.0, 0.1, 0.2], QubitAmplitudes.uniform())
        sweeps.steady_sweep_tables([0.25, 0.5], [0.0, 0.1, 0.2], [0.0, 2.0],
                                   QubitAmplitudes.uniform())
        assert lapack_calls == {"eigh": [], "eigvalsh": [], "svd": []}

    def test_double_top_rows_fall_back_alone(self, lapack_calls):
        # |a|^2 = |b|^2 + |c|^2: at large gamma_R, H tends to diag(D) with an
        # exact double top eigenvalue, where the closed-form lambda_1 is only
        # sqrt(eps) accurate.  Those rows, and only they, go to eigvalsh.
        vec = QubitAmplitudes.normalized(*_DOUBLE_TOP).vector()
        gamma_rs = np.array([0.4, 30.0, 2.0, 12.0, 0.0])
        phases = np.tile(2.0 * PHASES[:4], (gamma_rs.size, 1))
        conc, entropy = _model_measures(vec, gamma_rs, phases)
        assert lapack_calls == {"eigh": [], "eigvalsh": [("real", 2)], "svd": []}
        c_ref, s_ref = entanglement_measures(_states(
            vec, np.tile(PHASES[:4], gamma_rs.size), np.repeat(gamma_rs, 4), np.zeros(4 * gamma_rs.size)))
        np.testing.assert_allclose(conc.ravel(), c_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(entropy, s_ref[::4], rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("gamma_r", [5.0, 12.0, 30.0])
    def test_double_top_entropy_matches_mpmath(self, gamma_r):
        vec = QubitAmplitudes.normalized(*_DOUBLE_TOP).vector()
        phases = np.array([0.0, 0.7, 2.0])
        conc, entropy = _model_measures(vec, np.array([gamma_r]), phases[None])
        exact = [_mp_measures(vec, gamma_r, 0.5 * phi) for phi in phases]
        np.testing.assert_allclose(conc[0], [c for c, _ in exact], rtol=0.0, atol=1e-15)
        np.testing.assert_allclose(entropy[0], exact[0][1], rtol=0.0, atol=ENTROPY_ATOL)

    def test_cross_term_does_not_cancel(self):
        # w = -ad conj(2bc) = -1/8, so at phase 1e-9 |z| + Re z = |w| (1 - cos 2 phi)
        # is about 1e-19, and near gamma_R = 0 it alone sets sigma_1 - sigma_2 ~ 1e-9.
        # Taken as |w| + Re z it rounds to 0 and C errs by about 1e-9.
        vec = QubitAmplitudes.normalized(0.5, 0.5, 0.5 * np.exp(0.3j),
                                         0.5 * np.exp(0.3j)).vector()
        gamma_rs = np.array([0.0, 1e-12, 1e-8, 1e-4])
        phase = 1e-9
        conc, _ = _model_measures(vec, gamma_rs, np.full((gamma_rs.size, 1), phase))
        exact = [_mp_concurrence(vec, g, 0.5 * phase) for g in gamma_rs]
        np.testing.assert_allclose(conc[:, 0], exact, rtol=0.0, atol=1e-15)

    def test_long_series_phase_is_not_rounded(self):
        # The single_mode_long benchmark series (theta t to 50): phases reach
        # about 100, where adding arg(w) to the phase before the exponential
        # would round it and move C by up to ~3e-15.  The oracle is given the
        # very float phase 2 theta t - gamma_I that the code uses.
        psi = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j)
        params = SingleModeParams(4.5)
        t = np.linspace(0.0, 50.0, 30000) / params.theta
        conc = time_series(params, psi, t)["concurrence"]
        gamma_rs, gamma_is = single_mode._gammas(params.omega, t)
        phases = 2.0 * (params.theta * t) - gamma_is
        rows = np.arange(0, t.size, 750)
        exact = [_mp_concurrence(psi.vector(), gamma_rs[k], 0.5 * phases[k]) for k in rows]
        np.testing.assert_allclose(conc[rows], exact, rtol=0.0, atol=1e-15)

    # Nearly pure, nearly unentangled and rank-deficient states, where the
    # small Wootters values must not be taken from an eigenvalue: uniform;
    # b = c = 0 (C = 2|ad| e^{-4 gamma_R}, r_1 ~ r_2 at large gamma_R); a = d = 0;
    # b tiny; a tiny; a d so small that ad conj(2bc) is subnormal, whose
    # reciprocal modulus overflows; and the product state, where tau = 0.
    @pytest.mark.parametrize("amplitudes", [
        (0.5, 0.5, 0.5, 0.5),
        (0.4 + 0.3j, 0.0, 0.0, -0.5 + 0.1j),
        (0.0, 0.6 - 0.2j, -0.3 + 0.5j, 0.0),
        (0.5, 1.2e-7, 0.5, 0.5),
        (1e-8, 0.5, 0.5j, 0.5),
        (1e-150, 0.7, 0.7j, 1e-160),
        (1.0, 0.0, 0.0, 0.0),
    ], ids=["uniform", "b=c=0", "a=d=0", "b=1.2e-7", "a=1e-8", "ad=1e-310", "product"])
    def test_edge_cases_match_mpmath(self, amplitudes):
        vec = QubitAmplitudes.normalized(*amplitudes).vector()
        gamma_rs = np.array([0.0, 1e-12, 1e-8, 1e-3, 0.5, 2.0, 5.0, 12.0])
        phases = np.array([0.0, 0.7, 2.0])
        conc, entropy = _model_measures(vec, gamma_rs,
                                        np.broadcast_to(phases, (gamma_rs.size, 3)))
        exact = np.array([[_mp_measures(vec, g, 0.5 * phi) for phi in phases]
                          for g in gamma_rs])
        np.testing.assert_allclose(conc, exact[..., 0], rtol=0.0, atol=1e-15)
        # The entropy does not depend on the phase.
        np.testing.assert_allclose(np.broadcast_to(entropy[:, None], (gamma_rs.size, 3)),
                                   exact[..., 1], rtol=0.0, atol=ENTROPY_ATOL)

    def test_far_plateau_matches_mpmath(self):
        # The uniform state at a plateau of a `steady-sweep --temperature 0.5`
        # cell (alpha 0.816, gap 0.0161), phase index 269 of 2048, where the
        # entries of rho span about 160 decades.
        vec = QubitAmplitudes.uniform().vector()
        gamma_r, theta_t = 91.84395449700425, 0.20632041597061873
        conc, _ = _model_measures(vec, np.array([gamma_r]), np.array([[2.0 * theta_t]]))
        np.testing.assert_allclose(conc[0, 0], _mp_concurrence(vec, gamma_r, theta_t),
                                   rtol=0.0, atol=1e-15)

    def test_huge_gamma_r_is_the_decohered_state_quietly(self):
        # Past 745 every e^{-k gamma_r} is 0: a gamma_r up to the largest float
        # gives the bits of gamma_r = 1e4, with no overflow in -k gamma_r.
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        gamma_rs = np.array([1e4, 3e307, 1e308, sys.float_info.max, math.inf])
        conc, entropy = _model_measures(vec, gamma_rs, np.full((5, 3), 0.7))
        assert np.all(conc == conc[0]) and np.all(entropy == entropy[0])

    def test_shared_decay_factors_keep_the_bits(self, lapack_calls):
        # Each e^{-k gamma_r} and 1 - e^{-k gamma_r} is formed once per block.
        # C and S keep the bits of each helper forming its own factors from
        # gamma_r, the concurrence from max(gamma_r, 0).  At gamma_r = 745 and
        # 1e300 the top eigenvalue is nearly double, so the spectrum falls back.
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        gamma = np.array([-1e-17, -0.0, 0.0, 1e-300, 1.0, 745.0, 1e300])
        phases = np.tile([0.0, 0.7, 2.0], (gamma.size, 1))
        conc, entropy = _model_measures(vec, gamma, phases)

        a, b, c, d = vec
        root = np.array([abs(a), math.hypot(abs(b), abs(c)), abs(d)])
        factors = (np.exp(-2.0 * gamma), np.exp(-4.0 * gamma), np.exp(-8.0 * gamma),
                   *(-np.expm1(-k * gamma) for k in (2.0, 4.0, 8.0)))
        evals = single_mode._gram_spectrum(root, gamma, factors)
        assert entropy.tobytes() == single_mode._entropy_bits(evals).tobytes()

        g = np.maximum(gamma, 0.0)[:, None]
        mod_a, mod_bc = abs(a * d), abs(2.0 * b * c)
        diff_sq = (((1.0 + np.exp(-4.0 * g)) * mod_a - mod_bc) ** 2
                   + 4.0 * np.exp(-2.0 * g)
                   * single_mode._cross_term(vec, phases, np.zeros(gamma.size, dtype=bool)))
        total = np.sqrt(diff_sq + 4.0 * np.expm1(-2.0 * g) ** 2 * (mod_a * mod_bc))
        odd = -mod_a * np.expm1(-4.0 * g)
        expected = np.maximum(0.0, np.maximum(np.sqrt(diff_sq) - odd, odd - total))
        assert conc.tobytes() == expected.tobytes()
        assert lapack_calls == {"eigh": [], "eigvalsh": [("real", 2)] * 2, "svd": []}

    def test_phase_past_half_the_largest_float_matches_the_kernel(self):
        # 2 phi overflows above 8.99e307; such rows take e^{2i phi} as (e^{i phi})^2.
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        gamma_rs = np.array([0.3, 0.3, 0.3, 0.3, 0.0])
        phases = np.array([0.7, 1e308, -1.5e308, 2.5e15, 1e308])[:, None]
        conc, entropy = _model_measures(vec, gamma_rs, phases)
        kernel = entanglement_measures(_states(
            vec, 0.5 * phases[:, 0], gamma_rs, np.zeros_like(gamma_rs)))
        np.testing.assert_allclose(conc[:, 0], kernel[0], rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(entropy, kernel[1], rtol=0.0, atol=1e-12)
        # Ordinary phases in the same block keep their bits.
        ordinary, _ = _model_measures(vec, gamma_rs[[0, 3]], phases[[0, 3]])
        assert conc[[0, 3]].tobytes() == ordinary.tobytes()

    def test_series_never_call_the_kernel(self, kernel_calls):
        psi = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j)
        params = SingleModeParams(4.5)
        time_series(params, psi, np.linspace(0.0, 3.0, 20))
        commensurability_table([1.265625], psi, 100)
        state_series(GAPPED, psi, np.linspace(0.0, 3.0, 20))
        assert kernel_calls == []

    def test_blocks_do_not_change_series(self, monkeypatch, spectrum_calls):
        psi = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j)
        params = SingleModeParams(4.5)
        t = np.linspace(0.0, 40.0, 1000)
        whole = time_series(params, psi, t)
        monkeypatch.setattr(single_mode, "_BLOCK", 3)
        blocked = time_series(params, psi, t)
        for name in ("concurrence", "entropy"):
            assert blocked[name].tobytes() == whole[name].tobytes()
        # The spectrum is taken once per block, each block at most _BLOCK rows.
        assert spectrum_calls == [t.size, *[3] * (t.size // 3), t.size % 3]

    def test_memory_stays_within_a_block(self):
        # 10^5 rows: beyond the two outputs, the block temporaries cost a
        # fixed multiple of one _BLOCK-row float array, not of the grid
        # (about 33 such arrays; taken over all rows at once, about 670).
        rows, multiple = 100_000, 64
        psi = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j)
        params = SingleModeParams(4.5)
        t = np.linspace(0.0, 50.0, rows) / params.theta
        gamma_rs, gamma_is = single_mode._gammas(params.omega, t)
        phases = (2.0 * (params.theta * t) - gamma_is)[:, None]
        tracemalloc.start()
        try:
            _model_measures(psi.vector(), gamma_rs, phases)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * rows * 8 + multiple * single_mode._BLOCK * 8

    def test_model_state_paths_call_no_linalg(self, spy):
        psi = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j)
        refusal = AssertionError("called np.linalg")
        for name in dir(np.linalg):
            if not name.startswith("_") and callable(getattr(np.linalg, name)):
                spy(np.linalg, name, raises=refusal)
        params = SingleModeParams(4.5)
        time_series(params, psi, np.linspace(0.0, 40.0, 200))
        commensurability_table([1.265625], psi, 100)
        state_series(GAPPED, psi, np.linspace(0.0, 30.0, 50))
        sweeps.steady_state_table([0.25, 0.5], [0.0, 0.1, 0.2], psi)
        sweeps.steady_sweep_tables([0.25, 0.5], [0.0, 0.1, 0.2], [0.0, 2.0], psi)


# Norm defect 4e-10: every state built from these amplitudes would have a
# trace defect above 1e-12, so they are refused as amplitudes.
_OFF_NORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5 * math.sqrt(1.0 + 1.6e-9))
_PARAMS = SingleModeParams(4.5)
_TIMES = np.linspace(0.0, 3.0, 8)
_SERIES_CALLS = {
    "time_series": lambda psi: time_series(_PARAMS, psi, _TIMES),
    # The period-stats table at n = 1.265625, omega = 4.5.
    "period_stats": lambda psi: commensurability_table([1.265625], psi, 100),
    "state_series": lambda psi: state_series(GAPPED, psi, _TIMES),
}


def _unchecked_states(vec, theta_ts, gamma_rs):
    """The 4x4 states at gamma_I = 0 for any gamma_R, which ``reduced_density`` refuses
    when negative: psi psi+ times the overlaps e^{-gamma_R} e^{2i theta t} and e^{-4 gamma_R}."""
    f = np.exp(-gamma_rs + 2j * theta_ts)
    g, one = np.exp(-4.0 * gamma_rs), np.ones_like(f)
    overlaps = np.array([[one, f, f, g], [f.conj(), one, one, f.conj()],
                         [f.conj(), one, one, f.conj()], [g, f, f, one]])
    return np.outer(vec, vec.conj()) * np.moveaxis(overlaps, -1, 0)


class TestValidation:
    @pytest.mark.parametrize("call", [*_SERIES_CALLS.values(),
                                      lambda psi: steady_state_stats(GAPPED, psi)],
                             ids=[*_SERIES_CALLS, "steady_state_stats"])
    def test_trace_defect_is_refused_before_any_decomposition(self, spy, call):
        assert 3e-10 < _OFF_NORM.norm_defect() < 1e-9
        _forbid_decompositions(spy)
        with pytest.raises(ValueError, match="amplitudes are not normalized: defect 4.0"):
            call(_OFF_NORM)

    def test_model_measures_checks_the_trace(self, spy):
        # The helper's own check, reached only by a caller that skips the
        # amplitude check, refuses the state before any decomposition.
        _forbid_decompositions(spy)
        with pytest.raises(InvalidDensityMatrixError, match="trace defect 4.0") as err:
            _model_measures(_OFF_NORM.vector(), np.array([0.1]), np.zeros((1, 3)))
        assert err.value.index == 0

    @pytest.mark.parametrize("name", _SERIES_CALLS)
    def test_nan_exponent_is_refused_at_its_index(self, monkeypatch, name):
        gammas = single_mode._gammas
        exponents = sweeps.bath_exponents

        def nan_at_3(values):
            values = np.array(values)
            values.flat[3] = math.nan
            return values

        for module in (single_mode, sweeps):
            monkeypatch.setattr(module, "_gammas",
                                lambda *args: (nan_at_3(gammas(*args)[0]), gammas(*args)[1]))
        monkeypatch.setattr(sweeps, "bath_exponents",
                            lambda *args: (nan_at_3(exponents(*args)[0]),
                                           *exponents(*args)[1:]))
        with pytest.raises(InvalidDensityMatrixError, match="nan") as err:
            _SERIES_CALLS[name](QubitAmplitudes.uniform())
        assert err.value.index == 3
        assert math.isnan(err.value.check.trace_defect)

    @pytest.mark.parametrize("bad", [-0.5, math.nan])
    def test_refusal_in_a_later_block_names_the_global_row(self, monkeypatch, bad):
        # Blocks of 3 rows: row 7 is row 1 of the third block.
        monkeypatch.setattr(single_mode, "_BLOCK", 3)
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        gamma_rs = np.linspace(0.1, 1.0, 10)
        gamma_rs[7] = bad
        with pytest.raises(InvalidDensityMatrixError) as err:
            _model_measures(vec, gamma_rs, np.linspace(0.0, 3.0, 10)[:, None])
        assert err.value.index == 7
        assert math.isnan(err.value.check.trace_defect) == math.isnan(bad)

    @pytest.mark.parametrize("gamma_rs, phases", [
        ([0.1, 0.2, -0.5, 0.3], [0.0, 1.0, 2.0, 3.0]),
        ([0.1, 0.2, 0.3, 0.4], [0.0, 1.0, math.inf, 3.0]),
        ([0.1, -1e3, 0.3, 0.4], [0.0, 1.0, 2.0, 3.0]),
    ])
    def test_same_decision_and_index_as_the_kernel(self, gamma_rs, phases):
        vec = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j).vector()
        gamma_rs, phases = np.array(gamma_rs), np.array(phases)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(InvalidDensityMatrixError) as ours:
                _model_measures(vec, gamma_rs, phases[:, None])
            with pytest.raises(InvalidDensityMatrixError) as kernel:
                entanglement_measures(_unchecked_states(vec, 0.5 * phases, gamma_rs))
        assert ours.value.index == kernel.value.index
        np.testing.assert_allclose(ours.value.check.min_eigenvalue,
                                   kernel.value.check.min_eigenvalue, rtol=1e-9)
