"""Structured steady-state scan against the 4x4 kernel and 40-digit mpmath.

``bath._steady_scan`` computes the steady-state concurrence at every phase
from one 3x3 Gram ``eigh`` and a 3x3 ``svd`` per phase.  Oracles: the general
kernel ``entanglement_measures`` applied to the 4x4 states the scan stands
for, and, where that kernel loses accuracy, the Wootters formula at 40 digits.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from twospinboson import bath, entanglement, sweeps
from twospinboson.bath import OhmicGapSpectrum, steady_state_stats
from twospinboson.entanglement import (
    InvalidDensityMatrixError,
    QubitAmplitudes,
    entanglement_measures,
)
from twospinboson.single_mode import _density_from_phases

mpmath = pytest.importorskip("mpmath")

PHASES = np.linspace(0.0, 0.5 * math.pi, 64, endpoint=False)


def _kernel(vec, gamma_r, theta_ts):
    """Per-phase C and S of the 4x4 steady states by the general kernel."""
    return entanglement_measures(_density_from_phases(
        vec, theta_ts, np.full_like(theta_ts, gamma_r), np.zeros_like(theta_ts)))


def _mp_concurrence(vec, gamma_r, theta_t):
    """Wootters concurrence of the steady state at 40 digits: sqrt of the eigenvalues of rho rho~."""
    with mpmath.workdps(40):
        a, b, c, d = (mpmath.mpc(complex(z)) for z in vec)
        f = mpmath.exp(-mpmath.mpf(gamma_r) + 2j * mpmath.mpf(theta_t))
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
        lam = mpmath.eig(rho * flip * rho.apply(cj) * flip, left=False, right=False)
        r = sorted((mpmath.sqrt(max(mpmath.re(x), 0)) for x in lam), reverse=True)
        return float(max(r[0] - r[1] - r[2] - r[3], 0))


# Moduli are 0 or at least 0.1.  When one of b, c is much smaller than the
# other the kernel's concurrence errs by about 2e-16 times the ratio of the
# larger to the smaller (2e-12 at a ratio of 1e4, up to 2.5e-8 when exactly
# one is zero), so those states are checked against mpmath instead, in
# test_scan_matches_mpmath_where_one_of_b_c_vanishes.
_modulus = st.just(0.0) | st.floats(0.1, 1.0)
_phase = st.floats(0.0, 2.0 * math.pi)


class TestSteadyScan:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(moduli=st.tuples(_modulus, _modulus, _modulus, _modulus),
           phases=st.tuples(_phase, _phase, _phase, _phase),
           gamma_r=st.floats(0.0, 50.0))
    def test_scan_matches_kernel(self, moduli, phases, gamma_r):
        assume(any(moduli) and (moduli[1] == 0.0) == (moduli[2] == 0.0))
        psi = QubitAmplitudes.normalized(*(m * np.exp(1j * p) for m, p in zip(moduli, phases)))
        vec = psi.vector()
        conc, entropy = bath._steady_scan(vec, np.array([gamma_r]), PHASES)
        c_ref, s_ref = _kernel(vec, gamma_r, PHASES)
        np.testing.assert_allclose(conc[0], c_ref, rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(entropy[0], s_ref, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("b, c", [(0.6 - 0.2j, 0.0), (0.0, -0.3 + 0.5j),
                                      (0.6 - 0.2j, 1e-9j)])
    def test_scan_matches_mpmath_where_one_of_b_c_vanishes(self, b, c):
        vec = QubitAmplitudes.normalized(0.4 + 0.3j, b, c, -0.5 + 0.1j).vector()
        theta_ts = PHASES[::8]
        gamma_rs = np.array([0.0, 0.3, 2.0])
        conc, _ = bath._steady_scan(vec, gamma_rs, theta_ts)
        exact = [[_mp_concurrence(vec, g, th) for th in theta_ts] for g in gamma_rs]
        np.testing.assert_allclose(conc, exact, rtol=0.0, atol=1e-12)

    def test_table_and_stats_never_call_the_kernel(self, monkeypatch):
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return entanglement_measures(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.startswith("twospinboson")
                    and getattr(module, "entanglement_measures", None) is entanglement_measures):
                monkeypatch.setattr(module, "entanglement_measures", counting)
        assert entanglement.entanglement_measures is counting
        sweeps.steady_state_table([0.25, 0.5], [0.0, 0.1], temperature=0.5, phase_points=16)
        steady_state_stats(OhmicGapSpectrum(alpha=0.25, omega0=0.1), QubitAmplitudes.uniform())
        assert calls == []

    def test_invalid_state_is_refused(self):
        # A norm defect of 1e-10 passes the amplitude check (1e-9) but leaves
        # rho(0) with a trace defect above 1e-12.
        psi = QubitAmplitudes(0.5, 0.5, 0.5, 0.5 * (1.0 + 4e-10))
        with pytest.raises(InvalidDensityMatrixError, match="trace defect"):
            steady_state_stats(OhmicGapSpectrum(alpha=0.25, omega0=0.1), psi)

    def test_blocks_do_not_change_cells(self, monkeypatch):
        specs = [OhmicGapSpectrum(alpha=alpha, omega0=0.1) for alpha in (0.1, 0.3, 0.7)]
        psi = QubitAmplitudes.normalized(0.3, 0.5j, -0.4, 0.2 + 0.6j)
        whole = bath._steady_states(specs, psi, 64)
        monkeypatch.setattr(bath, "_SCAN_BLOCK", 1)
        assert bath._steady_states(specs, psi, 64) == whole
