"""Exact reduced dynamics of two qubits coupled to one harmonic mode.

The model couples the collective operator sigma_1^z + sigma_2^z to a single
oscillator of frequency ``omega`` with strength ``coupling`` (hbar = 1).
Tracing out the oscillator is exact: the |01> and |10> components never
displace the mode, while |00> and |11> drag it around a circle in phase
space, returning to the origin at every full oscillator period.

All phases and decoherence exponents are expressed through

    theta      = 2 * coupling**2 / omega      (induced qubit-qubit coupling)
    gamma_r(t) = (2 coupling / omega)**2 * (1 - cos(omega t))
    gamma_i(t) = (2 coupling / omega)**2 * sin(omega t)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import QubitAmplitudes, _require_amplitudes, entanglement_measures

__all__ = [
    "SingleModeParams",
    "GammaValue",
    "PeriodStats",
    "gamma_single_mode",
    "coherent_amplitude",
    "reduced_density",
    "ideal_concurrence",
    "time_series",
    "period_stats",
]


@dataclass(frozen=True)
class SingleModeParams:
    """Oscillator frequency and qubit-oscillator coupling (hbar = 1).

    ``coupling`` may be zero (decoupled qubits); ``omega`` must be positive.
    Both must be finite.
    """

    omega: float
    coupling: float = 1.0

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not (math.isfinite(self.coupling) and self.coupling >= 0.0):
            raise ValueError(f"coupling must be nonnegative and finite, got {self.coupling}")

    @property
    def theta(self) -> float:
        """Induced qubit-qubit coupling 2 * coupling**2 / omega."""
        return 2.0 * self.coupling**2 / self.omega

    @classmethod
    def from_ratio(cls, omega_over_lambda: float) -> "SingleModeParams":
        """Parameters in units of the coupling: omega = ratio, coupling = 1."""
        return cls(omega=float(omega_over_lambda), coupling=1.0)


@dataclass(frozen=True)
class GammaValue:
    """Decoherence exponent split into damping (gamma_r) and phase (gamma_i)."""

    gamma_r: float
    gamma_i: float

    def __post_init__(self):
        if self.gamma_r < 0.0:
            raise ValueError(f"gamma_r must be nonnegative, got {self.gamma_r}")

    @property
    def overlap(self) -> float:
        """exp(-gamma_r), the coherence suppression factor."""
        return math.exp(-self.gamma_r)


@dataclass(frozen=True)
class PeriodStats:
    """Extrema and trapezoid averages of C and S over theta*t in [0, pi/2].

    ``degenerate`` marks the zero-coupling case, where theta*t never advances
    and the statistics are reported as zeros.
    """

    c_max: float
    c_avg: float
    s_max: float
    s_avg: float
    degenerate: bool = False


def gamma_single_mode(params: SingleModeParams, t: float) -> GammaValue:
    """Decoherence exponent of the single mode at time ``t >= 0``.

    gamma_r = (2 coupling / omega)**2 (1 - cos omega t), gamma_i the matching
    sine term.  Both vanish at every full period omega t = 2 pi k.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    gamma_r, gamma_i = _gammas(params, t)
    return GammaValue(float(gamma_r), float(gamma_i))


def _gammas(params: SingleModeParams, t):
    """gamma_r and gamma_i at a scalar or an array of times."""
    x = params.omega * np.asarray(t, dtype=float)
    pref = (2.0 * params.coupling / params.omega) ** 2
    # 2 sin^2(x/2) instead of 1 - cos x: immune to cancellation at small x.
    return pref * 2.0 * np.sin(0.5 * x) ** 2, pref * np.sin(x)


def coherent_amplitude(params: SingleModeParams, t: float) -> complex:
    """Oscillator displacement (2 coupling / omega) (e^{-i omega t} - 1).

    The |00> branch drags the mode to +amplitude, the |11> branch to
    -amplitude; |amplitude|^2 equals 2 * gamma_r at all times.
    """
    if t < 0.0:
        raise ValueError(f"t must be nonnegative, got {t}")
    x = params.omega * t
    return (2.0 * params.coupling / params.omega) * (np.exp(-1j * x) - 1.0)


def _density_from_phases(psi0, theta_ts, gamma_rs, gamma_is) -> np.ndarray:
    """Stack of reduced density matrices for arrays of phases and exponents."""
    a, b, c, d = psi0
    theta_ts = np.asarray(theta_ts, dtype=float)
    gamma_rs = np.asarray(gamma_rs, dtype=float)
    gamma_is = np.asarray(gamma_is, dtype=float)

    # Coherence factor between a displaced branch and an undisplaced one.
    f = np.exp(-gamma_rs + 1j * (2.0 * theta_ts - gamma_is))
    # Between the two oppositely displaced branches the overlap is exp(-4 gamma_r)
    # and the branch phases cancel exactly.
    g = np.exp(-4.0 * gamma_rs)

    rho = np.empty(theta_ts.shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = abs(a) ** 2
    rho[..., 1, 1] = abs(b) ** 2
    rho[..., 2, 2] = abs(c) ** 2
    rho[..., 3, 3] = abs(d) ** 2
    rho[..., 0, 1] = a * np.conj(b) * f
    rho[..., 0, 2] = a * np.conj(c) * f
    rho[..., 0, 3] = a * np.conj(d) * g
    rho[..., 1, 2] = b * np.conj(c)
    rho[..., 1, 3] = b * np.conj(d) * np.conj(f)
    rho[..., 2, 3] = c * np.conj(d) * np.conj(f)
    for i in range(4):
        for j in range(i):
            rho[..., i, j] = np.conj(rho[..., j, i])
    return rho


def reduced_density(psi0: QubitAmplitudes, theta_t: float, gamma: GammaValue) -> np.ndarray:
    """Reduced two-qubit density matrix after tracing out the oscillator.

    Parameters
    ----------
    psi0 : QubitAmplitudes
        Normalized initial amplitudes (the oscillator starts in its ground
        state).
    theta_t : float
        Accumulated induced-coupling phase theta * t.
    gamma : GammaValue
        Decoherence exponent at the same time.

    Returns
    -------
    ndarray, shape (4, 4)
        Hermitian unit-trace matrix.  The |01>, |10> block is untouched by
        the environment; coherences against |00> and |11> carry the factor
        exp(-gamma_r) and the phase 2*theta_t - gamma_i; the |00>, |11>
        coherence carries exp(-4 gamma_r) and no phase.
    """
    vec = _require_amplitudes(psi0)
    return _density_from_phases(vec, float(theta_t), gamma.gamma_r, gamma.gamma_i)


def ideal_concurrence(psi0: QubitAmplitudes, theta_t) -> float | np.ndarray:
    """Concurrence 2|a d e^{4 i theta t} - b c| of the decoherence-free evolution.

    This is the concurrence the induced coupling alone would produce; the
    exact dynamics returns to it whenever gamma_r vanishes.  For the uniform
    initial state it reduces to |sin(2 theta t)|.  ``theta_t`` may be a
    scalar or an array.
    """
    a, b, c, d = _require_amplitudes(psi0)
    return 2.0 * np.abs(a * d * np.exp(4j * np.asarray(theta_t, dtype=float)) - b * c)


def _validate_time_grid(t_grid) -> np.ndarray:
    """Coerce to a nonempty, finite, nonnegative, strictly increasing 1-D float array."""
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1 or t.size == 0:
        raise ValueError("t_grid must be a nonempty 1-D array")
    if not np.all(np.isfinite(t)):
        raise ValueError("t_grid entries must be finite")
    if t[0] < 0.0:
        raise ValueError("t_grid entries must be nonnegative")
    if t.size > 1 and not np.all(np.diff(t) > 0.0):
        raise ValueError("t_grid must be strictly increasing")
    return t


def time_series(params: SingleModeParams, psi0: QubitAmplitudes,
                t_grid) -> dict[str, np.ndarray]:
    """Observables on a strictly increasing grid of finite nonnegative times.

    Columns: t, theta_t, concurrence, ideal_concurrence (the
    decoherence-free concurrence), entropy in bits and overlap
    (exp(-gamma_r)), one entry per grid time.
    """
    vec = _require_amplitudes(psi0)
    t = _validate_time_grid(t_grid)
    gamma_rs, gamma_is = _gammas(params, t)
    theta_ts = params.theta * t

    rhos = _density_from_phases(vec, theta_ts, gamma_rs, gamma_is)
    conc, entropy = entanglement_measures(rhos)
    return {
        "t": t,
        "theta_t": theta_ts,
        "concurrence": conc,
        "ideal_concurrence": ideal_concurrence(psi0, theta_ts),
        "entropy": entropy,
        "overlap": np.exp(-gamma_rs),
    }


def period_stats(params: SingleModeParams, psi0: QubitAmplitudes,
                 samples_per_period: int = 2000) -> PeriodStats:
    """Max and average of C(t) and S(t) over one half period of the induced phase.

    The grid covers theta*t in [0, pi/2] with ``samples_per_period``
    trapezoid intervals (at least 100).  With zero coupling the phase never
    advances; the statistics are returned as zeros with ``degenerate=True``.
    """
    vec = _require_amplitudes(psi0)
    if samples_per_period < 100:
        raise ValueError(f"samples_per_period must be at least 100, got {samples_per_period}")
    if params.coupling == 0.0:
        return PeriodStats(0.0, 0.0, 0.0, 0.0, degenerate=True)

    theta_ts = np.linspace(0.0, 0.5 * math.pi, samples_per_period + 1)
    gamma_rs, gamma_is = _gammas(params, theta_ts / params.theta)

    rhos = _density_from_phases(vec, theta_ts, gamma_rs, gamma_is)
    conc, entropy = entanglement_measures(rhos)
    span = theta_ts[-1] - theta_ts[0]
    return PeriodStats(
        c_max=float(np.max(conc)),
        c_avg=float(np.trapezoid(conc, theta_ts) / span),
        s_max=float(np.max(entropy)),
        s_avg=float(np.trapezoid(entropy, theta_ts) / span),
    )
