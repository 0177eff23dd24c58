"""Gapped Ohmic environment: spectral density, decoherence exponents, steady state.

The spectral density is

    J(omega) = alpha * (omega - omega0) * exp(-(omega - omega0)/omega_c)

for omega above the gap omega0 and zero below it (hbar = k_B = 1).  Everything
is in units of the cutoff omega_c: ``omega0`` is x0 = omega0/omega_c, the
temperature is tau = T/omega_c and times are s = omega_c t.  The
environment acts on the two qubits only through three numbers:

    effective_coupling = 2 * integral J/omega domega       (induced coupling)
    gamma_R(t) = 4 * integral J/omega^2 * coth(omega/2T) * (1 - cos omega t)
    gamma_I(t) = 4 * integral J/omega^2 * sin(omega t)     (temperature free)

so the reduced density matrix has the same structure as in the single-mode
model and is delegated to :func:`twospinboson.single_mode.reduced_density`.

:func:`bath_exponents` evaluates gamma_R and gamma_I on a whole time grid at
once; every caller in the package takes them from it.  The method depends on
the gap and the temperature:

- gapless, T = 0: 2 alpha ln(1 + t^2) and 4 alpha arctan t;
- gapless, T > 0: the same gamma_I, and gamma_R through Re ln Gamma of a
  complex argument (recurrence, then the Stirling series);
- gapped, any T: the Bose series coth(omega/2T) = 1 + 2 sum_n e^{-n omega/T}.
  Each term is the exponential integral E1 of a complex argument (power
  series for |z| <= 1, continued fraction above) with the decay rate
  1 + n/T in place of 1, so gamma_R is a weighted sum of E1 closed
  forms; gamma_I does not depend on T and is the n = 0 term.  At T = 0 the
  series is that one term.  It stops at the first N whose proven tail bound
  is below 1e-16, and a grid whose N * (points + 1) exceeds a fixed work cap
  is refused before evaluation.

The effective coupling is a closed form through E1 for every spectrum, and
the long-time limit gamma_R(inf) is the plateau of the Bose series.  One
private pass, :func:`_bose_pass`, evaluates every Bose-series term: over a
list of spectra it finds each N once, applies the work cap, evaluates each
plateau term once and returns the plateaus and, on a time grid, the damping
sums, the n = 0 column and the tail bound.  No evaluation path integrates;
the quadrature of the defining integrals that the closed forms and the
series are checked against is the oracle module
:mod:`twospinboson.quadrature`, which this module does not import.

The steady state (gamma_R at its plateau, gamma_I = 0) is scanned over the
induced phase by :func:`~twospinboson.single_mode._model_measures`: the
entropy from the exact invariants of the Gram form, and per phase the closed
form of the Wootters values that the index-flip symmetry of the model state
gives, with no decomposition on ordinary inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import QubitAmplitudes, _require_amplitudes
from .single_mode import GammaValue, _model_measures, reduced_density

__all__ = [
    "OhmicGapSpectrum",
    "spectral_density",
    "effective_coupling",
    "bath_exponents",
    "gamma_R_infinity",
    "bath_gamma",
    "bath_reduced_density",
    "steady_state_stats",
]

# Relative accuracy of the special-function closed forms (the E1 and ln Gamma
# helpers are tested against 30-digit references at this level).
_CLOSED_FORM_RTOL = 1e-13

# Bose series of a gapped bath: terms are added until the tail bound of
# _bose_log_tail is at most _SERIES_TAIL_TOL, they are evaluated in blocks of
# at most _SERIES_CHUNK_TERMS terms by _SERIES_CHUNK_TIMES times (about 1 MB
# per complex temporary), and a grid whose term count times (points + 1)
# exceeds _SERIES_MAX_WORK is refused before any evaluation.  The cap admits
# gap >= 1e-3 at T <= 2 on 400 points (N = 77052).
_SERIES_TAIL_TOL = 1e-16
_SERIES_CHUNK_TERMS = 256
_SERIES_CHUNK_TIMES = 256
_SERIES_MAX_WORK = 1 << 25

_E1_SERIES_TERMS = 20
_LENTZ_MAX_TERMS = 1000
_LENTZ_TOL = np.finfo(float).eps

# Stirling series ln Gamma(w) ~ (w - 1/2) ln w - w + ln(2 pi)/2
#   + sum_k B_2k / (2k (2k - 1) w^(2k - 1)), k = 1..8; highest power first.
_STIRLING_COEFFS = (-3617.0 / 122400.0, 1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0,
                    -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)
_STIRLING_SHIFT = 10


@dataclass(frozen=True)
class OhmicGapSpectrum:
    """Spectral density parameters: strength, gap and temperature in units of omega_c."""

    alpha: float
    omega0: float = 0.0
    temperature: float = 0.0

    def __post_init__(self):
        for name in ("alpha", "omega0", "temperature"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.alpha < 0.0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.omega0 < 0.0:
            raise ValueError(f"omega0 must be nonnegative, got {self.omega0}")
        if self.temperature < 0.0:
            raise ValueError(f"temperature must be nonnegative, got {self.temperature}")
        # The plateau's 4 alpha; it bounds the induced coupling's 2 alpha.
        if not math.isfinite(4.0 * self.alpha):
            raise ValueError(f"4 alpha overflows at alpha {self.alpha:g}, omega0 "
                             f"{self.omega0:g}, temperature {self.temperature:g}")


def spectral_density(spec: OhmicGapSpectrum, omega):
    """J(omega); accepts scalars or arrays, zero at and below the gap."""
    omega = np.asarray(omega, dtype=float)
    x = omega - spec.omega0
    dens = spec.alpha * x * np.exp(-np.clip(x, 0.0, None))
    out = np.where(omega > spec.omega0, dens, 0.0)
    return float(out) if out.ndim == 0 else out


def _exp_e1(z: np.ndarray) -> np.ndarray:
    """e^z E1(z) for an array of complex z with Re z > 0.

    The power series of E1 for |z| <= 1; above that the continued fraction
    e^z E1(z) = 1/(z + 1 - 1/(z + 3 - 4/(z + 5 - ...))), evaluated by the
    modified Lentz method.  Scaling by e^z keeps large |z| finite.
    """
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    near = np.abs(z) <= 1.0

    zn = z[near]
    # E1(z) = -gamma - ln z - sum_k (-z)^k / (k k!); at |z| = 1 the 20th term is 2e-20.
    term = np.ones_like(zn)
    tail = np.zeros_like(zn)
    for k in range(1, _E1_SERIES_TERMS + 1):
        term = term * (-zn) / k
        tail = tail + term / k
    out[near] = np.exp(zn) * (-np.euler_gamma - np.log(zn) - tail)

    zf = z[~near]
    far = np.empty_like(zf)
    # Each point stops at its own convergence and leaves the iteration, so
    # the loop runs only over the points still open.
    pending = np.arange(zf.size)
    b = zf + 1.0
    c = np.full_like(zf, 1e300)  # Lentz starts c at "infinity"
    d = 1.0 / b
    h = d
    k = 0
    while pending.size:
        k += 1
        if k > _LENTZ_MAX_TERMS:
            raise RuntimeError(
                f"E1 continued fraction did not converge in {_LENTZ_MAX_TERMS} terms")
        b = b + 2.0
        d = 1.0 / (b - k * k * d)
        c = b - k * k / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) <= _LENTZ_TOL
        if done.any():
            far[pending[done]] = h[done]
            keep = ~done
            pending, b, c, d, h = pending[keep], b[keep], c[keep], d[keep], h[keep]
    out[~near] = far
    return out


def _re_lngamma(z: np.ndarray) -> np.ndarray:
    """Re ln Gamma(z) for complex z with Re z >= 1.

    Points with |z| < 10 are shifted by ten steps of the recurrence
    ln Gamma(z) = ln Gamma(z + 10) - sum_{k<10} ln(z + k); the Stirling series
    to 1/w^15 then errs by under 1e-17 at |w| >= 11.
    """
    z = np.asarray(z, dtype=complex)
    near = np.abs(z) < _STIRLING_SHIFT
    w = np.where(near, z + _STIRLING_SHIFT, z)
    inv = 1.0 / w
    series = (inv * np.polyval(_STIRLING_COEFFS, inv * inv)).real
    stirling = ((w - 0.5) * np.log(w) - w).real + 0.5 * math.log(2.0 * math.pi) + series
    recurrence = sum(np.log(np.abs(z + k)) for k in range(_STIRLING_SHIFT))
    return np.where(near, stirling - recurrence, stirling)


def _gap_transform(x0, s: np.ndarray) -> np.ndarray:
    """F(s) = integral_0^inf u e^{-u} exp(i s (x0 + u)) / (x0 + u)^2 du for x0 > 0.

    In closed form, with z = x0 (1 - i s): F = e^{i s x0} [(1 + z) e^z E1(z) - 1].
    At T = 0, gamma_R = 4 alpha Re(F(0) - F(s)) and gamma_I = 4 alpha Im F(s).
    ``x0`` and ``s`` broadcast against each other.
    """
    z = x0 * (1.0 - 1j * s)
    return np.exp(1j * x0 * s) * ((1.0 + z) * _exp_e1(z) - 1.0)


def _bose_log_tail(n_terms: int, x0: float, tau: float) -> float:
    """ln of a bound on the Bose-series terms after the first ``n_terms + 1``.

    With r = x0/tau and b_n = 1 + n/tau, damping term n >= 1 of :func:`_bose_pass`
    is 2 e^{-n r} Re(F_X(0) - F_X(s/b_n)) at X = b_n x0, and
    0 <= Re(F_X(0) - F_X(sigma)) <= 2 F_X(0) <= 2/X^2.  The terms after N
    therefore sum to at most 4 e^{-(N+1) r} / ((b_{N+1} x0)^2 (1 - e^{-r})),
    which decreases in N.  At T = 0 there are no such terms.
    """
    if tau == 0.0:
        return -math.inf
    r = x0 / tau
    return (math.log(4.0) - (n_terms + 1) * r
            - 2.0 * math.log((1.0 + (n_terms + 1) / tau) * x0) - math.log(-math.expm1(-r)))


def _bose_terms(x0: float, tau: float) -> int | None:
    """Smallest N whose Bose-series tail bound is at most _SERIES_TAIL_TOL.

    Found by doubling and bisection over integers, O(log N) scalar
    evaluations; 0 at T = 0; None when N would exceed _SERIES_MAX_WORK,
    which no grid admits.
    """
    if tau > 0.0 and x0 / tau == 0.0:
        return None
    target = math.log(_SERIES_TAIL_TOL)
    if _bose_log_tail(0, x0, tau) <= target:
        return 0
    low, high = 0, 1
    while _bose_log_tail(high, x0, tau) > target:
        if high > _SERIES_MAX_WORK:
            return None
        low, high = high, 2 * high
    while high - low > 1:
        mid = (low + high) // 2
        if _bose_log_tail(mid, x0, tau) <= target:
            high = mid
        else:
            low = mid
    return high


def _bose_table(x0, tau, n) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Decay rates b_n, arguments X = b_n x0 and weights c_n e^{-n r} of Bose terms n.

    b_n = 1 + n/tau, r = x0/tau, c_0 = 1 and c_n = 2 for n >= 1; the
    arguments broadcast.  The n = 0 term (b_0 = 1, weight 1) is the only one
    at T = 0 and does not depend on tau, so tau = 0 is read as 1; at a
    subnormal tau, r overflows to inf and the weights of n >= 1 to 0.
    """
    tau = np.where(tau > 0.0, tau, 1.0)
    b = 1.0 + n / tau
    with np.errstate(over="ignore"):
        weight = np.where(n > 0, 2.0 * np.exp(-(x0 / tau) * np.maximum(n, 1)), 1.0)
    return b, b * x0, weight


def _bose_pass(specs, s=None):
    """Plateaus of ``specs`` and, on times ``s``, their Bose series.

    ``plateaus`` holds :func:`gamma_R_infinity` of every spectrum: 0 at
    alpha = 0, inf when gapless with coupling, else 4 alpha sum_n c_n e^{-n r}
    F_X(0) over the terms of :func:`_bose_table`.  Row k of ``damping``,
    ``first`` and ``tail`` belongs to the k-th gapped spectrum with coupling:
    sum_n c_n e^{-n r} Re[F_X(0) - F_X(s/b_n)] = gamma_R / (4 alpha), the
    n = 0 column F_{x0}(s) with Im = gamma_I / (4 alpha), and the bound of
    :func:`_bose_log_tail` on the terms left out.  Term n is the T = 0 form
    at decay rate b_n (the substitution v = b_n u), and each F_X(0) is
    evaluated once.

    The terms fill zero-padded rows of _SERIES_CHUNK_TERMS, evaluated in
    blocks of _SERIES_CHUNK_TIMES rows.  A plateau sums its own padded row
    sums, so it does not depend on the other spectra; the damping adds each
    row's live terms on blocks of _SERIES_CHUNK_TIMES times, so every time
    point is summed in the same order whatever the length of the grid.

    Raises ``RuntimeError`` before any evaluation when one spectrum needs
    more than _SERIES_MAX_WORK E1 values, N * (s.size + 1), or all of them
    together more than _SERIES_MAX_WORK terms for their plateaus.
    """
    s = np.empty(0) if s is None else s
    plateaus = np.array([0.0 if spec.alpha == 0.0 else math.inf for spec in specs])
    gapped = [k for k, spec in enumerate(specs) if spec.alpha > 0.0 and spec.omega0 > 0.0]
    cells = [specs[k] for k in gapped]
    x0 = [spec.omega0 for spec in cells]
    tau = [spec.temperature for spec in cells]
    n_terms = [_bose_terms(*args) for args in zip(x0, tau)]
    for spec, n in zip(cells, n_terms):
        if n is None or n * (s.size + 1) > _SERIES_MAX_WORK:
            needs = f"more than {_SERIES_MAX_WORK}" if n is None else f"N = {n}"
            target = f"{s.size} times and the plateau" if s.size else "its plateau"
            raise RuntimeError(
                f"Bose series at gap {spec.omega0:g}, temperature {spec.temperature:g} "
                f"needs {needs} terms for {target}, above the work cap of "
                f"{_SERIES_MAX_WORK} E1 evaluations")
    total = sum(n_terms) + len(n_terms)
    if total > _SERIES_MAX_WORK:
        raise RuntimeError(
            f"Bose series of {len(cells)} gapped spectra need {total} terms together "
            f"for their plateaus, above the work cap of {_SERIES_MAX_WORK} E1 evaluations")
    tail = np.array([math.exp(_bose_log_tail(*args)) for args in zip(n_terms, x0, tau)])
    n_terms, x0, tau = np.array(n_terms, dtype=int), np.array(x0), np.array(tau)
    rows = n_terms // _SERIES_CHUNK_TERMS + 1
    first_row = np.cumsum(rows) - rows
    cell = np.repeat(np.arange(len(cells)), rows)
    row_start = (np.arange(cell.size) - first_row[cell]) * _SERIES_CHUNK_TERMS
    row_sums = np.empty(cell.size)
    damping = np.zeros((len(cells), s.size))
    first = np.empty((len(cells), s.size), dtype=complex)
    for low in range(0, cell.size, _SERIES_CHUNK_TIMES):
        block = slice(low, low + _SERIES_CHUNK_TIMES)
        n = row_start[block, None] + np.arange(_SERIES_CHUNK_TERMS)
        live = n <= n_terms[cell[block, None]]
        k = np.broadcast_to(cell[block, None], n.shape)[live]
        b, x, weight = _bose_table(x0[k], tau[k], n[live])
        f0 = _gap_transform(x, 0.0).real
        terms = np.zeros(n.shape)
        terms[live] = weight * f0
        row_sums[block] = np.sum(terms, axis=1)
        counts = np.count_nonzero(live, axis=1)
        for row, stop, count in zip(range(low, cell.size), np.cumsum(counts), counts):
            part = slice(stop - count, stop)
            for start in range(0, s.size, _SERIES_CHUNK_TIMES):
                times = slice(start, start + _SERIES_CHUNK_TIMES)
                f = _gap_transform(x[part], s[times, None] / b[part])
                if row_start[row] == 0:
                    first[cell[row], times] = f[:, 0]
                damping[cell[row], times] += np.sum(weight[part] * (f0[part] - f.real), axis=1)
    sums = np.array([np.sum(row_sums[a:a + m]) for a, m in zip(first_row, rows)])
    plateaus[gapped] = 4.0 * np.array([spec.alpha for spec in cells]) * sums
    return plateaus, damping, first, tail


def effective_coupling(spec: OhmicGapSpectrum) -> float:
    """Induced qubit-qubit coupling 2 * integral J(omega)/omega domega.

    Closed form 2 alpha (1 - x0 e^{x0} E1(x0)) with x0 = omega0, which is
    2 alpha for a gapless spectrum.
    """
    if spec.omega0 == 0.0:
        return 2.0 * spec.alpha
    x0 = spec.omega0
    return 2.0 * spec.alpha * (1.0 - x0 * float(_exp_e1(np.array([x0])).real[0]))


def bath_exponents(spec: OhmicGapSpectrum, t_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma_R(t), gamma_I(t) and an absolute error estimate on a grid of times.

    ``t_grid`` is a 1-D array of finite nonnegative times in any order; all
    three arrays are exactly zero at t = 0 and for alpha = 0.  In units of
    omega_c, s = t, x0 = omega0 and tau = T:

    - gapless, T = 0: gamma_R = 2 alpha ln(1 + s^2), gamma_I = 4 alpha arctan s;
    - gapless, T > 0: gamma_R = 4 alpha [ln(1 + s^2)/2 + 2 ln Gamma(1 + tau)
      - 2 Re ln Gamma(1 + tau + i tau s)] (Palma, Suominen & Ekert, Proc. R.
      Soc. A 452, 567 (1996)), gamma_I as at T = 0;
    - gapped: the Bose series, a weighted sum of the exponential-integral
      form of :func:`_gap_transform` at decay rates 1 + n/tau, truncated at
      the first N whose tail bound (:func:`_bose_log_tail`) is at most 1e-16,
      which is N = 0 at T = 0; gamma_I is the n = 0 term, since it does not
      depend on T.  One call of :func:`_bose_pass` gives the series, the
      plateau and the tail bound.

    The error estimate is the rounding bound 1e-13 times the magnitude of the
    terms combined (twice the plateau plus the n = 0 term for the Bose
    series), plus 4 alpha times the tail bound for the Bose series.

    Raises ``RuntimeError`` before any evaluation when the Bose series would
    need more than 2^25 E1 values, N * (len(t_grid) + 1).
    """
    t = np.asarray(t_grid, dtype=float)
    if t.ndim != 1:
        raise ValueError(f"t_grid must be 1-D, got shape {t.shape}")
    valid = np.isfinite(t) & (t >= 0.0)
    if not valid.all():
        raise ValueError(f"t must be finite and nonnegative, got {t[~valid][0]}")
    gamma_r = np.zeros_like(t)
    gamma_i = np.zeros_like(t)
    error = np.zeros_like(t)
    live = np.flatnonzero(t > 0.0) if spec.alpha > 0.0 else np.empty(0, dtype=int)
    if not live.size:
        return gamma_r, gamma_i, error
    a4 = 4.0 * spec.alpha
    x0 = spec.omega0
    tau = spec.temperature
    tail = 0.0

    if x0 > 0.0:
        plateau, damping, first, bound = _bose_pass([spec], t)
        gamma_r[live] = a4 * damping[0, live]
        gamma_i[live] = a4 * first[0, live].imag
        magnitude = 2.0 * plateau[0] + a4 * np.abs(first[0, live])
        tail = a4 * bound[0]
    else:
        s = t[live]
        with np.errstate(over="ignore"):  # s * s = inf past 1e154: gamma_R = inf is the limit
            log_term = 0.5 * np.log1p(s * s)
        gamma_i[live] = a4 * np.arctan(s)
        if tau == 0.0:
            gamma_r[live] = a4 * log_term
            magnitude = gamma_r[live] + gamma_i[live]
        else:
            # ln Gamma(1 + tau) is the s = 0 entry of the same evaluation, so
            # the difference carries no offset between two methods as s -> 0.
            lg = _re_lngamma(1.0 + tau + 1j * tau * np.append(s, 0.0))
            gamma_r[live] = a4 * (log_term + 2.0 * (lg[-1] - lg[:-1]))
            magnitude = a4 * (log_term + 2.0 * (abs(lg[-1]) + np.abs(lg[:-1]))) + gamma_i[live]
    error[live] = _CLOSED_FORM_RTOL * magnitude + tail
    return np.maximum(gamma_r, 0.0), gamma_i, error


def gamma_R_infinity(spec: OhmicGapSpectrum) -> float:
    """Long-time limit of gamma_R.

    Returns ``math.inf`` when the limit diverges, which happens exactly for a
    gapless spectrum with nonzero coupling: the integrand then behaves as
    1/omega at the origin and the oscillatory term never stops contributing.
    A gapped limit is the plateau 4 alpha sum_n c_n e^{-n r} F_X(0) of the
    Bose series of :func:`bath_exponents` (F_X(s) -> 0), with the same term
    count, tail bound and work cap as a grid with no times.
    """
    return float(_bose_pass([spec])[0][0])


def bath_gamma(spec: OhmicGapSpectrum, t: float) -> tuple[float, float, float]:
    """(gamma_R, gamma_I, error estimate) at time ``t``: one row of :func:`bath_exponents`."""
    # No module of the package calls this one-point view; it stays only
    # because the benchmark's tracer (perfbench/tracer.py) names it.
    return tuple(float(v[0]) for v in bath_exponents(spec, [t]))


def bath_reduced_density(spec: OhmicGapSpectrum, psi0: QubitAmplitudes, t: float) -> np.ndarray:
    """Reduced two-qubit density matrix under the bath at time ``t``.

    Same matrix structure as the single-mode result, with theta*t given by
    the effective coupling and the decoherence exponents by the bath
    integrals.
    """
    gamma_r, gamma_i, _ = bath_exponents(spec, [t])
    theta_t = effective_coupling(spec) * t
    return reduced_density(psi0, theta_t, GammaValue(float(gamma_r[0]), float(gamma_i[0])))


def steady_state_stats(spec: OhmicGapSpectrum, psi0: QubitAmplitudes,
                       phase_points: int = 2048) -> tuple[float, float, float] | None:
    """(gamma_R(inf), c_max, entropy) in the saturated regime, or None if there is none.

    In the steady state gamma_R is pinned at its long-time limit and gamma_I
    has decayed to zero; only the induced phase theta*t keeps advancing.
    ``c_max`` is the maximum concurrence over ``phase_points`` values of the
    residual phase theta*t in [0, pi/2) (its full period up to local
    unitaries), each in closed form by
    :func:`~twospinboson.single_mode._model_measures` with no decomposition
    per phase.  The entropy is exactly phase independent, since the phase
    acts on the state as a diagonal unitary; it comes from the exact
    invariants of the cell's 3x3 Gram form.

    Returns ``None`` when gamma_R diverges (gapless spectrum with coupling),
    in which case no steady state exists.
    """
    g_inf, c_max, entropy = (float(v[0]) for v in _steady_states([spec], psi0, phase_points))
    return None if math.isinf(g_inf) else (g_inf, c_max, entropy)


def _steady_states(specs, psi0: QubitAmplitudes,
                   phase_points: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns gamma_R(inf), c_max and entropy of :func:`steady_state_stats` over ``specs``.

    The plateaus come from one :func:`_bose_pass`; c_max and the entropy are
    NaN where the plateau is infinite.  An invalid state is named by its
    index among the cells with a plateau.
    """
    vec = _require_amplitudes(psi0)
    if phase_points < 4:
        raise ValueError(f"phase_points must be at least 4, got {phase_points}")
    theta_ts = np.linspace(0.0, 0.5 * math.pi, phase_points, endpoint=False)
    g_inf = _bose_pass(specs)[0]
    live = np.isfinite(g_inf)
    c_max, entropy = np.full(len(specs), math.nan), np.full(len(specs), math.nan)
    conc, entropy[live] = _model_measures(
        vec, g_inf[live], np.broadcast_to(2.0 * theta_ts, (np.count_nonzero(live), phase_points)))
    c_max[live] = np.max(conc, axis=1)
    return g_inf, c_max, entropy
