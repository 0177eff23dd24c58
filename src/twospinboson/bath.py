"""Gapped Ohmic environment: decoherence exponents, induced coupling, steady state.

The environment's spectral density is

    J(omega) = alpha * (omega - omega0) * exp(-(omega - omega0)/omega_c)

for omega above the gap omega0 and zero below it (hbar = k_B = 1); no
evaluation path needs J itself, and the quadrature oracle evaluates it
(:func:`twospinboson.quadrature.spectral_density`).  Everything
is in units of the cutoff omega_c: ``omega0`` is x0 = omega0/omega_c, the
temperature is tau = T/omega_c and times are s = omega_c t.  The
environment acts on the two qubits only through three numbers:

    effective_coupling = 2 * integral J/omega domega       (induced coupling)
    gamma_R(t) = 4 * integral J/omega^2 * coth(omega/2T) * (1 - cos omega t)
    gamma_I(t) = 4 * integral J/omega^2 * sin(omega t)     (temperature free)

so the reduced state has the same structure as in the single-mode model, and
every table measures it through the model route of
:func:`twospinboson.single_mode._model_measures`, fed the rows of
:func:`bath_exponents` and :func:`effective_coupling`.

:func:`bath_exponents` evaluates gamma_R and gamma_I on a whole time grid at
once; every caller in the package takes them from it.  The method depends on
the gap and the temperature:

- gapless, T = 0: 2 alpha ln(1 + t^2) and 4 alpha arctan t;
- gapless, T > 0: the same gamma_I, and gamma_R plus twice the drop
  ln Gamma(1 + T) - Re ln Gamma(1 + T + i T t) of :func:`_thermal_drop`;
- gapped, any T: the Bose series coth(omega/2T) = 1 + 2 sum_n e^{-n omega/T}.
  Each term is the exponential integral E1 of a complex argument (power
  series for |z| <= 1; above, its continued fraction evaluated bottom-up
  from a depth that a Gauss-Laguerre error bound fixes for each z) with the
  decay rate 1 + n/T in place of 1, so gamma_R is a weighted sum of E1
  closed forms; gamma_I does not depend on T and is the n = 0 term.  At
  T = 0 the series is that one term.  A plan picks each series' route
  before anything is evaluated: the direct sum up to the first N whose
  proven tail bound is below 1e-16, or, when that needs more terms, a few
  terms plus the Euler-Maclaurin formula, whose integral and derivatives
  are closed forms and whose remainder bound is also below 1e-16.  Either
  way a series costs at most nine E1 values per time point, whatever N.

The effective coupling is a closed form through E1 for every spectrum, and
the long-time limit gamma_R(inf) is the plateau of the Bose series.  One
private pass, :func:`_bose_pass`, evaluates every Bose-series term: over
arrays of gaps and temperatures, one series per row that a row of couplings
shares, it plans each route once, evaluates each plateau term once and
returns the plateaus and, on a time grid, the damping sums, the n = 0
column and the remainder bound.  No evaluation path integrates; the
quadrature of the defining integrals that the closed forms and the series
are checked against is the oracle module :mod:`twospinboson.quadrature`,
which this module does not import.

The steady state (gamma_R at its plateau, gamma_I = 0) goes through
:func:`~twospinboson.single_mode._model_measures`: the entropy from the exact
invariants of the Gram form, and the closed form of the Wootters values that
the index-flip symmetry of the model state gives, with no decomposition on
ordinary inputs.  Its largest concurrence over a grid of induced phases is
exactly the larger of the values at two grid phases, the same two for every
cell (:func:`_steady_states`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .single_mode import QubitAmplitudes, _cross_term, _model_measures, _require_amplitudes

__all__ = [
    "OhmicGapSpectrum",
    "effective_coupling",
    "bath_exponents",
    "gamma_R_infinity",
    "bath_gamma",
    "steady_state_stats",
]

# Relative accuracy of the special-function closed forms (the E1 forms and
# the ln Gamma drop are tested against high-precision references at this level).
_CLOSED_FORM_RTOL = 1e-13

# Bose series of a gapped bath: the remainder of every route (see _bose_plan)
# is at most _SERIES_TAIL_TOL.  The Euler-Maclaurin route sums at most
# _EM_MAX_TERMS terms directly and adds at most len(_BERNOULLI) corrections,
# and the direct route is kept only where it is no longer, so a spectrum costs
# at most _EM_MAX_TERMS + 1 E1 values per time point whatever its
# temperature.  Rows of those values are evaluated _SERIES_CHUNK_ROWS at a
# time (about 0.6 MB per complex temporary).
_SERIES_TAIL_TOL = 1e-16
_EM_MAX_TERMS = 8
_SERIES_CHUNK_ROWS = 4096

# B_2k/(2k)!, k = 1..12: the Euler-Maclaurin coefficients.  Their moduli are
# also the remainder constants, |B_2k|/(2k)! = 2 zeta(2k)/(2 pi)^(2k).
_BERNOULLI = (8.333333333333333e-02, -1.388888888888889e-03, 3.306878306878307e-05,
              -8.267195767195768e-07, 2.08767569878681e-08, -5.284190138687493e-10,
              1.3382536530684679e-11, -3.3896802963225827e-13, 8.586062056277845e-15,
              -2.174868698558062e-16, 5.5090028283602295e-18, -1.3954464685812522e-19)

_E1_SERIES_TERMS = 20

# Stirling series ln Gamma(w) ~ (w - 1/2) ln w - w + ln(2 pi)/2
#   + sum_k B_2k / (2k (2k - 1) w^(2k - 1)), k = 1..8; highest power first.
_STIRLING_COEFFS = (-3617.0 / 122400.0, 1.0 / 156.0, -691.0 / 360360.0, 1.0 / 1188.0,
                    -1.0 / 1680.0, 1.0 / 1260.0, -1.0 / 360.0, 1.0 / 12.0)
_STIRLING_SHIFT = 10

# Grid values of the residual phase theta*t in [0, pi/2) whose largest
# steady-state concurrence is c_max (see _steady_states): two of them are
# measured per cell, whatever the count.
_PHASE_POINTS = 2048


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


def _e1_power_tail(z):
    """sum_{k>=1} (-z)^k / (k k!), so that E1(z) = -gamma - ln z - this; |z| <= 1.

    Twenty terms: at |z| = 1 the 20th is 2e-20.
    """
    w = -z
    term = np.ones_like(z)
    tail = np.zeros_like(z)
    for k in range(1, _E1_SERIES_TERMS + 1):
        term = term * w / k
        tail = tail + term / k
    return tail


def _e1_tail_depth(z: np.ndarray) -> np.ndarray:
    """Depth N of the tail k in :func:`_exp_e1` at each z with |z| > 1, Re z >= 0.

    Levels 0..N of the fraction are the n = N + 1 point Gauss-Laguerre rule for
    g = int_0^inf e^{-t}/(z + t) dt, whose error L_n(-z)^{-2} int e^{-t}
    L_n(t)^2/(z + t) dt is at most 1/(|z| |L_n(-z)|^2) in modulus.  G, C and A
    are affine in g with slopes 1 + z, -z and z (1 + z/2), so each form's
    relative error is |slope/form| times that.  ceil(116/(Re sqrt z)^2 + 14)
    keeps all three at or below eps/2 for 1 <= |z| <= 1e22 (checked on a
    log-polar grid); by Perron's formula the bound falls as exp(-4 sqrt(n) Re sqrt z).
    """
    with np.errstate(over="ignore"):  # (Re sqrt z)^2 = inf past the largest float: depth 14
        return np.ceil(116.0 / np.sqrt(z).real ** 2 + 14.0).astype(int)


def _exp_e1(z: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Three forms of g = e^z E1(z) for an array of complex z with Re z > 0.

    G = (1 + z) g - 1, C = 1 - z g and A = z (1 + z/2) g - (1 + z)/2, which
    is e^z times A(z) = E1(z) (z + z^2/2) - (1 + z) e^{-z}/2, the
    antiderivative of e^{-z} G that vanishes at infinity.  For |z| <= 1, g
    comes from the power series of E1 and the forms from their definitions.
    Above that the continued fraction g = 1/(z + 1 - h), h = 1/(z + 3 - 4k),
    k = 1/(z + 5 - 9/(z + 7 - 16/(z + 9 - ...))) is evaluated bottom-up on its
    tail k from the depth :func:`_e1_tail_depth` fixes for each point before
    any evaluation, and the forms are the exact products G = g h,
    C = g (1 - h) and A = -g h (1 - 2k): no subtraction cancels, though each
    form falls far below g at large |z|.  Scaling by e^z keeps large |z| finite.
    """
    z = np.asarray(z, dtype=complex)
    forms = np.empty((3, *z.shape), dtype=complex)
    near = np.abs(z) <= 1.0

    zn = z[near]
    g = np.exp(zn) * (-np.euler_gamma - np.log(zn) - _e1_power_tail(zn))
    forms[:, near] = ((1.0 + zn) * g - 1.0, 1.0 - zn * g, zn * (1.0 + 0.5 * zn) * g - 0.5 * (1.0 + zn))

    zf = z[~near]
    depth = _e1_tail_depth(zf)
    # Deepest points first: those whose depth reaches level j are a prefix,
    # of length reach[j].  u is j^2 times the tail from level j on.
    order = np.argsort(-depth)
    zs = zf[order]
    reach = np.cumsum(np.bincount(depth)[::-1])[::-1].tolist()
    u = np.zeros_like(zs)
    k_tail = np.empty_like(zf)
    # A divisor with both parts near the largest float overflows inside
    # numpy's complex division, which returns 0: the quotient within 1e-308.
    with np.errstate(over="ignore"):
        for j in range(len(reach) - 1, 2, -1):
            w = zs[:reach[j]] - u[:reach[j]]
            w += 2 * j + 1
            np.divide(j * j, w, out=u[:reach[j]])
        k_tail[order] = 1.0 / (zs + 5.0 - u)
        h = 1.0 / (zf + 3.0 - 4.0 * k_tail)
        g = 1.0 / (zf + 1.0 - h)
    forms[:, ~near] = (g * h, g * (1.0 - h), -g * h * (1.0 - 2.0 * k_tail))
    return forms[0], forms[1], forms[2]


def _half_log1p_sq(x: np.ndarray) -> np.ndarray:
    """ln sqrt(1 + x^2) for an array of x >= 0, finite for finite x: x^2 is formed only below 1."""
    small = np.minimum(x, 1.0)
    return np.where(x < 1.0, 0.5 * np.log1p(small * small), np.log(np.hypot(1.0, x)))


def _exp_a_step(x: np.ndarray, delta: np.ndarray) -> np.ndarray:
    """e^x [A(x) - A(x - i delta)] for x > 0 and |x - i delta| <= 1 (arrays), A of :func:`_exp_e1`.

    This is A~(x) - e^{i delta} A~(x - i delta) in the form A~ = e^z A(z) of
    :func:`_exp_e1`, whose two values nearly cancel when delta is small.  So
    each factor of A(z) = E1(z) w(z) - (1 + z) e^{-z}/2, w = z + z^2/2, is
    differenced on its own, with z = x - i delta:

        w(x) - w(z) = i delta (1 + (x + z)/2),
        E1(x) - E1(z) = ln(z/x) - sum_k (-1)^k (x^k - z^k) / (k k!),
        (1 + x) e^{-x} - (1 + z) e^{-z} = e^{-x} [i delta - (1 + z) (e^{i delta} - 1)],

    with ln(z/x) = ln(1 - i y), y = delta/x, and x^k - z^k = x (x^{k-1} - z^{k-1})
    + i delta z^{k-1}; none of them cancels.
    """
    z = x - 1j * delta
    y = delta / x
    log_ratio = _half_log1p_sq(y) - 1j * np.arctan(y)
    power = np.ones_like(z)
    gap = np.zeros_like(z)  # x^k - z^k
    coefficient = 1.0
    series = np.zeros_like(z)
    for k in range(1, _E1_SERIES_TERMS + 1):
        gap = x * gap + 1j * delta * power
        power = power * z
        coefficient = -coefficient / k
        series = series + (coefficient / k) * gap
    exp_x = np.exp(x)
    exp_e1_x = exp_x * (-np.euler_gamma - np.log(x) - _e1_power_tail(x))
    expm1 = -2.0 * np.sin(0.5 * delta) ** 2 + 1j * np.sin(delta)  # e^{i delta} - 1
    return (exp_e1_x * 1j * delta * (1.0 + 0.5 * (x + z))
            + exp_x * (log_ratio - series) * (z + 0.5 * z * z)
            - 0.5 * (1j * delta - (1.0 + z) * expm1))


def _thermal_drop(tau: float, s: np.ndarray) -> np.ndarray:
    """ln Gamma(1 + tau) - Re ln Gamma(1 + tau + i tau s) >= 0 for tau > 0 and an array of s >= 0.

    Taken term by term, never as a difference of two ln Gamma values, so it
    keeps its relative accuracy as s -> 0.  Below 1 + tau = 10 each of ten
    recurrence steps adds ln|1 + i y_k|, y_k = s tau / (1 + tau + k).  At the
    real W = 1 + tau (plus 10 if shifted), with e = s tau / W and phi = arctan e,
    the Stirling leading terms give W (e phi - (1 - 1/(2W)) ln|1 + i e|), and
    the term c / w^m gives -c W^-m (expm1(-m ln|1 + i e|) cos(m phi) - 2 sin^2(m phi / 2)).
    Past the largest float the drop is inf, never NaN.
    """
    shifted = 1.0 + tau < _STIRLING_SHIFT
    drop = np.zeros_like(s)
    if shifted:
        for k in range(_STIRLING_SHIFT):
            drop += _half_log1p_sq(s * (tau / (1.0 + tau + k)))
    w = 1.0 + tau + (_STIRLING_SHIFT if shifted else 0.0)
    e = s * (tau / w)
    phi = np.arctan(e)
    log_mod = _half_log1p_sq(e)
    inv = 1.0 / w
    for k, c in enumerate(reversed(_STIRLING_COEFFS)):
        m = 2 * k + 1
        drop -= c * inv**m * (np.expm1(-m * log_mod) * np.cos(m * phi)
                              - 2.0 * np.sin(0.5 * m * phi) ** 2)
    with np.errstate(over="ignore"):  # e phi, or W times it, past the largest float: inf
        return drop + w * (e * phi - (1.0 - 0.5 * inv) * log_mod)


def _bose_log_tail(n, x0, tau):
    """ln of a bound on the damping terms of the Bose series after the first ``n + 1``.

    With r = x0/tau and z_m = x0 + m r - i x0 s, damping term m >= 1 of
    :func:`_bose_sums` is 2 e^{-m r} Re[G(x0 + m r) - e^{i s x0} G(z_m)], and
    0 <= that <= 4 e^{-m r} G(x0 + m r) <= 4 e^{-m r} / (x0 + m r)^2.  The
    terms after n therefore sum to at most
    4 e^{-(n+1) r} / ((b_{n+1} x0)^2 (1 - e^{-r})), b_m = 1 + m/tau, which
    decreases in n.  The arguments broadcast; the bound is -inf at T = 0,
    where there are no such terms, and inf where r underflows to 0.
    """
    with np.errstate(divide="ignore", over="ignore"):
        r = x0 / tau
        return (math.log(4.0) - (n + 1) * r - 2.0 * np.log((1.0 + (n + 1) / tau) * x0)
                - np.log(-np.expm1(-r)))


def _em_remainders(q, r, count: int) -> list:
    """R_{-1}, R_1, R_3, ..., R_{2 count - 3}: the odd derivatives of the Euler-Maclaurin route.

    R_{-1} = q and, for m >= 0, R_m = sum_{i<=m} binom(m, i) (i+1)! r^(m-i) q^(i+2),
    through R_m = q (S_m + m R_{m-1}) and S_m = q (r^m + m S_{m-1}), S_0 = q,
    which add nonnegative terms when q and r are.  :func:`_bose_sums` says
    which derivatives they are; the arrays broadcast.
    """
    out = [q]
    s, rem, power = q, q * q, 1.0
    for m in range(1, 2 * count - 2):
        power = power * r
        s = q * (power + m * s)
        rem = q * (s + m * rem)
        if m % 2:
            out.append(rem)
    return out


def _bose_plan(x0, tau) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Route of each gapped Bose series, chosen before anything is evaluated.

    For gaps ``x0`` > 0 and temperatures ``tau`` (arrays) returns ``terms``,
    ``order`` and ``bound``.  The direct route (order 0) sums the terms
    n < terms = N + 1, N the first whose tail bound (:func:`_bose_log_tail`)
    is at most _SERIES_TAIL_TOL.  The Euler-Maclaurin route (order K >= 1)
    sums the terms n < M = terms and replaces the rest by the closed forms of
    :func:`_bose_sums`.  With f(x) = 2 e^{-x r} G(x0 + x r), r = x0/tau, its
    remainder is at most |B_2K|/(2K)! int_M^inf |f^(2K)|.  Since
    G(z) = int_0^inf v e^{-z v} / (1 + v)^2 dv, the derivatives of the
    time-dependent part 2 e^{-x r} e^{i s x0} G(z_x) are bounded in modulus
    by those of f, and f^(2K) > 0, so the remainder of the damping sum at any
    time is at most

        bound = 2 |B_2K|/(2K)! |f^(2K-1)(M)| = 4 |B_2K|/(2K)! e^{-M r} R_{2K-3}

    with R of :func:`_em_remainders` at q = 1/(tau + M) (R_{-1} = q bounds
    the K = 1 case), and the plateau's at most half of that.  M is the
    smallest in 1.._EM_MAX_TERMS for which some K <= len(_BERNOULLI) puts the
    bound at most _SERIES_TAIL_TOL, K the smallest such.  A series keeps the
    direct route when N <= M, which needs no more E1 values; ``bound`` is the
    tail bound of the route taken.  At tau = 0 the series is its n = 0 term
    alone (terms 1, order 0, bound 0), so only rows with tau > 0 are planned.

    Raises ``RuntimeError`` naming the first series that neither route
    certifies: one whose r underflows, so that tau/x0 overflows.
    """
    x0 = np.asarray(x0, dtype=float)
    tau = np.asarray(tau, dtype=float)
    terms = np.ones(x0.size, dtype=np.intp)
    order = np.zeros(x0.size, dtype=np.intp)
    bound = np.zeros(x0.size)
    hot = np.flatnonzero(tau > 0.0)
    if hot.size == 0:
        return terms, order, bound
    x0, tau = x0[hot], tau[hot]
    rows = np.arange(x0.size)
    log_tail = _bose_log_tail(np.arange(_EM_MAX_TERMS + 1), x0[:, None], tau[:, None])
    direct = log_tail <= math.log(_SERIES_TAIL_TOL)
    n_last = np.argmax(direct, axis=1)

    m = np.arange(1, _EM_MAX_TERMS + 1)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        r = x0 / tau
        usable = (r > 0.0) & np.isfinite(r) & np.isfinite(4.0 / r)
        r = np.where(usable, r, 0.0)[:, None]
        q = 1.0 / (tau[:, None] + m)
        decay = np.exp(-m * r)
        bounds = np.stack([4.0 * abs(beta) * decay * rem for beta, rem
                           in zip(_BERNOULLI, _em_remainders(q, r, len(_BERNOULLI)))], axis=-1)
    certified = (bounds <= _SERIES_TAIL_TOL) & usable[:, None, None]
    m_first = np.argmax(certified.any(axis=2), axis=1)
    k_first = np.argmax(certified[rows, m_first], axis=1)
    has_em = certified[rows, m_first, k_first]
    use_direct = direct[rows, n_last] & (~has_em | (n_last <= m_first + 1))
    refused = np.flatnonzero(~(use_direct | has_em))
    if refused.size:
        k = refused[0]
        raise RuntimeError(
            f"Bose series at gap {x0[k]:g}, temperature {tau[k]:g} has no certified route: "
            f"temperature/gap overflows")
    terms[hot] = np.where(use_direct, n_last + 1, m_first + 1)
    order[hot] = np.where(use_direct, 0, k_first + 1)
    with np.errstate(over="ignore"):
        bound[hot] = np.where(use_direct, np.exp(log_tail[rows, n_last]),
                              bounds[rows, m_first, k_first])
    return terms, order, bound


def _em_corrections(forms, q, r, order):
    """G/2 + sum_{k<=K} B_2k/(2k)! R_{2k-3}: the Euler-Maclaurin terms at z_M besides the integral.

    ``forms`` are G, C, A of :func:`_exp_e1` at z_M, R_{-1} = C q and R_m
    for m >= 1 those of :func:`_em_remainders`, at q = r/z_M (see
    :func:`_bose_sums`).  ``q``, ``r`` and ``order`` = K broadcast.
    """
    G, C, _ = forms
    rems = _em_remainders(q, r, int(np.max(order)))
    total = _BERNOULLI[0] * C * q
    for k, (beta, rem) in enumerate(zip(_BERNOULLI[1:], rems[1:]), start=2):
        total = total + np.where(order >= k, beta, 0.0) * rem
    return 0.5 * G + total


def _bose_sums(x0, tau, terms, order, s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plateau sums, damping sums and n = 0 columns of gapped Bose series on their routes.

    Row k belongs to the spectrum (x0[k], tau[k]) with the route
    (terms[k], order[k]) of :func:`_bose_plan`; all sums are in units of
    4 alpha.  With r = x0/tau, z_n = x0 + n r - i x0 s and the forms G, C, A
    of :func:`_exp_e1`, term n of the series is the T = 0 closed form at
    decay rate b_n = 1 + n/tau (the substitution v = b_n u), weighted by
    c_0 = 1, c_n = 2 e^{-n r}:

        plateau  sum_n c_n G(x0 + n r),
        damping  sum_n c_n Re[G(x0 + n r) - e^{i s x0} G(z_n)],
        first    e^{i s x0} G(z_0), whose imaginary part is gamma_I / (4 alpha).

    The direct route sums n < terms.  The Euler-Maclaurin route sums n < M
    and replaces the rest of each series sum_n 2 e^{-n r} G(z_n) (s = 0 for
    the plateau) by 2 e^{-M r} times

        -A(z_M)/r + G(z_M)/2 + sum_{k<=K} B_2k/(2k)! R_{2k-3}:

    e^{-n r} G(z_n) = e^{z_0} u(z_n) with u = e^{-z} G, so its integral from M
    on is -(e^{-M r}/r) A(z_M), and its derivative of order j in n is
    e^{-n r} r^j e^z u^(j)(z) at z_n, which is -r C/z for j = 1 and
    (-1)^j r^j sum_{i<=j-2} binom(j-2, i) (i+1)! / z^(i+2) for j >= 2; at
    q = r/z_M = 1/(tau + M - i tau s) the odd ones are -R of
    :func:`_em_remainders` (R_{-1} = C q).  In the damping sum the two
    integrals, each about 1/r, are differenced by :func:`_exp_a_step` where
    z_M lies within the unit disc.  Each row is summed in index order on its
    own, so it does not depend on the other rows; rows of at most
    _EM_MAX_TERMS + 1 nodes are evaluated _SERIES_CHUNK_ROWS at a time.
    """
    cells = x0.size
    em = order > 0
    with np.errstate(divide="ignore", over="ignore"):
        r = np.where((terms > 1) | em, x0 / tau, 0.0)  # 0 where only n = 0 is summed
    node = np.arange(int(terms.max(initial=1)))
    x = x0[:, None] + node * r[:, None]
    weight = np.where(node > 0, 2.0 * np.exp(-node * r[:, None]), 1.0)
    x_m = x0 + terms * r
    decay = 2.0 * np.exp(-terms * r)

    # Row (k, j) is spectrum k at time (0, *s)[j]; rows run spectrum by
    # spectrum, so each plateau row (j = 0) comes before its time rows.
    times = np.concatenate([[0.0], s])
    rows = cells * times.size
    plateau = np.empty(cells)
    damping = np.zeros((cells, s.size))
    first = np.empty((cells, s.size), dtype=complex)
    g0 = np.zeros(x.shape)       # G at the plateau nodes
    corrections0 = np.zeros(cells)  # Euler-Maclaurin corrections of the plateau
    integral0 = np.zeros(cells)     # and its integral
    for low in range(0, rows, _SERIES_CHUNK_ROWS):
        k, j = np.divmod(np.arange(low, min(low + _SERIES_CHUNK_ROWS, rows)), times.size)
        delta = x0[k] * times[j]
        live = node < terms[k, None]
        z = x[k] - 1j * delta[:, None]
        m = np.flatnonzero(em[k])
        z_m = x_m[k[m]] - 1j * delta[m]
        forms = _exp_e1(np.concatenate([z[live], z_m]))
        split = np.count_nonzero(live)
        g = np.zeros(z.shape, dtype=complex)
        g[live] = forms[0][:split]
        corrections = np.zeros(k.size, dtype=complex)
        integral = np.zeros(k.size, dtype=complex)
        if m.size:
            km = k[m]
            forms_m = [form[split:] for form in forms]
            corrections[m] = _em_corrections(forms_m, r[km] / z_m, r[km], order[km])
            integral[m] = -forms_m[2] / r[km]

        top = j == 0
        kt = k[top]
        g0[kt] = g[top].real
        corrections0[kt] = corrections[top].real
        integral0[kt] = integral[top].real
        plateau[kt] = (np.cumsum(weight[kt] * g0[kt], axis=1)[:, -1]
                       + decay[kt] * (corrections0[kt] + integral0[kt]))

        kr, jr = k[~top], j[~top] - 1
        phase = np.exp(1j * delta[~top])
        # The two integrals, each about 1/r, cancel at small x0 s; within the
        # unit disc their difference is taken factor by factor.
        step = integral0[kr] - (phase * integral[~top]).real
        near = em[kr] & (np.abs(x_m[kr] - 1j * delta[~top]) <= 1.0)
        if near.any():
            step[near] = -_exp_a_step(x_m[kr][near], delta[~top][near]).real / r[kr][near]
        damping[kr, jr] = (np.cumsum(weight[kr] * (g0[kr] - (phase[:, None] * g[~top]).real),
                                     axis=1)[:, -1]
                           + decay[kr] * (corrections0[kr] - (phase * corrections[~top]).real + step))
        first[kr, jr] = phase * g[~top, 0]
    return plateau, damping, first


def _bose_pass(alphas, x0, tau, s=None):
    """Plateaus of a grid of cells and, on times ``s``, their Bose series.

    Row k of ``x0`` and ``tau`` (scalars or 1-D arrays of one length) is one
    Bose series, shared by the cells of every coupling in ``alphas`` (a
    scalar or 1-D array, the same for each row).  ``plateaus`` has one row
    per series and one column per coupling, each cell :func:`gamma_R_infinity`
    of its spectrum: 0 at alpha = 0, inf when gapless with coupling, else
    4 alpha times the plateau sum of :func:`_bose_sums`.  A series is summed
    where its gap is positive and some alpha is, and row k of ``damping``,
    ``first`` and ``tail`` belongs to the k-th such series: the damping sum
    gamma_R / (4 alpha), the n = 0 column F_{x0}(s) with Im = gamma_I / (4 alpha),
    and the bound of its route on the remainder of the damping sum.  One
    :func:`_bose_plan` picks every route before anything is evaluated (and
    refuses a series that no route certifies), then one :func:`_bose_sums`
    evaluates each plateau term once.
    """
    s = np.empty(0) if s is None else np.asarray(s, dtype=float)
    alphas, x0, tau = (np.atleast_1d(np.asarray(v, dtype=float)) for v in (alphas, x0, tau))
    coupled = alphas > 0.0
    summed = np.flatnonzero(x0 > 0.0) if coupled.any() else np.empty(0, dtype=np.intp)
    terms, order, tail = _bose_plan(x0[summed], tau[summed])
    sums, damping, first = _bose_sums(x0[summed], tau[summed], terms, order, s)
    # The alpha = 0 and gapless cells are set, not multiplied: 0 * inf is NaN.
    plateaus = np.empty((x0.size, alphas.size))
    plateaus[:] = np.where(coupled, math.inf, 0.0)
    with np.errstate(over="ignore"):  # past the largest float the plateau inf is the limit
        plateaus[summed[:, None], coupled] = 4.0 * alphas[coupled] * sums[:, None]
    return plateaus, damping, first, tail


def effective_coupling(spec: OhmicGapSpectrum) -> float:
    """Induced qubit-qubit coupling 2 * integral J(omega)/omega domega.

    Closed form 2 alpha (1 - x0 e^{x0} E1(x0)) with x0 = omega0, the form C
    of :func:`_exp_e1` (g (1 - h) above x0 = 1, with no cancellation as the
    coupling falls like 2 alpha / x0); 2 alpha for a gapless spectrum.
    """
    if spec.omega0 == 0.0:
        return 2.0 * spec.alpha
    return 2.0 * spec.alpha * float(_exp_e1(np.array([spec.omega0]))[1].real[0])


def bath_exponents(spec: OhmicGapSpectrum, t_grid) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """gamma_R(t), gamma_I(t) and an absolute error estimate on a grid of times.

    ``t_grid`` is a 1-D array of finite nonnegative times in any order; all
    three arrays are exactly zero at t = 0 and for alpha = 0.  In units of
    omega_c, s = t, x0 = omega0 and tau = T:

    - gapless, T = 0: gamma_R = 2 alpha ln(1 + s^2), gamma_I = 4 alpha arctan s;
    - gapless, T > 0: gamma_R = 4 alpha [ln(1 + s^2)/2 + 2 D], the drop
      D = ln Gamma(1 + tau) - Re ln Gamma(1 + tau + i tau s) of :func:`_thermal_drop`
      (Palma, Suominen & Ekert, Proc. R. Soc. A 452, 567 (1996)), gamma_I as at T = 0;
    - gapped: the Bose series, a weighted sum of the exponential-integral
      forms of :func:`_exp_e1` at decay rates 1 + n/tau, along the route of
      :func:`_bose_plan`: the direct sum up to the first N whose tail bound
      (:func:`_bose_log_tail`) is at most 1e-16, which is N = 0 at T = 0, or
      the Euler-Maclaurin formula with a remainder bound at most 1e-16;
      gamma_I is the n = 0 term, since it does not depend on T.  One call
      of :func:`_bose_pass` gives the series, the plateau and the bound.

    The error estimate is the rounding bound 1e-13 times the magnitude of the
    terms combined (twice the plateau plus the n = 0 term for the Bose
    series), plus 4 alpha times the remainder bound for the Bose series.

    Raises ``RuntimeError`` before any evaluation when no route certifies
    the Bose series (temperature/gap overflows).  A gamma_R past the largest
    float is inf, its limit.
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
        plateau, damping, first, bound = _bose_pass(spec.alpha, x0, tau, t[live])
        # Past the largest float gamma_R and its error estimate are inf, the limit.
        with np.errstate(over="ignore"):
            gamma_r[live] = a4 * damping[0]
            magnitude = 2.0 * plateau[0, 0] + a4 * np.abs(first[0])
        gamma_i[live] = a4 * first[0].imag
        tail = a4 * bound[0]
    else:
        s = t[live]
        with np.errstate(over="ignore"):  # s * s = inf past 1e154: gamma_R = inf is the limit
            log_term = 0.5 * np.log1p(s * s)
        gamma_i[live] = a4 * np.arctan(s)
        drop = _thermal_drop(tau, s) if tau > 0.0 else 0.0  # exactly 0 at T = 0
        # Past the largest float gamma_R and its error estimate are inf, the limit.
        with np.errstate(over="ignore"):
            gamma_r[live] = a4 * (log_term + 2.0 * drop)
            magnitude = gamma_r[live] + gamma_i[live]
    error[live] = _CLOSED_FORM_RTOL * magnitude + tail
    return np.maximum(gamma_r, 0.0), gamma_i, error


def gamma_R_infinity(spec: OhmicGapSpectrum) -> float:
    """Long-time limit of gamma_R.

    Returns ``math.inf`` when the limit diverges, which happens exactly for a
    gapless spectrum with nonzero coupling: the integrand then behaves as
    1/omega at the origin and the oscillatory term never stops contributing.
    A gapped limit is the plateau 4 alpha sum_n c_n e^{-n r} G(x0 + n r) of
    the Bose series of :func:`bath_exponents` (the time-dependent part
    vanishes), on the same route as a grid with no times.
    """
    return float(_bose_pass(spec.alpha, spec.omega0, spec.temperature)[0][0, 0])


def bath_gamma(spec: OhmicGapSpectrum, t: float) -> tuple[float, float, float]:
    """(gamma_R, gamma_I, error estimate) at time ``t``: one row of :func:`bath_exponents`."""
    # No module of the package calls this one-point view; it stays only
    # because the benchmark's tracer (perfbench/tracer.py) names it.
    return tuple(float(v[0]) for v in bath_exponents(spec, [t]))


def steady_state_stats(spec: OhmicGapSpectrum,
                       psi0: QubitAmplitudes) -> tuple[float, float, float] | None:
    """(gamma_R(inf), c_max, entropy) in the saturated regime, or None if there is none.

    In the steady state gamma_R is pinned at its long-time limit and gamma_I
    has decayed to zero; only the induced phase theta*t keeps advancing.
    ``c_max`` is the maximum concurrence over the phase family: the
    ``_PHASE_POINTS`` grid values of the residual phase theta*t in [0, pi/2)
    (its full period up to local unitaries), each in closed form by
    :func:`~twospinboson.single_mode._model_measures` with no decomposition.
    It is a property of the family, not of one trajectory: where the induced
    coupling theta is 0 (alpha = 0) the phase never advances and the state
    stays at theta*t = 0, so it never reaches ``c_max`` unless the maximum
    lies there.  The entropy is exactly phase independent, since the phase
    acts on the state as a diagonal unitary; it comes from the exact
    invariants of the cell's 3x3 Gram form.

    Returns ``None`` when gamma_R diverges (gapless spectrum with coupling),
    in which case no steady state exists.
    """
    plateau = _bose_pass(spec.alpha, spec.omega0, spec.temperature)[0][0]
    g_inf, c_max, entropy = (float(v[0]) for v in _steady_states(plateau, psi0))
    return None if math.isinf(g_inf) else (g_inf, c_max, entropy)


def _steady_states(g_inf, psi0: QubitAmplitudes) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Columns gamma_R(inf), c_max and entropy of :func:`steady_state_stats` over ``g_inf``.

    ``g_inf`` is a column of plateaus from :func:`_bose_pass`; c_max and the
    entropy are NaN where it is infinite.  An invalid state is named by its
    index among the cells with a plateau.

    c_max is the grid maximum, from two grid phases per cell.  In the closed
    form only the cross term |z| + Re z
    (:func:`~twospinboson.single_mode._cross_term`) depends on the phase, and
    its computed value does not depend on gamma_R.  Every later operation is
    monotone in it under round-to-nearest: a product with 4 e^{-2 gamma_R} >= 0,
    sums with fixed terms, sqrt, and a difference with the fixed sigma_odd.
    So the computed diff - sigma_odd does not decrease and sigma_odd - total
    does not increase as the computed cross term grows, and the largest
    C = max(0, diff - sigma_odd, sigma_odd - total) over the grid is, bit for
    bit, the larger of C at the phase of the largest cross term and C at the
    phase of the smallest.
    """
    vec = _require_amplitudes(psi0)
    phases = 2.0 * np.linspace(0.0, 0.5 * math.pi, _PHASE_POINTS, endpoint=False)
    cross = _cross_term(vec, phases[None, :], np.zeros(1, dtype=bool))[0]
    extremes = phases[[np.argmax(cross), np.argmin(cross)]]
    live = np.isfinite(g_inf)
    c_max, entropy = np.full(g_inf.size, math.nan), np.full(g_inf.size, math.nan)
    conc, entropy[live] = _model_measures(
        vec, g_inf[live], np.broadcast_to(extremes, (np.count_nonzero(live), 2)))
    c_max[live] = np.max(conc, axis=1)
    return g_inf, c_max, entropy
