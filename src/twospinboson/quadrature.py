"""The bath oracle: Gauss-Legendre quadrature of the defining bath integrals.

No evaluation path imports this module.  :func:`bath_exponents` integrates
the definitions of gamma_R(t) and gamma_I(t) (with :func:`thermal_kernel`
for coth(omega/2T)) at one time, and :func:`discretize_modes` replaces the
continuum by finite Gauss modes; the closed forms and the Bose series of
:mod:`twospinboson.bath` are checked against both.

The integrals all have the form integral_0^inf f(x) dx with f a smooth
exponentially decaying envelope times cos(x * rate) or sin(x * rate).  The
domain is truncated at ``X_MAX``, where the envelope is negligible, and tiled
with panels narrow enough to resolve the oscillation (at most a tenth of a
half period).  The result is confirmed by doubling the panel count until two
successive values agree; the last change is reported as the error estimate.
"""

from __future__ import annotations

import math

import numpy as np

from .bath import OhmicGapSpectrum, spectral_density

__all__ = ["X_MAX", "QuadratureError", "panel_width", "composite_gauss", "integrate_decaying",
           "thermal_kernel", "bath_exponents", "discretize_modes"]

# Truncation of the integration variable u = omega - omega0; exp(-40) < 5e-18.
X_MAX = 40.0

DEFAULT_ABS_TOL = 1e-10
_BASE_WIDTH = 0.05
_ORDER = 8
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
# Cap the number of abscissas held in memory at once.
_CHUNK_PANELS = 1 << 17


class QuadratureError(RuntimeError):
    """Panel doubling failed to reach the requested tolerance."""

    def __init__(self, achieved: float, abs_tol: float, n_panels: int):
        super().__init__(
            f"quadrature did not converge: last change {achieved:.3e} exceeds "
            f"tolerance {abs_tol:.0e} at {n_panels} panels"
        )
        self.achieved = achieved
        self.abs_tol = abs_tol
        self.n_panels = n_panels


def panel_width(osc_rate: float) -> float:
    """Panel width resolving phase advancing at ``osc_rate`` per unit x.

    At most one tenth of the half period pi / osc_rate, and never wider than
    0.05 so the envelope itself is always resolved.
    """
    if osc_rate < 0.0:
        raise ValueError(f"osc_rate must be nonnegative, got {osc_rate}")
    if osc_rate == 0.0:
        return _BASE_WIDTH
    return min(_BASE_WIDTH, math.pi / (10.0 * osc_rate))


def composite_gauss(f, upper: float, n_panels: int) -> float:
    """Integral of ``f`` over [0, upper] with ``n_panels`` equal Gauss panels.

    ``f`` must accept ndarray input.  Panel contributions are accumulated
    with numpy's pairwise summation.
    """
    if upper <= 0.0:
        raise ValueError(f"upper must be positive, got {upper}")
    if n_panels < 1:
        raise ValueError(f"n_panels must be at least 1, got {n_panels}")
    h = upper / n_panels
    half = 0.5 * h
    offsets = half * (_NODES + 1.0)
    weights = half * _WEIGHTS
    chunks = []
    for start in range(0, n_panels, _CHUNK_PANELS):
        stop = min(start + _CHUNK_PANELS, n_panels)
        left = h * np.arange(start, stop, dtype=float)[:, None]
        x = left + offsets[None, :]
        chunks.append(np.sum(f(x) * weights[None, :]))
    return float(np.sum(chunks))


def integrate_decaying(f, upper: float, osc_rate: float = 0.0,
                       abs_tol: float = DEFAULT_ABS_TOL,
                       max_refinements: int = 6) -> tuple[float, float]:
    """Adaptive integral of a decaying (possibly oscillatory) integrand.

    Parameters
    ----------
    f : callable
        Vectorized integrand on [0, upper].
    upper : float
        Truncation point; the caller guarantees the tail is negligible.
    osc_rate : float
        Phase advance per unit x; sets the initial panel width.
    abs_tol : float
        Successive panel doublings must agree within this.

    Returns
    -------
    (value, error_estimate)
        The converged integral and the last inter-refinement change.

    Raises
    ------
    QuadratureError
        If ``max_refinements`` doublings never agree within ``abs_tol``.
    """
    if abs_tol <= 0.0:
        raise ValueError(f"abs_tol must be positive, got {abs_tol}")
    n_panels = max(1, math.ceil(upper / panel_width(osc_rate)))
    previous = composite_gauss(f, upper, n_panels)
    change = math.inf
    for _ in range(max_refinements):
        n_panels *= 2
        current = composite_gauss(f, upper, n_panels)
        change = abs(current - previous)
        if change <= abs_tol:
            return current, change
        previous = current
    raise QuadratureError(change, abs_tol, n_panels)


def thermal_kernel(omega, temperature: float):
    """coth(omega / 2T), with the T = 0 limit equal to 1.

    Guards: arguments above 30 return exactly 1, arguments below 1e-8 use the
    small-argument expansion 1/y + y/3.
    """
    omega = np.asarray(omega, dtype=float)
    if temperature < 0.0:
        raise ValueError(f"temperature must be nonnegative, got {temperature}")
    if temperature == 0.0:
        out = np.ones_like(omega)
        return float(out) if out.ndim == 0 else out
    with np.errstate(over="ignore"):  # a subnormal T: y = inf, which the guard takes
        y = omega / (2.0 * temperature)
    out = np.empty_like(y)
    small = y < 1e-8
    large = y > 30.0
    mid = ~(small | large)
    with np.errstate(divide="ignore"):
        out[small] = 1.0 / y[small] + y[small] / 3.0
    out[large] = 1.0
    out[mid] = 1.0 / np.tanh(y[mid])
    return float(out) if out.ndim == 0 else out


def bath_exponents(spec: OhmicGapSpectrum, t: float,
                   abs_tol: float = DEFAULT_ABS_TOL) -> tuple[float, float, float]:
    """gamma_R, gamma_I and error estimate at one time t > 0 from the defining integrals.

    Adaptive quadrature in u = omega - omega0, valid for any spectrum: the
    reference for :func:`twospinboson.bath.bath_exponents`.  Units of omega_c.
    """
    scale = 4.0 * spec.alpha

    def damping(u):
        w = spec.omega0 + u
        # 2 sin^2(w t / 2) = 1 - cos(w t) without cancellation at small w t.
        osc = 2.0 * np.sin(0.5 * w * t) ** 2
        return u * np.exp(-u) * thermal_kernel(w, spec.temperature) * osc / w**2

    def phase(u):
        w = spec.omega0 + u
        return u * np.exp(-u) * np.sin(w * t) / w**2

    tol = abs_tol / max(scale, 1.0)
    g_r, err_r = integrate_decaying(damping, upper=X_MAX, osc_rate=t, abs_tol=tol)
    g_i, err_i = integrate_decaying(phase, upper=X_MAX, osc_rate=t, abs_tol=tol)
    return max(scale * g_r, 0.0), scale * g_i, scale * (err_r + err_i)


def discretize_modes(spec: OhmicGapSpectrum, n_modes: int = 200,
                     upper: float = 12.0) -> tuple[np.ndarray, np.ndarray]:
    """Finite-mode stand-in for the continuum: frequencies and couplings squared.

    Places modes at the abscissas of a composite 8-point Gauss rule on
    omega - omega0 in [0, upper] (units of omega_c) and assigns
    lambda_j^2 = J(omega_j) * weight, so that sums like
    4 * sum lambda_j^2 sin(omega_j t)/omega_j^2 approximate the corresponding
    continuum integrals.  ``n_modes`` must be a multiple of 8.
    """
    if n_modes < 8 or n_modes % 8 != 0:
        raise ValueError(f"n_modes must be a positive multiple of 8, got {n_modes}")
    if upper <= 0.0:
        raise ValueError(f"upper must be positive, got {upper}")
    nodes, weights = np.polynomial.legendre.leggauss(8)
    n_panels = n_modes // 8
    h = upper / n_panels
    left = h * np.arange(n_panels, dtype=float)[:, None]
    u = (left + 0.5 * h * (nodes + 1.0)[None, :]).ravel()
    du = (np.broadcast_to(0.5 * h * weights, (n_panels, 8))).ravel()
    omegas = spec.omega0 + u
    couplings_sq = spectral_density(spec, omegas) * du
    return omegas, couplings_sq
