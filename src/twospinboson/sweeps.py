"""Parameter sweeps over the single-mode and bath models.

Every table takes its grids as required arrays, each checked by
:func:`~twospinboson.single_mode._require_grid`: nonempty, 1-D, finite,
nonnegative and strictly increasing.  No table has a default grid; the
paper's default grids are the command-line defaults.  Single-mode quantities
are in units of the coupling lambda (omega as omega/lambda); bath quantities
are in units of the cutoff omega_c: gaps and temperatures in omega_c, times in
1/omega_c.

Every function returns an ordered ``dict`` of equal-length numpy columns,
ready for CSV emission.  The sweeps are deterministic: the same inputs
produce bitwise identical tables.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .bath import (
    OhmicGapSpectrum,
    _bose_pass,
    _steady_states,
    bath_exponents,
    effective_coupling,
)
from .entanglement import QubitAmplitudes, _require_amplitudes
from .single_mode import (SingleModeParams, _gammas, _model_measures, _require_grid,
                          _require_product, _require_single_mode_grid)

__all__ = [
    "NO_STEADY_STATE",
    "commensurability_table",
    "state_series",
    "steady_state_table",
    "thermal_overlap_table",
]

# Sentinel for sweep cells where gamma_R diverges and no steady state exists.
NO_STEADY_STATE = -1.0


def commensurability_table(n_grid, psi0: QubitAmplitudes,
                           samples_per_period: int = 2000) -> dict[str, np.ndarray]:
    """Period statistics versus the commensuration index n, omega/lambda = 4 sqrt(n).

    At integer n the oscillator period and the induced half-period of the
    phase coincide, so the concurrence recovers its decoherence-free maximum.
    ``n_grid`` is a strictly increasing grid with every n >= 0.25.  Per n, C
    and S come from :func:`~twospinboson.single_mode._model_measures` on
    theta*t in [0, pi/2] with ``samples_per_period`` trapezoid intervals (at
    least 100); an n whose omega t overflows on that grid is refused.
    Columns: n, omega_over_lambda, c_max, c_avg, s_max, s_avg (extrema and
    trapezoid averages over the half period).  One ``_model_measures`` call
    takes all n_grid.size * (samples_per_period + 1) rows, block by block.
    """
    n_grid = _require_grid(n_grid, "n_grid")
    if n_grid[0] < 0.25:
        raise ValueError(f"n_grid entries must be at least 0.25, got {n_grid[0]:g}")
    vec = _require_amplitudes(psi0)
    if samples_per_period < 100:
        raise ValueError(f"samples_per_period must be at least 100, got {samples_per_period}")

    theta_ts = np.linspace(0.0, 0.5 * math.pi, samples_per_period + 1)
    span = theta_ts[-1] - theta_ts[0]
    omegas = 4.0 * np.sqrt(n_grid)
    gamma_rs, phases = (np.empty((n_grid.size, theta_ts.size)) for _ in range(2))
    for k, omega in enumerate(omegas):
        params = SingleModeParams(float(omega))
        t = theta_ts / params.theta
        _require_single_mode_grid(params, t)
        gamma_rs[k], gamma_is = _gammas(params, t)
        phases[k] = 2.0 * theta_ts - gamma_is
    conc, entropy = _model_measures(vec, gamma_rs.ravel(), phases.reshape(-1, 1))
    conc, entropy = conc.reshape(gamma_rs.shape), entropy.reshape(gamma_rs.shape)
    return {
        "n": n_grid,
        "omega_over_lambda": omegas,
        "c_max": conc.max(axis=1),
        "c_avg": np.trapezoid(conc, theta_ts, axis=1) / span,
        "s_max": entropy.max(axis=1),
        "s_avg": np.trapezoid(entropy, theta_ts, axis=1) / span,
    }


def state_series(spec: OhmicGapSpectrum, psi0: QubitAmplitudes, t_grid) -> dict[str, np.ndarray]:
    """Bath time series: concurrence, entropy and overlap on a time grid.

    Columns: t, theta_t, concurrence, entropy, entropy_scaled, overlap.
    ``entropy_scaled`` is 2S/3, which saturates at 1 when the uniform initial
    state is fully decohered; ``overlap`` is exp(-gamma_R).  C and S come from
    the 3x3 Gram route of :func:`~twospinboson.single_mode._model_measures`:
    S from H's exact invariants per time point, and C in the closed form of
    the index-flip symmetry, with no decomposition on ordinary inputs.  A
    grid whose omega0 t (x0 s, equal in cutoff units) or 2 theta t overflows
    is refused.
    """
    vec = _require_amplitudes(psi0)
    t = _require_grid(t_grid)
    theta = effective_coupling(spec)
    _require_product(spec.omega0, float(t[-1]), "omega0 t (x0 s)")
    _require_product(2.0 * theta, float(t[-1]), "2 theta t")

    gamma_rs, gamma_is, _ = bath_exponents(spec, t)
    theta_ts = theta * t

    conc, entropy = _model_measures(vec, gamma_rs, (2.0 * theta_ts - gamma_is)[:, None])
    return {
        "t": t,
        "theta_t": theta_ts,
        "concurrence": conc[:, 0],
        "entropy": entropy,
        "entropy_scaled": 2.0 * entropy / 3.0,
        "overlap": np.exp(-gamma_rs),
    }


def steady_state_table(alphas, gaps, psi0: QubitAmplitudes, temperature: float = 0.0,
                       phase_points: int = 2048) -> dict[str, np.ndarray]:
    """Steady-state concurrence and entropy over a (alpha, omega0) grid.

    ``alphas`` and ``gaps`` (omega0 in omega_c) are required grids.  One row
    per cell, alpha varying fastest.  Cells without a steady state (gapless
    with coupling) carry ``has_steady_state = 0`` and the sentinel -1 in the
    c_max_steady and s_steady columns.  The cells are arrays, not spectrum
    objects: at the one temperature a plateau is 4 alpha S(omega0), so one
    Bose-series pass sums one series per gap and gives every plateau, each
    bitwise ``gamma_R_infinity``.  Every cell is bitwise
    :func:`~twospinboson.bath.steady_state_stats`: the entropy from
    the exact invariants of the Gram form, and c_max_steady the largest
    concurrence over the phase family, the ``phase_points`` grid values of
    theta*t in [0, pi/2), in the closed form of the index-flip symmetry with
    no decomposition on ordinary inputs.  That maximum is exact from two grid
    phases per cell, the same two for every cell
    (:func:`~twospinboson.bath._steady_states`).  It belongs to the family,
    not to one trajectory: at alpha = 0 the induced coupling theta is 0, the
    state stays at theta*t = 0 and does not reach c_max_steady unless the
    maximum lies there.
    """
    alphas = _require_grid(alphas, "alphas")
    gaps = _require_grid(gaps, "gaps")
    # The grids are checked; one spectrum checks the temperature and 4 alpha.
    # 4 alpha overflows exactly above max/4, so it is checked at the first
    # alpha past that, if any: the first cell in table order that fails.
    first = int(np.searchsorted(alphas, 0.25 * sys.float_info.max, side="right"))
    OhmicGapSpectrum(alpha=float(alphas[min(first, alphas.size - 1)]), omega0=float(gaps[0]),
                     temperature=temperature)

    plateaus = _bose_pass(alphas, gaps, np.full(gaps.size, temperature))[0]
    g_inf, c_max, entropy = _steady_states(plateaus.ravel(), psi0, phase_points)
    steady = np.isfinite(g_inf)
    return {
        "alpha": np.tile(alphas, gaps.size),
        "omega0": np.repeat(gaps, alphas.size),
        "has_steady_state": steady.astype(float),
        "c_max_steady": np.where(steady, c_max, NO_STEADY_STATE),
        "s_steady": np.where(steady, entropy, NO_STEADY_STATE),
    }


def thermal_overlap_table(temperatures, gaps, alpha: float = 0.25) -> dict[str, np.ndarray]:
    """Saturated coherence exp(-gamma_R(inf)) over a (temperature, gap) grid.

    ``temperatures`` and ``gaps`` are required grids in omega_c.  Temperature
    enters gamma_R through the thermal occupation of the bath; raising it can
    only suppress the plateau further.  Gapless cells have no plateau and
    carry the -1 sentinel with ``has_steady_state = 0``.  One Bose-series
    pass over the cell arrays, one series per cell, gives every plateau,
    each bitwise ``gamma_R_infinity``.
    """
    temperatures = _require_grid(temperatures, "temperatures")
    gaps = _require_grid(gaps, "gaps")
    # The grids are checked; one spectrum checks alpha, as the first cell would.
    OhmicGapSpectrum(alpha=alpha, omega0=float(gaps[0]), temperature=float(temperatures[0]))

    temperature = np.tile(temperatures, gaps.size)
    omega0 = np.repeat(gaps, temperatures.size)
    g_inf = _bose_pass(alpha, omega0, temperature)[0].ravel()
    return {
        "temperature": temperature,
        "omega0": omega0,
        "has_steady_state": np.isfinite(g_inf).astype(float),
        "overlap_infinity": np.array([NO_STEADY_STATE if math.isinf(g) else math.exp(-g)
                                      for g in g_inf]),
    }
