"""Parameter sweeps over the single-mode and bath models.

Every table takes its grids as required arrays, each checked by
:func:`~twospinboson.single_mode._require_grid`: nonempty, 1-D, finite,
nonnegative and strictly increasing.  No table has a default grid; the
paper's default grids are the command-line defaults.  Single-mode quantities
are in units of the coupling lambda (omega as omega/lambda); bath quantities
are in units of the cutoff omega_c: gaps and temperatures in omega_c, times in
1/omega_c.

Every table is an ordered ``dict`` of equal-length numpy columns, ready for
CSV emission.  The sweeps are deterministic: the same inputs produce bitwise
identical tables.  ``steady-sweep`` and the check registry run
:func:`steady_sweep_tables`, which computes both steady-state tables from one
Bose-series pass over their cells; each one-table view is one call of it.
"""

from __future__ import annotations

import math
import operator
import sys

import numpy as np

from .bath import OhmicGapSpectrum, _bose_grids, _steady_states, bath_exponents, effective_coupling
from .single_mode import (_BLOCK, InvalidDensityMatrixError, QubitAmplitudes, _gammas,
                          _model_measures, _require_amplitudes, _require_grid, _require_product)

__all__ = [
    "NO_STEADY_STATE",
    "commensurability_table",
    "state_series",
    "steady_state_table",
    "steady_sweep_tables",
    "thermal_overlap_table",
]

# Sentinel for sweep cells where gamma_R diverges and no steady state exists.
NO_STEADY_STATE = -1.0


def commensurability_table(n_grid, psi0: QubitAmplitudes,
                           samples_per_period: int = 2000) -> dict[str, np.ndarray]:
    """Period statistics versus the commensuration index n, omega/lambda = 4 sqrt(n).

    At integer n the oscillator period and the induced half-period of the
    phase coincide, so the concurrence recovers its decoherence-free maximum.
    ``n_grid`` is a strictly increasing grid with every n >= 0.25 (omega >= 2).
    Per n, C and S come from :func:`~twospinboson.single_mode._model_measures`
    on theta*t in [0, pi/2] with ``samples_per_period`` trapezoid intervals
    (an integer, at least 100); the first n whose omega t overflows on that
    grid is refused.  Columns: n, omega_over_lambda, c_max, c_avg, s_max,
    s_avg (extrema and trapezoid averages over the half period).  Every n is
    checked before any is measured.  The n are then measured in groups of
    max(1, 4 _BLOCK // (samples_per_period + 1)), four row blocks of
    ``_model_measures``, each from one broadcast ``_gammas`` call, and each
    group's extrema and averages are taken before the next group is built,
    so memory does not grow with the grid.
    No row's arithmetic depends on the grouping, and a refused state is named
    by its row in the whole n_grid.size * (samples_per_period + 1) grid.
    """
    n_grid = _require_grid(n_grid, "n_grid")
    if n_grid[0] < 0.25:
        raise ValueError(f"n_grid entries must be at least 0.25, got {n_grid[0]:g}")
    vec = _require_amplitudes(psi0)
    try:
        samples = operator.index(samples_per_period)
    except TypeError:
        raise ValueError(
            f"samples_per_period must be an integer, got {samples_per_period!r}") from None
    if samples < 100:
        raise ValueError(f"samples_per_period must be at least 100, got {samples_per_period}")

    theta_ts = np.linspace(0.0, 0.5 * math.pi, samples + 1)
    span = theta_ts[-1] - theta_ts[0]
    omegas = 4.0 * np.sqrt(n_grid)
    thetas = 2.0 / omegas
    for omega, t_max in zip(omegas.tolist(), (theta_ts[-1] / thetas).tolist()):
        _require_product(omega, t_max, "omega t")
    table = {"n": n_grid, "omega_over_lambda": omegas,
             **{name: np.empty(n_grid.size) for name in ("c_max", "c_avg", "s_max", "s_avg")}}
    # Four _BLOCK rows a group, not one: the allocator then hands more of the
    # freed memory to the next group instead of faulting in fresh pages (a
    # fresh process at --n-points 470 takes about 9,300 page faults; 31,000
    # with groups of one block, 4,200 with one array over every n).
    group = max(1, 4 * _BLOCK // theta_ts.size)
    for low in range(0, n_grid.size, group):
        rows = slice(low, low + group)
        gamma_rs, gamma_is = _gammas(omegas[rows, None], theta_ts / thetas[rows, None])
        phases = 2.0 * theta_ts - gamma_is
        try:
            conc, entropy = _model_measures(vec, gamma_rs.ravel(), phases.reshape(-1, 1))
        except InvalidDensityMatrixError as err:
            # The row of the whole grid, as one call over every n would name it.
            raise InvalidDensityMatrixError(err.check, low * theta_ts.size + err.index) from None
        conc, entropy = conc.reshape(gamma_rs.shape), entropy.reshape(gamma_rs.shape)
        table["c_max"][rows] = conc.max(axis=1)
        table["c_avg"][rows] = np.trapezoid(conc, theta_ts, axis=1) / span
        table["s_max"][rows] = entropy.max(axis=1)
        table["s_avg"][rows] = np.trapezoid(entropy, theta_ts, axis=1) / span
    return table


def state_series(spec: OhmicGapSpectrum, psi0: QubitAmplitudes, t_grid) -> dict[str, np.ndarray]:
    """Bath time series: concurrence, entropy and overlap on a time grid.

    Columns: t, theta_t, concurrence, entropy, entropy_scaled, overlap.
    ``entropy_scaled`` is 2S/3, which saturates at 1 when the uniform initial
    state is fully decohered; ``overlap`` is exp(-gamma_R).  C and S come from
    the 3x3 Gram route of :func:`~twospinboson.single_mode._model_measures`:
    S from H's exact invariants per time point, and C in the closed form of
    the index-flip symmetry, with no decomposition on ordinary inputs.  A
    grid whose 2 theta t overflows is refused, and then, by
    :func:`~twospinboson.bath.bath_exponents`, one whose omega0 t (x0 s,
    equal in cutoff units) overflows.
    """
    vec = _require_amplitudes(psi0)
    t = _require_grid(t_grid)
    theta = effective_coupling(spec)
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


def steady_state_table(alphas, gaps, psi0: QubitAmplitudes,
                       temperature: float = 0.0) -> dict[str, np.ndarray]:
    """Entanglement table alone; unused in the package, kept while perfbench's tracer names it."""
    return steady_sweep_tables(alphas, gaps, [0.0], psi0, temperature=temperature,
                               thermal_alpha=0.0)[0]


def thermal_overlap_table(temperatures, gaps, alpha: float = 0.25) -> dict[str, np.ndarray]:
    """Thermal table alone; unused in the package, kept while perfbench's tracer names it."""
    return steady_sweep_tables([0.0], gaps, temperatures, QubitAmplitudes.uniform(),
                               thermal_alpha=alpha)[1]


def steady_sweep_tables(alphas, gaps, temperatures, psi0: QubitAmplitudes,
                        temperature: float = 0.0, thermal_alpha: float = 0.25
                        ) -> tuple[dict[str, np.ndarray], dict[str, np.ndarray]]:
    """Both tables of ``steady-sweep``: the entanglement table and the thermal table.

    The entanglement table has one row per (alpha, omega0) cell of the
    required grids ``alphas`` and ``gaps`` (omega0 in omega_c), alpha varying
    fastest, at ``temperature``.  Columns: alpha, omega0, has_steady_state,
    c_max_steady and s_steady.  In the steady state gamma_R is pinned at its
    long-time limit gamma_R(inf) and gamma_I has decayed to zero; only the
    induced phase theta*t keeps advancing.  c_max_steady is the largest
    concurrence over the family of 2048 grid phases theta*t in [0, pi/2)
    (the full period up to local unitaries), each in closed form by
    :func:`~twospinboson.single_mode._model_measures`;
    :func:`~twospinboson.bath._steady_states` shows why two grid phases per
    cell give that maximum exactly.  It belongs to the family, not to one
    trajectory: at alpha = 0 the induced coupling theta is 0, the state stays
    at theta*t = 0 and does not reach c_max_steady unless the maximum lies
    there.  s_steady, the entropy, does not depend on the phase.

    The thermal table has one row per (temperature, omega0) cell of
    ``temperatures`` and ``gaps``, temperature varying fastest, at the
    coupling ``thermal_alpha``.  Columns: temperature, omega0,
    has_steady_state and overlap_infinity, the saturated coherence
    exp(-gamma_R(inf)).  Temperature enters gamma_R through the thermal
    occupation of the bath; raising it can only suppress the plateau further.

    A cell without a steady state (gapless with coupling, where gamma_R
    diverges) carries ``has_steady_state = 0`` and the sentinel -1 in every
    other measured column.  Every argument is checked before anything is
    evaluated, in this order: the grids ``alphas`` and ``gaps``; one
    spectrum for ``temperature`` and 4 alpha; the amplitudes; the grid
    ``temperatures``; one spectrum for ``thermal_alpha``.  Then one
    :func:`~twospinboson.bath._bose_grids` pass plans and sums the
    entanglement table's series (one per gap at ``temperature``: at one
    temperature a plateau is 4 alpha S(omega0)) followed by the thermal
    table's (one per cell).  Each series is planned and summed on its own,
    so neither table depends on the other table's grid.  A table whose
    couplings are all 0 adds no series to the pass: its plateaus are 0, and
    none of its series can be refused; each one-table view passes such a
    table as the other one.
    """
    alphas = _require_grid(alphas, "alphas")
    gaps = _require_grid(gaps, "gaps")
    # 4 alpha overflows exactly above max/4: check the first alpha past that, if any.
    first = int(np.searchsorted(alphas, 0.25 * sys.float_info.max, side="right"))
    OhmicGapSpectrum(alpha=float(alphas[min(first, alphas.size - 1)]), omega0=float(gaps[0]),
                     temperature=temperature)
    vec = _require_amplitudes(psi0)
    temperatures = _require_grid(temperatures, "temperatures")
    OhmicGapSpectrum(alpha=thermal_alpha, omega0=float(gaps[0]), temperature=float(temperatures[0]))
    omega0s = np.repeat(gaps, temperatures.size)
    thermal_ts = np.tile(temperatures, gaps.size)
    steady_plateaus, thermal_plateaus = _bose_grids(
        [(alphas, gaps, np.full(gaps.size, temperature)),
         (thermal_alpha, omega0s, thermal_ts)])[0]
    g_inf = steady_plateaus.ravel()
    c_max, entropy = _steady_states(vec, g_inf)
    steady = np.isfinite(g_inf)
    thermal_g_inf = thermal_plateaus.ravel()
    return ({
        "alpha": np.tile(alphas, gaps.size),
        "omega0": np.repeat(gaps, alphas.size),
        "has_steady_state": steady.astype(float),
        "c_max_steady": np.where(steady, c_max, NO_STEADY_STATE),
        "s_steady": np.where(steady, entropy, NO_STEADY_STATE),
    }, {
        "temperature": thermal_ts,
        "omega0": omega0s,
        "has_steady_state": np.isfinite(thermal_g_inf).astype(float),
        "overlap_infinity": np.array([NO_STEADY_STATE if math.isinf(g) else math.exp(-g)
                                      for g in thermal_g_inf]),
    })
