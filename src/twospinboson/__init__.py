"""Exact entanglement dynamics of two qubits sharing a bosonic environment.

Two qubits coupled through sigma_1^z + sigma_2^z to a single harmonic mode or
to a gapped Ohmic bath evolve exactly: the environment both mediates an
effective qubit-qubit coupling and decoheres the collective sectors.  This
package computes the reduced two-qubit state in closed form, cross-checks it
against brute-force truncated-Fock propagation, and drives the parameter
sweeps behind the headline results (commensurate entanglement revivals,
power-law coherence decay, gap-protected steady-state entanglement).

The bath decoherence exponents gamma_R(t), gamma_I(t) are closed forms over
a whole time grid except for a gapped spectrum at T > 0: log1p/arctan for a
gapless bath at T = 0, Re ln Gamma (recurrence plus Stirling series) for a
gapless bath at T > 0, and the complex exponential integral E1 (power series
or continued fraction) for a gapped bath at T = 0.  A gapped bath at T > 0
is integrated per time point by oscillation-aware Gauss-Legendre quadrature.
"""

__version__ = "0.1.0"

from .entanglement import (
    QubitAmplitudes,
    DensityCheck,
    InvalidDensityMatrixError,
    validate_density,
    require_valid_density,
    concurrence,
    pure_concurrence,
    von_neumann_entropy,
    purity,
    entanglement_measures,
)
from .single_mode import (
    SingleModeParams,
    GammaValue,
    PeriodStats,
    TimePoint,
    gamma_single_mode,
    coherent_amplitude,
    reduced_density,
    ideal_concurrence,
    time_series,
    period_stats,
)
from .fock import (
    FockConfig,
    TruncationError,
    initial_cutoff,
    evolve_truncated,
    evolve_auto,
    trace_distance,
)
from .bath import (
    OhmicGapSpectrum,
    BathGammaResult,
    SteadyStateStats,
    spectral_density,
    thermal_kernel,
    effective_coupling,
    bath_exponents,
    gamma_R,
    gamma_I,
    gamma_R_infinity,
    saturation_time,
    bath_gamma,
    bath_reduced_density,
    steady_state_stats,
    discretize_modes,
)
from .quadrature import QuadratureError, integrate_decaying
from .sweeps import (
    DEFAULT_BATH_PAIRS,
    DEFAULT_N_RANGE,
    NO_STEADY_STATE,
    default_steady_grid,
    default_temperature_grid,
    commensurability_table,
    overlap_table,
    state_series,
    steady_state_table,
    thermal_overlap_table,
)

__all__ = [
    "__version__",
    "QubitAmplitudes",
    "DensityCheck",
    "InvalidDensityMatrixError",
    "validate_density",
    "require_valid_density",
    "concurrence",
    "pure_concurrence",
    "von_neumann_entropy",
    "purity",
    "entanglement_measures",
    "SingleModeParams",
    "GammaValue",
    "PeriodStats",
    "TimePoint",
    "gamma_single_mode",
    "coherent_amplitude",
    "reduced_density",
    "ideal_concurrence",
    "time_series",
    "period_stats",
    "FockConfig",
    "TruncationError",
    "initial_cutoff",
    "evolve_truncated",
    "evolve_auto",
    "trace_distance",
    "OhmicGapSpectrum",
    "BathGammaResult",
    "SteadyStateStats",
    "spectral_density",
    "thermal_kernel",
    "effective_coupling",
    "bath_exponents",
    "gamma_R",
    "gamma_I",
    "gamma_R_infinity",
    "saturation_time",
    "bath_gamma",
    "bath_reduced_density",
    "steady_state_stats",
    "discretize_modes",
    "QuadratureError",
    "integrate_decaying",
    "DEFAULT_BATH_PAIRS",
    "DEFAULT_N_RANGE",
    "NO_STEADY_STATE",
    "default_steady_grid",
    "default_temperature_grid",
    "commensurability_table",
    "overlap_table",
    "state_series",
    "steady_state_table",
    "thermal_overlap_table",
]
