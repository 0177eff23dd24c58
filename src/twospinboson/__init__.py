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

The package re-exports the public names of its numerical modules; each
module's ``__all__`` is the one list of what it makes public.
"""

__version__ = "0.1.0"

from . import bath, entanglement, fock, quadrature, single_mode, sweeps
from .entanglement import *
from .single_mode import *
from .fock import *
from .bath import *
from .quadrature import *
from .sweeps import *

__all__ = [
    "__version__",
    *entanglement.__all__,
    *single_mode.__all__,
    *fock.__all__,
    *bath.__all__,
    *quadrature.__all__,
    *sweeps.__all__,
]
