"""Exact entanglement dynamics of two qubits sharing a bosonic environment.

Two qubits coupled through sigma_1^z + sigma_2^z to a single harmonic mode or
to a gapped Ohmic bath evolve exactly: the environment both mediates an
effective qubit-qubit coupling and decoheres the collective sectors.  This
package computes the reduced two-qubit state in closed form, cross-checks it
against brute-force truncated-Fock propagation, and drives the parameter
sweeps behind the headline results (commensurate entanglement revivals,
power-law coherence decay, gap-protected steady-state entanglement).

The bath decoherence exponents gamma_R(t), gamma_I(t) are evaluated over a
whole time grid without quadrature: log1p/arctan for a gapless bath at
T = 0, Re ln Gamma (recurrence plus Stirling series) for a gapless bath at
T > 0, and for a gapped bath the Bose series coth(w/2T) = 1 + 2 sum_n
e^{-n w/T}, a weighted sum of complex exponential integrals E1 (power series,
or the continued fraction evaluated bottom-up from a depth that its
Gauss-Laguerre error bound fixes), which is its n = 0 term alone at T = 0.
The series is summed directly up to a proven tail bound of 1e-16, or by the
Euler-Maclaurin formula with a remainder bound of 1e-16 when that takes
fewer terms, so it costs a fixed number of E1 values per time point; its
plateau is gamma_R(infinity).

The package re-exports the public names of its numerical modules; each
module's ``__all__`` is the one list of what it makes public.  The
oscillation-aware Gauss-Legendre quadrature the closed forms are checked
against is the oracle module :mod:`twospinboson.quadrature`: it is not
re-exported, and importing the package does not load it.
"""

__version__ = "0.1.0"

from . import bath, entanglement, fock, single_mode, sweeps
from .entanglement import *
from .single_mode import *
from .fock import *
from .bath import *
from .sweeps import *

__all__ = [
    "__version__",
    *entanglement.__all__,
    *single_mode.__all__,
    *fock.__all__,
    *bath.__all__,
    *sweeps.__all__,
]
