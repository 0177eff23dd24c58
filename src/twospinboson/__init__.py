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

The package is two layers with imports in one direction.  The model layer
(:mod:`~twospinboson.single_mode`, :mod:`~twospinboson.bath`,
:mod:`~twospinboson.sweeps`, :mod:`~twospinboson.csvio`,
:mod:`~twospinboson.csvkernel` and :mod:`~twospinboson.cli`) computes every
table.  The oracle layer checks it and shares no code with it: the 4x4
Wootters kernel and the one builder of the 4x4 model states
(:mod:`twospinboson.entanglement`), truncated-Fock propagation
(:mod:`twospinboson.fock`) and the quadrature of the defining bath integrals
(:mod:`twospinboson.quadrature`).  An oracle takes from the model only input
types, the amplitude check and the validity thresholds; no model module
imports an oracle, and importing the package or the CLI loads none.

The package re-exports the public names of the model modules
``single_mode``, ``bath`` and ``sweeps``; each module's ``__all__`` is the
one list of what it makes public.  The oracles are imported by module, for
example ``from twospinboson import entanglement``.
"""

__version__ = "0.1.0"

from . import bath, single_mode, sweeps
from .single_mode import *
from .bath import *
from .sweeps import *

__all__ = [
    "__version__",
    *single_mode.__all__,
    *bath.__all__,
    *sweeps.__all__,
]
