"""Brute-force propagation in a truncated Fock space.

Independent cross-check for the closed-form reduced dynamics: the collective
coupling operator sigma_1^z + sigma_2^z is diagonal, so the joint Hamiltonian
splits into four oscillator blocks

    H_s = omega * diag(0..n_cut) + s * (a + a^dagger),    s in {+2, 0, 0, -2},

one per basis state |00>, |01>, |10>, |11>, in units of the coupling lambda
as in :mod:`twospinboson.single_mode`.  Each block is diagonalized
exactly (dense symmetric eigendecomposition, no time stepping) and applied to
the oscillator vacuum; the reduced matrix follows from the branch overlaps.
Truncation is monitored through the population of the top two Fock levels,
and the cutoff never exceeds :data:`MAX_N_CUT`, so that no dense block larger
than (MAX_N_CUT + 1)^2 is ever built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .entanglement import QubitAmplitudes, _require_amplitudes, require_valid_density
from .single_mode import SingleModeParams, _require_time

__all__ = [
    "MAX_N_CUT",
    "FockConfig",
    "TruncationError",
    "BRANCH_SHIFTS",
    "initial_cutoff",
    "oscillator_branch",
    "evolve_truncated",
    "evolve_auto",
    "trace_distance",
]

# Eigenvalue of sigma_1^z + sigma_2^z on |00>, |01>, |10>, |11>.
BRANCH_SHIFTS = (2, 0, 0, -2)

# Ceiling on the truncation level: one dense (MAX_N_CUT + 1)^2 eigh block is
# about 8 MB.  The oracle grid needs at most 48; the largest initial cutoff
# the tests compute is 528.
MAX_N_CUT = 1024


@dataclass(frozen=True)
class FockConfig:
    """Truncation level and the accepted population in the top two Fock levels."""

    n_cut: int
    leak_tol: float = 1e-10

    def __post_init__(self):
        if not 8 <= self.n_cut <= MAX_N_CUT:
            raise ValueError(f"n_cut must lie in [8, {MAX_N_CUT}], got {self.n_cut}")
        if not 0.0 < self.leak_tol < 1.0:
            raise ValueError(f"leak_tol must lie in (0, 1), got {self.leak_tol}")


class TruncationError(RuntimeError):
    """Truncated propagation leaked too much population into the top levels.

    Also raised, with ``leak`` NaN, when omega/lambda needs a cutoff above
    :data:`MAX_N_CUT` before anything is propagated.
    """

    def __init__(self, leak: float, n_cut: int, message: str | None = None):
        super().__init__(message or (
            f"population {leak:.3e} in the top two Fock levels at n_cut={n_cut}; "
            f"increase n_cut (e.g. to {2 * n_cut})"
        ))
        self.leak = leak
        self.n_cut = n_cut


def initial_cutoff(params: SingleModeParams) -> int:
    """Starting truncation for the given omega/lambda.

    The displaced branches hold at most |alpha|^2 = 4 * (2/omega)^2
    quanta on average at the far turning point; twice that plus a fixed
    margin keeps the Poisson tail below typical leak tolerances.
    """
    scale = (2.0 / params.omega) ** 2
    return max(8, math.ceil(8.0 * scale + 16.0))


def oscillator_branch(params: SingleModeParams, shift: int, t: float, dim: int) -> np.ndarray:
    """Vacuum evolved under omega a^dagger a + shift * (a + a^dagger).

    Returns the length-``dim`` Fock-basis vector exp(-i H_s t)|0>, computed
    from the exact eigendecomposition of the tridiagonal block.
    """
    n = np.arange(dim)
    diag = params.omega * n.astype(float)
    off = shift * np.sqrt(n[1:].astype(float))
    block = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    evals, evecs = np.linalg.eigh(block)
    weights = evecs[0, :].conj()  # <eigenvector|0> for the vacuum start
    return evecs @ (np.exp(-1j * evals * t) * weights)


def evolve_truncated(params: SingleModeParams, psi0: QubitAmplitudes, t: float,
                     config: FockConfig) -> tuple[np.ndarray, float]:
    """Reduced density matrix from truncated joint propagation.

    Parameters
    ----------
    params, psi0, t
        Model parameters, normalized initial amplitudes, evolution time.
    config : FockConfig
        Truncation level and leak tolerance.

    Returns
    -------
    (rho, leak)
        The 4x4 reduced matrix and the measured population in the top two
        Fock levels (weighted over branches).

    Raises
    ------
    TruncationError
        If the leak exceeds ``config.leak_tol``.
    """
    vec = _require_amplitudes(psi0)
    _require_time(t)
    dim = config.n_cut + 1

    branches = {}
    for shift in set(BRANCH_SHIFTS):
        branches[shift] = oscillator_branch(params, shift, t, dim)
    states = [branches[s] for s in BRANCH_SHIFTS]

    leak = 0.0
    for amp, state in zip(vec, states):
        leak += float(abs(amp) ** 2 * np.sum(np.abs(state[-2:]) ** 2))
    if leak > config.leak_tol:
        raise TruncationError(leak, config.n_cut)

    overlap = np.empty((4, 4), dtype=complex)
    for i in range(4):
        for j in range(4):
            # <state_j | state_i> multiplies rho_ij = psi_i psi_j^*.
            overlap[i, j] = np.vdot(states[j], states[i])
    return np.outer(vec, vec.conj()) * overlap, leak


def evolve_auto(params: SingleModeParams, psi0: QubitAmplitudes, t: float,
                leak_tol: float = 1e-10) -> tuple[np.ndarray, FockConfig]:
    """Propagate with automatic cutoff escalation.

    Starts from :func:`initial_cutoff` and doubles ``n_cut``, at most up to
    :data:`MAX_N_CUT`, until the leak drops below ``leak_tol``.  Returns the
    density matrix and the accepted configuration.  Raises
    :class:`TruncationError` without propagating when the initial cutoff is
    above the ceiling, and when the leak is still too large at the ceiling.
    """
    n_cut = initial_cutoff(params)
    if n_cut > MAX_N_CUT:
        raise TruncationError(math.nan, n_cut, (
            f"omega/lambda = {params.omega:g} needs n_cut={n_cut}, "
            f"above the ceiling MAX_N_CUT={MAX_N_CUT}"))
    while True:
        config = FockConfig(n_cut=n_cut, leak_tol=leak_tol)
        try:
            rho, _ = evolve_truncated(params, psi0, t, config)
            return rho, config
        except TruncationError as err:
            if n_cut == MAX_N_CUT:
                raise TruncationError(err.leak, n_cut, (
                    f"population {err.leak:.3e} in the top two Fock levels at the "
                    f"ceiling n_cut={MAX_N_CUT}")) from None
            n_cut = min(2 * n_cut, MAX_N_CUT)


def trace_distance(rho1, rho2) -> float:
    """Trace distance (1/2) sum |eigenvalues(rho1 - rho2)| of two valid states."""
    rho1 = require_valid_density(rho1)
    rho2 = require_valid_density(rho2)
    diff = 0.5 * ((rho1 - rho2) + (rho1 - rho2).conj().T)
    return float(0.5 * np.sum(np.abs(np.linalg.eigvalsh(diff))))
