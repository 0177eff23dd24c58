"""The 4x4 oracle: density-matrix validity, concurrence, entropy of any two-qubit state.

The computational basis is ordered {|00>, |01>, |10>, |11>} everywhere in
this package.  Entropies are reported in bits (log base 2).

Every measure of a matrix comes from one Hermitian eigendecomposition
rho = V diag(p) V^+: the eigenvalues p give the positivity check and the
entropy, and sqrt(rho) = V diag(sqrt p) V^+.  The spin-flipped state
rho~ = S rho* S, with S = sigma_y (x) sigma_y, then has the square root
S sqrt(rho)* S without a second decomposition, and the Wootters r_i are the
singular values of sqrt(rho) sqrt(rho~) (Wootters, PRL 80, 2245 (1998)).

This module is an oracle.  The model's own states (every series, scan and
period statistic) take the 3x3 Gram route and the closed-form concurrence of
:func:`twospinboson.single_mode._model_measures`, which shares no code with
the kernel here: no model module imports this one, and its entropy sum is
its own.  From the model this module takes only the input types and the
validity thresholds (:class:`~twospinboson.single_mode.QubitAmplitudes`,
the amplitude check, :class:`~twospinboson.single_mode.DensityCheck`,
:class:`~twospinboson.single_mode.InvalidDensityMatrixError` and the three
tolerances).  It also builds the 4x4 model states the kernel checks, with
one builder, :func:`reduced_density`, for one time or arrays of phases and
exponents.
"""

from __future__ import annotations

import numpy as np

from .single_mode import (HERMITICITY_TOL, MIN_EIGENVALUE_TOL, TRACE_TOL, DensityCheck,
                          InvalidDensityMatrixError, QubitAmplitudes, _require_amplitudes)

__all__ = [
    "validate_density",
    "require_valid_density",
    "pure_concurrence",
    "entanglement_measures",
    "reduced_density",
]

# Eigenvalues below this are treated as exact zeros in entropy sums.
_ENTROPY_CLIP = 1e-14

# sigma_y (x) sigma_y in the basis above is the real anti-diagonal
# (-1, 1, 1, -1), so S A S reverses both axes of A and multiplies entry
# (i, j) by the product of the i-th and j-th of those signs.
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


def _spectra(flat: np.ndarray):
    """Defects and eigendecomposition of an (n, 4, 4) stack.

    Returns the hermiticity defect, the trace defect, and the ascending
    eigenvalues and eigenvectors of the Hermitian part.  For a nearly
    Hermitian input the eigenvalues differ from the matrix's own by less
    than the hermiticity defect already reported.  A matrix with a NaN or
    inf entry is not decomposed; its defects and eigenvalues are NaN, which
    fails every tolerance.
    """
    bad = ~np.isfinite(flat).all(axis=(1, 2))
    if bad.any():
        flat = np.where(bad[:, None, None], 0.0, flat)
    adjoint = flat.conj().transpose(0, 2, 1)
    herm = np.max(np.abs(flat - adjoint), axis=(1, 2))
    trace = np.abs(np.einsum("kii->k", flat) - 1.0)
    evals, evecs = np.linalg.eigh(0.5 * (flat + adjoint))
    herm[bad] = trace[bad] = np.nan
    evals[bad] = np.nan
    return herm, trace, evals, evecs


def _as_state_matrix(rho) -> np.ndarray:
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (4, 4):
        raise ValueError(f"expected a 4x4 density matrix, got shape {rho.shape}")
    return rho


def validate_density(rho) -> DensityCheck:
    """Check hermiticity, unit trace and positivity of a 4x4 matrix.

    Parameters
    ----------
    rho : array_like
        Candidate density matrix in the {|00>, |01>, |10>, |11>} basis.

    Returns
    -------
    DensityCheck
        Measured defects; ``.valid`` applies the package tolerances
        (hermiticity and trace within 1e-12, eigenvalues above -1e-10).
    """
    herm, trace, evals, _ = _spectra(_as_state_matrix(rho)[None])
    return DensityCheck(float(herm[0]), float(trace[0]), float(evals[0, 0]))


def require_valid_density(rho) -> np.ndarray:
    """Return ``rho`` as a complex array, raising if it fails validation."""
    rho = _as_state_matrix(rho)
    check = validate_density(rho)
    if not check.valid:
        raise InvalidDensityMatrixError(check)
    return rho


def pure_concurrence(psi: QubitAmplitudes) -> float:
    """Concurrence 2|ad - bc| of a pure state with amplitudes (a, b, c, d)."""
    a, b, c, d = _require_amplitudes(psi)
    return 2.0 * abs(a * d - b * c)


def _entropy_bits(evals: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis of a stack of density-matrix spectra."""
    # A valid spectrum lies in [0, 1]; without the upper clamp a pure state's
    # eigenvalue 1 + eps would give the entropy -eps.
    p = np.minimum(evals, 1.0)
    kept = p > _ENTROPY_CLIP
    # Summing the negated terms gives a pure state +0, not -0; negation is exact.
    return np.sum(np.where(kept, -p * np.log2(np.where(kept, p, 1.0)), 0.0), axis=-1)


def entanglement_measures(rhos) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence and entropy for a stack of density matrices: the oracle's one measure entry.

    The concurrence is Wootters' max(0, r_1 - r_2 - r_3 - r_4), with r_i the
    square roots, in decreasing order, of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y).  The entropy is
    -Tr[rho log2 rho] in bits, with eigenvalues below 1e-14 taken as zero and
    those above 1 as one, so a pure state gives exactly 0.  Each matrix's
    measures do not depend on the rest of the batch.

    Parameters
    ----------
    rhos : array_like, shape (..., 4, 4)
        Batch of density matrices.  Every matrix is validated; the first
        failure aborts with its index in the flattened batch in the message.

    Returns
    -------
    (concurrence, entropy) : pair of float arrays with the batch shape.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.shape[-2:] != (4, 4):
        raise ValueError(f"expected shape (..., 4, 4), got {rhos.shape}")
    shape = rhos.shape[:-2]
    herm, trace, evals, evecs = _spectra(rhos.reshape(-1, 4, 4))
    # The package tolerances, elementwise; NaN fails every one.
    ok = (herm <= HERMITICITY_TOL) & (trace <= TRACE_TOL) & (evals[:, 0] >= MIN_EIGENVALUE_TOL)
    if not ok.all():
        k = int(np.argmin(ok))
        raise InvalidDensityMatrixError(
            DensityCheck(float(herm[k]), float(trace[k]), float(evals[k, 0])),
            k if shape else None)
    entropy = _entropy_bits(evals)
    roots = np.sqrt(np.clip(evals, 0.0, None))
    sqrt_rho = (evecs * roots[:, None, :]) @ evecs.conj().transpose(0, 2, 1)
    sqrt_flipped = _FLIP_SIGNS * sqrt_rho[:, ::-1, ::-1].conj()
    # Singular values rather than eigenvalues of the product: the r_i come out
    # without squaring, but only as accurately as sqrt(rho), which for a
    # rank-deficient rho puts ~1e-8 on the null direction (C errs up to ~1e-8).
    r = np.linalg.svd(sqrt_rho @ sqrt_flipped, compute_uv=False)
    conc = np.maximum(0.0, r[:, 0] - r[:, 1] - r[:, 2] - r[:, 3])
    return conc.reshape(shape), entropy.reshape(shape)


def reduced_density(psi0: QubitAmplitudes, theta_ts, gamma_rs, gamma_is) -> np.ndarray:
    """Reduced two-qubit density matrices after tracing out the environment.

    The single mode and the bath give the same structure, with their own
    theta*t and decoherence exponent gamma_R + i gamma_I.

    Parameters
    ----------
    psi0 : QubitAmplitudes
        Normalized initial amplitudes (the environment starts in its ground
        state).
    theta_ts, gamma_rs, gamma_is : float or array_like
        Accumulated induced-coupling phase theta * t and the decoherence
        exponent at the same times, broadcast against each other; gamma_rs
        and gamma_is must be finite and gamma_rs nonnegative.

    Returns
    -------
    ndarray, shape (..., 4, 4)
        Hermitian unit-trace matrices, one per broadcast entry.  The |01>,
        |10> block is untouched by the environment; coherences against |00>
        and |11> carry the factor exp(-gamma_r) and the phase
        2*theta_t - gamma_i; the |00>, |11> coherence carries exp(-4 gamma_r)
        and no phase.
    """
    a, b, c, d = _require_amplitudes(psi0)
    theta_ts, gamma_rs, gamma_is = (np.asarray(v, dtype=float)
                                    for v in (theta_ts, gamma_rs, gamma_is))
    if not (np.isfinite(gamma_rs).all() and np.isfinite(gamma_is).all()):
        raise ValueError("gamma_r and gamma_i must be finite")
    if (gamma_rs < 0.0).any():
        raise ValueError(f"gamma_r must be nonnegative, got {gamma_rs.min()}")

    # Coherence factor between a displaced branch and an undisplaced one.
    f = np.exp(-gamma_rs + 1j * (2.0 * theta_ts - gamma_is))
    # Between the two oppositely displaced branches the overlap is exp(-4 gamma_r)
    # and the branch phases cancel exactly.
    g = np.exp(-4.0 * gamma_rs)

    shape = np.broadcast_shapes(theta_ts.shape, gamma_rs.shape, gamma_is.shape)
    rho = np.empty(shape + (4, 4), dtype=complex)
    rho[..., 0, 0] = abs(a) ** 2
    rho[..., 1, 1] = abs(b) ** 2
    rho[..., 2, 2] = abs(c) ** 2
    rho[..., 3, 3] = abs(d) ** 2
    rho[..., 0, 1] = a * np.conj(b) * f
    rho[..., 0, 2] = a * np.conj(c) * f
    rho[..., 0, 3] = a * np.conj(d) * g
    rho[..., 1, 2] = b * np.conj(c)
    rho[..., 1, 3] = b * np.conj(d) * np.conj(f)
    rho[..., 2, 3] = c * np.conj(d) * np.conj(f)
    for i in range(4):
        for j in range(i):
            rho[..., i, j] = np.conj(rho[..., j, i])
    return rho
