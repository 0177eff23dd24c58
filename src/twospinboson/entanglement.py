"""Two-qubit state algebra: density-matrix validity, concurrence, entropy.

The computational basis is ordered {|00>, |01>, |10>, |11>} everywhere in
this package.  Entropies are reported in bits (log base 2).

Every measure of a matrix comes from one Hermitian eigendecomposition
rho = V diag(p) V^+: the eigenvalues p give the positivity check and the
entropy, and sqrt(rho) = V diag(sqrt p) V^+.  The spin-flipped state
rho~ = S rho* S, with S = sigma_y (x) sigma_y, then has the square root
S sqrt(rho)* S without a second decomposition, and the Wootters r_i are the
singular values of sqrt(rho) sqrt(rho~) (Wootters, PRL 80, 2245 (1998)).

This kernel is the public API and the oracle; the model's own states (every
series, scan and period statistic) take the 3x3 Gram route and the
closed-form concurrence of :func:`twospinboson.single_mode._model_measures`
instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "MIN_EIGENVALUE_TOL",
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
]

# Validity thresholds for a physical 4x4 density matrix.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
MIN_EIGENVALUE_TOL = -1e-10

# Eigenvalues below this are treated as exact zeros in entropy sums.
_ENTROPY_CLIP = 1e-14

# sigma_y (x) sigma_y in the basis above is the real anti-diagonal
# (-1, 1, 1, -1), so S A S reverses both axes of A and multiplies entry
# (i, j) by the product of the i-th and j-th of those signs.
_FLIP_SIGNS = np.outer([-1.0, 1.0, 1.0, -1.0], [-1.0, 1.0, 1.0, -1.0])


@dataclass(frozen=True)
class QubitAmplitudes:
    """Amplitudes (a, b, c, d) of a pure two-qubit state in the standard basis."""

    a: complex
    b: complex
    c: complex
    d: complex

    def vector(self) -> np.ndarray:
        return np.array([self.a, self.b, self.c, self.d], dtype=complex)

    def norm_defect(self) -> float:
        """|<psi|psi> - 1|, zero for a normalized state."""
        return abs(float(np.sum(np.abs(self.vector()) ** 2)) - 1.0)

    @classmethod
    def uniform(cls) -> "QubitAmplitudes":
        return cls(0.5, 0.5, 0.5, 0.5)

    @classmethod
    def normalized(cls, a, b, c, d) -> "QubitAmplitudes":
        """Build amplitudes rescaled to unit norm.  Rejects the zero vector and NaN/inf.

        The vector is first scaled by an exact power of two that brings its
        largest real or imaginary part into [1/2, 1), so that the norm neither
        overflows nor underflows.
        """
        vec = np.array([a, b, c, d], dtype=complex)
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"amplitudes must be finite, got {a}, {b}, {c}, {d}")
        peak = float(np.max(np.abs(vec.view(float))))
        if peak == 0.0:
            raise ValueError("cannot normalize the zero amplitude vector")
        vec = np.ldexp(vec.view(float), -math.frexp(peak)[1]).view(complex)
        vec = vec / float(np.linalg.norm(vec))
        return cls(*(complex(z) for z in vec))


@dataclass(frozen=True)
class DensityCheck:
    """Validity report for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float

    @property
    def valid(self) -> bool:
        return bool(_within_tolerances(self.hermiticity_defect, self.trace_defect,
                                       self.min_eigenvalue))

    def describe(self) -> str:
        return (
            f"hermiticity defect {self.hermiticity_defect:.3e} (tol {HERMITICITY_TOL:.0e}), "
            f"trace defect {self.trace_defect:.3e} (tol {TRACE_TOL:.0e}), "
            f"min eigenvalue {self.min_eigenvalue:.3e} (tol {MIN_EIGENVALUE_TOL:.0e})"
        )


class InvalidDensityMatrixError(ValueError):
    """Raised when an operation receives a matrix that fails validation.

    ``index`` is the position of the first failing matrix in the flattened
    batch, or None when a single matrix was given.
    """

    def __init__(self, check: DensityCheck, index: int | None = None):
        where = "" if index is None else f" at batch index {index}"
        super().__init__(f"invalid density matrix{where}: {check.describe()}")
        self.check = check
        self.index = index


def _within_tolerances(herm, trace, min_eigenvalue):
    """The package tolerances, elementwise on arrays; NaN fails every one."""
    return ((herm <= HERMITICITY_TOL) & (trace <= TRACE_TOL)
            & (min_eigenvalue >= MIN_EIGENVALUE_TOL))


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


def _require_amplitudes(psi: QubitAmplitudes) -> np.ndarray:
    if not isinstance(psi, QubitAmplitudes):
        psi = QubitAmplitudes(*(complex(z) for z in np.asarray(psi).ravel()))
    defect = psi.norm_defect()
    # Every state built from the amplitudes has this trace defect; a NaN is refused too.
    if not defect <= TRACE_TOL:
        raise ValueError(
            f"amplitudes are not normalized: defect {defect:.3e} exceeds {TRACE_TOL:.0e}"
        )
    return psi.vector()


def concurrence(rho) -> float:
    """Wootters concurrence of a two-qubit density matrix.

    Computes the square roots r_1 >= r_2 >= r_3 >= r_4 of the eigenvalues of
    rho (sigma_y x sigma_y) rho* (sigma_y x sigma_y) and returns
    max(0, r_1 - r_2 - r_3 - r_4).

    Raises
    ------
    InvalidDensityMatrixError
        If ``rho`` fails the validity check.
    """
    return float(entanglement_measures(_as_state_matrix(rho))[0])


def pure_concurrence(psi: QubitAmplitudes) -> float:
    """Concurrence 2|ad - bc| of a pure state with amplitudes (a, b, c, d)."""
    a, b, c, d = _require_amplitudes(psi)
    return 2.0 * abs(a * d - b * c)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] in bits.

    Eigenvalues below 1e-14 are clamped to zero and those above 1 to one
    before taking logs, so pure states return exactly 0.
    """
    return float(entanglement_measures(_as_state_matrix(rho))[1])


def purity(rho) -> float:
    """Tr[rho^2], equal to 1 exactly for pure states."""
    rho = require_valid_density(rho)
    return float(np.real(np.trace(rho @ rho)))


def _entropy_bits(evals: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis of a stack of density-matrix spectra."""
    # A valid spectrum lies in [0, 1]; without the upper clamp a pure state's
    # eigenvalue 1 + eps would give the entropy -eps.
    p = np.minimum(evals, 1.0)
    kept = p > _ENTROPY_CLIP
    # Summing the negated terms gives a pure state +0, not -0; negation is exact.
    return np.sum(np.where(kept, -p * np.log2(np.where(kept, p, 1.0)), 0.0), axis=-1)


def entanglement_measures(rhos) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence and entropy for a stack of density matrices.

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
    ok = _within_tolerances(herm, trace, evals[:, 0])
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
