"""Two-qubit state algebra: density-matrix validity, concurrence, entropy.

The computational basis is ordered {|00>, |01>, |10>, |11>} everywhere in
this package.  Entropies are reported in bits (log base 2).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "MIN_EIGENVALUE_TOL",
    "NORMALIZATION_TOL",
    "BASIS_LABELS",
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

BASIS_LABELS = ("00", "01", "10", "11")

# Validity thresholds for a physical 4x4 density matrix.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
MIN_EIGENVALUE_TOL = -1e-10

# Normalization defect accepted from caller-supplied pure-state amplitudes.
NORMALIZATION_TOL = 1e-9

# Eigenvalues below this are treated as exact zeros in entropy sums.
_ENTROPY_CLIP = 1e-14

# sigma_y (x) sigma_y in the basis above; real because the i's pair up.
_SPIN_FLIP = np.array(
    [
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
        [0.0, 1.0, 0.0, 0.0],
        [-1.0, 0.0, 0.0, 0.0],
    ]
)


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
        """Build amplitudes rescaled to unit norm.  Rejects the zero vector and NaN/inf."""
        vec = np.array([a, b, c, d], dtype=complex)
        if not np.all(np.isfinite(vec)):
            raise ValueError(f"amplitudes must be finite, got {a}, {b}, {c}, {d}")
        norm = float(np.linalg.norm(vec))
        if norm == 0.0:
            raise ValueError("cannot normalize the zero amplitude vector")
        vec = vec / norm
        return cls(*(complex(z) for z in vec))


@dataclass(frozen=True)
class DensityCheck:
    """Validity report for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float

    @property
    def valid(self) -> bool:
        return (
            self.hermiticity_defect <= HERMITICITY_TOL
            and self.trace_defect <= TRACE_TOL
            and self.min_eigenvalue >= MIN_EIGENVALUE_TOL
        )

    def describe(self) -> str:
        return (
            f"hermiticity defect {self.hermiticity_defect:.3e} (tol {HERMITICITY_TOL:.0e}), "
            f"trace defect {self.trace_defect:.3e} (tol {TRACE_TOL:.0e}), "
            f"min eigenvalue {self.min_eigenvalue:.3e} (tol {MIN_EIGENVALUE_TOL:.0e})"
        )


class InvalidDensityMatrixError(ValueError):
    """Raised when an operation receives a matrix that fails validation."""

    def __init__(self, check: DensityCheck):
        super().__init__(f"invalid density matrix: {check.describe()}")
        self.check = check


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
    rho = _as_state_matrix(rho)
    herm = float(np.max(np.abs(rho - rho.conj().T)))
    trace = abs(complex(np.trace(rho)) - 1.0)
    # Eigenvalues of the symmetrized matrix; for a nearly Hermitian input the
    # difference is below the hermiticity defect already reported.
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    return DensityCheck(herm, trace, float(eigs[0]))


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
    if defect > NORMALIZATION_TOL:
        raise ValueError(
            f"amplitudes are not normalized: defect {defect:.3e} exceeds {NORMALIZATION_TOL:.0e}"
        )
    return psi.vector()


def _sqrtm_psd(matrices: np.ndarray) -> np.ndarray:
    """Principal square root of a stack of Hermitian PSD matrices."""
    evals, evecs = np.linalg.eigh(matrices)
    roots = np.sqrt(np.clip(evals, 0.0, None))
    return (evecs * roots[..., None, :]) @ evecs.conj().swapaxes(-2, -1)


def _wootters_r(flat: np.ndarray) -> np.ndarray:
    """Descending Wootters r_i for a stack of density matrices.

    The r_i^2 are the eigenvalues of rho (sigma_y x sigma_y) rho*
    (sigma_y x sigma_y); they are computed here without squaring, as the
    singular values of sqrt(rho) sqrt(rho_tilde), which keeps the small r_i
    at absolute machine accuracy instead of sqrt(eps).
    """
    flipped = _SPIN_FLIP[None, :, :] @ flat.conj() @ _SPIN_FLIP[None, :, :]
    product = _sqrtm_psd(0.5 * (flat + flat.conj().swapaxes(-2, -1))) \
        @ _sqrtm_psd(0.5 * (flipped + flipped.conj().swapaxes(-2, -1)))
    return np.linalg.svd(product, compute_uv=False)


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
    rho = require_valid_density(rho)
    r = _wootters_r(rho[None, :, :])[0]
    return float(max(0.0, r[0] - r[1] - r[2] - r[3]))


def pure_concurrence(psi: QubitAmplitudes) -> float:
    """Concurrence 2|ad - bc| of a pure state with amplitudes (a, b, c, d)."""
    a, b, c, d = _require_amplitudes(psi)
    return 2.0 * abs(a * d - b * c)


def von_neumann_entropy(rho) -> float:
    """Von Neumann entropy -Tr[rho log2 rho] in bits.

    Eigenvalues below 1e-14 are clamped to zero before taking logs, so pure
    states return exactly 0.
    """
    rho = require_valid_density(rho)
    eigs = np.linalg.eigvalsh(0.5 * (rho + rho.conj().T))
    eigs = eigs[eigs > _ENTROPY_CLIP]
    return float(-np.sum(eigs * np.log2(eigs)))


def purity(rho) -> float:
    """Tr[rho^2], equal to 1 exactly for pure states."""
    rho = require_valid_density(rho)
    return float(np.real(np.trace(rho @ rho)))


def entanglement_measures(rhos) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence and entropy for a stack of density matrices.

    Parameters
    ----------
    rhos : array_like, shape (..., 4, 4)
        Batch of density matrices.  Every matrix is validated; the first
        failure aborts with its index in the message.

    Returns
    -------
    (concurrence, entropy) : pair of float arrays with the batch shape.
    """
    rhos = np.asarray(rhos, dtype=complex)
    if rhos.shape[-2:] != (4, 4):
        raise ValueError(f"expected shape (..., 4, 4), got {rhos.shape}")
    flat = rhos.reshape(-1, 4, 4)

    herm = np.max(np.abs(flat - flat.conj().transpose(0, 2, 1)), axis=(1, 2))
    trace = np.abs(np.einsum("kii->k", flat) - 1.0)
    sym = 0.5 * (flat + flat.conj().transpose(0, 2, 1))
    eigs = np.linalg.eigvalsh(sym)
    for k in range(flat.shape[0]):
        check = DensityCheck(float(herm[k]), float(trace[k]), float(eigs[k, 0]))
        if not check.valid:
            raise InvalidDensityMatrixError(check)

    clipped = np.where(eigs > _ENTROPY_CLIP, eigs, 1.0)
    entropy = -np.sum(np.where(eigs > _ENTROPY_CLIP, eigs * np.log2(clipped), 0.0), axis=1)

    r = _wootters_r(flat)
    conc = np.maximum(0.0, r[:, 0] - r[:, 1] - r[:, 2] - r[:, 3])

    shape = rhos.shape[:-2]
    return conc.reshape(shape), entropy.reshape(shape)
