"""Exact reduced dynamics of two qubits coupled to one harmonic mode.

The model couples the collective operator sigma_1^z + sigma_2^z to a single
oscillator of frequency omega with strength lambda (hbar = 1).  Everything is
in units of lambda: ``omega`` is omega/lambda and times are in 1/lambda.
Tracing out the oscillator is exact: the |01> and |10> components never
displace the mode, while |00> and |11> drag it around a circle in phase
space, returning to the origin at every full oscillator period.

All phases and decoherence exponents are expressed through

    theta      = 2 / omega                (induced qubit-qubit coupling)
    gamma_r(t) = (2 / omega)**2 * (1 - cos(omega t))
    gamma_i(t) = (2 / omega)**2 * sin(omega t)

evaluated in one place, :func:`_gammas`, at a scalar time or on a grid.
The module also holds what every table and every oracle take as input: the
initial amplitudes :class:`QubitAmplitudes` and their check, and the
validity report of a state, :class:`DensityCheck` with the three tolerances
and :class:`InvalidDensityMatrixError`.  Every model state, of this model
and of the bath, is measured by :func:`_model_measures` with the module's
own entropy sum; the 4x4 kernel that checks it lives in the oracle module
:mod:`twospinboson.entanglement`, which no model module imports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

__all__ = [
    "HERMITICITY_TOL",
    "TRACE_TOL",
    "MIN_EIGENVALUE_TOL",
    "QubitAmplitudes",
    "DensityCheck",
    "InvalidDensityMatrixError",
    "SingleModeParams",
    "ideal_concurrence",
    "time_series",
]

# Validity thresholds for a physical 4x4 density matrix.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
MIN_EIGENVALUE_TOL = -1e-10

# Eigenvalues below this are treated as exact zeros in entropy sums.
_ENTROPY_CLIP = 1e-14


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


def _require_amplitudes(psi: QubitAmplitudes) -> np.ndarray:
    if not isinstance(psi, QubitAmplitudes):
        raise TypeError(f"amplitudes must be QubitAmplitudes, got {type(psi).__name__}")
    defect = psi.norm_defect()
    # Every state built from the amplitudes has this trace defect; a NaN is refused too.
    if not defect <= TRACE_TOL:
        raise ValueError(
            f"amplitudes are not normalized: defect {defect:.3e} exceeds {TRACE_TOL:.0e}"
        )
    return psi.vector()


@dataclass(frozen=True)
class DensityCheck:
    """Validity report for a candidate density matrix."""

    hermiticity_defect: float
    trace_defect: float
    min_eigenvalue: float

    @property
    def valid(self) -> bool:
        """The package tolerances; a NaN defect fails every one."""
        return bool(self.hermiticity_defect <= HERMITICITY_TOL and self.trace_defect <= TRACE_TOL
                    and self.min_eigenvalue >= MIN_EIGENVALUE_TOL)

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


@dataclass(frozen=True)
class SingleModeParams:
    """Oscillator frequency omega/lambda, in units of the coupling lambda (hbar = 1).

    ``omega`` must be positive and finite, and 2 (2 / omega)^2 must not overflow.
    """

    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not math.isfinite(_mode_scale(self.omega)):
            raise ValueError(f"omega {self.omega:g} overflows (2 / omega)^2")
        # gamma_r peaks at 2 (2 / omega)^2, the first product _gammas forms.
        if not math.isfinite(2.0 * _mode_scale(self.omega)):
            raise ValueError(
                f"omega {self.omega:g} overflows 2 (2 / omega)^2, the peak of gamma_r")

    @property
    def theta(self) -> float:
        """Induced qubit-qubit coupling 2 / omega."""
        return 2.0 / self.omega


def _mode_scale(omega: float) -> float:
    """The mode's scale (2 / omega)^2, the prefactor of gamma_r and gamma_i.

    A product, not a power: a float power raises OverflowError where this gives inf.
    """
    theta = 2.0 / omega
    return theta * theta


def _gammas(params: SingleModeParams, t):
    """gamma_r and gamma_i at a scalar or an array of times."""
    x = params.omega * np.asarray(t, dtype=float)
    pref = _mode_scale(params.omega)
    # 2 sin^2(x/2) instead of 1 - cos x: immune to cancellation at small x.
    return pref * 2.0 * np.sin(0.5 * x) ** 2, pref * np.sin(x)


_MAX_FLOAT = sys.float_info.max
# Phases per row block of _model_measures: every temporary of the spectrum,
# the validation, the entropy and the concurrence spans one block, 64 kB per
# complex temporary, whatever the grid.
_BLOCK = 1 << 12
_EPS = sys.float_info.epsilon
# A row's closed-form lambda_1 is kept when its forward-error bound is at most
# _SPECTRUM_TOL tr H (256 ulps, the threshold of Kopp's hybrid 3x3 solver).
_SPECTRUM_TOL = 256.0 * _EPS


def _model_measures(vec: np.ndarray, gamma_rs: np.ndarray,
                    phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence (n, m) and entropy (n,) of the model states at gamma_rs and phases.

    Row k holds the states that the oracle
    :func:`twospinboson.entanglement.reduced_density` builds at
    gamma_rs[k] and phases[k, j] = 2 theta t - gamma_i: rho = M V G0 V+ M+ with M = [a e00,
    b e01 + c e10, d e11] (orthogonal columns, M+ M = D = diag(|a|^2,
    |b|^2 + |c|^2, |d|^2)), V = diag(e^{i phi}, 1, e^{i phi}) and G0 the real
    Gram matrix of the (+, 0, -) oscillator branches (e^{-gamma_r} beside the
    unit diagonal, e^{-4 gamma_r} in the corners).  So rho has the spectrum
    of H = D^{1/2} G0 D^{1/2} plus an exact 0, which gives the entropy and the
    smallest eigenvalue for validation.  :func:`_gram_spectrum` takes it, one
    block of rows at a time, from H's exact invariants; only a row whose
    lambda_1 it cannot certify (lambda_1 ~ lambda_2) costs a real 3x3
    ``eigvalsh``.

    Concurrence.  The Wootters r_i (PRL 80, 2245 (1998)) are the singular
    values of Uhlmann's tau = G0^{1/2} N G0^{1/2} (PRA 62, 032307 (2000)),
    where N has 2bc in the middle and A = -ad e^{2i phi} in the corners.
    The index flip F = antidiag(1, 1, 1) commutes with G0 and with N, so in
    the basis (e0 + e2)/sqrt2, e1, (e0 - e2)/sqrt2 tau splits into a 1x1
    block sigma_odd = |ad| (1 - e^4) and the 2x2 block
    B = G_e^{1/2} diag(A, 2bc) G_e^{1/2}, G_e = [[1 + e^4, sqrt2 e], [sqrt2 e, 1]],
    with e = e^{-gamma_r}.  From ||B||_F^2 and |det B| = (1 - e^2)^2 |ad| |2bc|,

        (sigma_1 - sigma_2)^2 = ((1 + e^4) |ad| - |2bc|)^2 + 4 e^2 (|z| + Re z),
        (sigma_1 + sigma_2)^2 = (sigma_1 - sigma_2)^2 + 4 (1 - e^2)^2 |ad| |2bc|,

    with z = A conj(2bc): sums of nonnegative terms, the factors 1 - e^k
    from ``expm1`` and |z| + Re z as Im(z)^2 / (|z| - Re z) where Re z < 0.
    Then C = max(0, (sigma_1 - sigma_2) - sigma_odd, sigma_odd - (sigma_1 +
    sigma_2)): no decomposition per phase.

    Validation makes the 4x4 kernel's decision and names its index (the first
    failing row): hermiticity holds by construction; the amplitudes' trace
    defect is checked before any arithmetic (the eigenvalue is then reported
    as NaN); the smallest eigenvalue is H's, lambda_3 = det H / (lambda_1
    lambda_2) with the sign of det H, or ``eigvalsh``'s on a row that falls
    back; a non-finite gamma_r or phase gives NaN defects.

    The rows are taken in blocks of max(1, _BLOCK // m): each block gets its
    spectrum, validation, entropy and concurrence before the next starts, so
    the temporaries span one block, never the grid.  Every step is per row,
    so the result is bitwise the same for any block size; a refusal names the
    global row index, the block's first row plus the index within it, and
    comes after the earlier blocks' rows have been measured.
    """
    n, m = phases.shape
    trace = abs(float(np.sum(np.abs(vec) ** 2)) - 1.0)
    if n and not trace <= TRACE_TOL:
        raise InvalidDensityMatrixError(DensityCheck(0.0, trace, math.nan), 0)
    a, b, c, d = vec
    root = np.array([abs(a), math.hypot(abs(b), abs(c)), abs(d)])
    conc, entropy = np.empty((n, m)), np.empty(n)
    step = max(1, _BLOCK // m)
    for low in range(0, n, step):
        rows = slice(low, low + step)
        block = phases[rows]
        # max |phi| per row without an |phi| temporary; NaN where a phase is NaN.
        peak = np.maximum(block.max(1), -block.min(1))
        # Past 745 every e^{-k gamma_r} is 0 and 1 - e^{-k gamma_r} is 1, so the
        # cap changes no value; it keeps -8 gamma_r finite (NaN stays NaN).
        gamma = np.minimum(gamma_rs[rows], _MAX_FLOAT / 8.0)
        e4 = np.exp(-4.0 * gamma)
        finite = np.isfinite(e4) & (peak <= _MAX_FLOAT)
        gamma = np.where(finite, gamma, 0.0)
        # e^{-k gamma_r} and 1 - e^{-k gamma_r}, k = 2, 4, 8, once per block; a row
        # whose e^{-8 gamma_r} overflows (gamma_r <= -88.7) falls back to the matrix.
        with np.errstate(over="ignore"):
            decay = (np.exp(-2.0 * gamma), np.where(finite, e4, 1.0), np.exp(-8.0 * gamma),
                     *(-np.expm1(-k * gamma) for k in (2.0, 4.0, 8.0)))
        evals = _gram_spectrum(root, gamma, decay)
        evals[~finite] = np.nan
        failed = ~(evals[:, 0] >= MIN_EIGENVALUE_TOL)
        if failed.any():
            k = int(np.argmax(failed))
            defects = (0.0, trace) if finite[k] else (math.nan, math.nan)
            raise InvalidDensityMatrixError(DensityCheck(*defects, float(evals[k, 0])), low + k)
        entropy[rows] = _entropy_bits(evals)
        conc[rows] = _uhlmann_concurrence(vec, decay, block, peak > 0.5 * _MAX_FLOAT)
    return conc, entropy


def _gram_spectrum(root: np.ndarray, gamma: np.ndarray, decay: tuple) -> np.ndarray:
    """Ascending spectra (n, 3) of H = D^{1/2} G0 D^{1/2}, D = root^2, at gamma_r = gamma.

    ``decay`` holds the rows' e^{-k gamma_r}, k = 2, 4, 8, and s_k = 1 - e^{-k gamma_r}
    from ``expm1``.  H's invariants are exact products: tr H = sum D,
    e_2 = (D0 D1 + D1 D2) s_2 + D0 D2 s_8 (its principal 2x2 minors) and
    det H = D0 D1 D2 s_2^2 s_4.  lambda_1 is the trigonometric root
    q + 2 sqrt(p) cos(phi) of B = H - q, q = tr H / 3 (Kopp, Int. J. Mod.
    Phys. C 19, 523 (2008), arXiv:physics/0610206), with p = tr B^2 / 6 and
    det B summed from H's entries, so that p has no cancellation.  Then
    lambda_2 lambda_3 = det H / lambda_1 and lambda_2 + lambda_3 =
    (e_2 - det H / lambda_1) / lambda_1, neither of which cancels near a pure
    state, and the larger root of that quadratic is taken first.

    lambda_1 is only about sqrt(eps) accurate where lambda_1 ~ lambda_2.  A
    row keeps it when the first-order bound (|P(lambda_1)| + rounding of P) /
    P'(lambda_1) on its forward error, P the characteristic polynomial, is at
    most _SPECTRUM_TOL tr H; the other rows, and only they, get one real
    ``eigvalsh`` of H.
    """
    d0, d1, d2 = root * root
    trace = d0 + d1 + d2
    e_sq, e_4, e_8, s2, s4, s8 = decay
    with np.errstate(over="ignore", invalid="ignore"):
        e2 = (d0 * d1 + d1 * d2) * s2 + d0 * d2 * s8
        det = d0 * d1 * d2 * (s2 * s2) * s4
        q = trace / 3.0
        x0, x1, x2 = d0 - q, d1 - q, d2 - q
        h01, h12, h02 = d0 * d1 * e_sq, d1 * d2 * e_sq, d0 * d2 * e_8  # squared off-diagonals
        p = ((x0 * x0 + x1 * x1 + x2 * x2) + 2.0 * (h01 + h12 + h02)) / 6.0
        det_b = (x0 * x1 * x2 + 2.0 * d0 * d1 * d2 * (e_sq * e_sq * e_sq)
                 - x0 * h12 - x1 * h02 - x2 * h01)
        scale = np.sqrt(p)
        cos3 = np.minimum(np.maximum(0.5 * det_b / np.where(p > 0.0, p * scale, 1.0), -1.0), 1.0)
        top = q + 2.0 * scale * np.cos(np.arccos(cos3) / 3.0)
        residual = ((top - trace) * top + e2) * top - det
        rounding = 4.0 * _EPS * (top * top * (trace + abs(top - trace)) + abs(e2) * top + abs(det))
        slope = (3.0 * top - 2.0 * trace) * top + e2 - 4.0 * _EPS * (
            3.0 * top * top + 2.0 * trace * top + abs(e2))
        certified = (slope > 0.0) & (abs(residual) + rounding <= _SPECTRUM_TOL * trace * slope)
    prod = np.where(certified, det, 0.0) / top
    total = (np.where(certified, e2, 0.0) - prod) / top
    big = 0.5 * (total + np.copysign(np.sqrt(np.maximum(total * total - 4.0 * prod, 0.0)), total))
    small = prod / np.where(big != 0.0, big, 1.0)
    evals = np.empty(gamma.shape + (3,))
    evals[:, 0], evals[:, 1], evals[:, 2] = np.minimum(big, small), np.maximum(big, small), top
    fallback = ~certified
    if fallback.any():
        e = np.exp(-gamma[fallback])
        gram = np.ones(e.shape + (3, 3))
        gram[:, 0, 1] = gram[:, 1, 0] = gram[:, 1, 2] = gram[:, 2, 1] = e
        gram[:, 0, 2] = gram[:, 2, 0] = e_4[fallback]
        evals[fallback] = np.linalg.eigvalsh(root[:, None] * gram * root)
    return evals


def _entropy_bits(evals: np.ndarray) -> np.ndarray:
    """-sum p log2 p over the last axis of a stack of spectra from :func:`_gram_spectrum`."""
    # A valid spectrum lies in [0, 1]; without the upper clamp a pure state's
    # eigenvalue 1 + eps would give the entropy -eps.
    p = np.minimum(evals, 1.0)
    kept = p > _ENTROPY_CLIP
    # Summing the negated terms gives a pure state +0, not -0; negation is exact.
    return np.sum(np.where(kept, -p * np.log2(np.where(kept, p, 1.0)), 0.0), axis=-1)


def _cross_term(vec, phases: np.ndarray, huge: np.ndarray) -> np.ndarray:
    """|z| + Re z = |z| (1 + cos theta) at each phase, z = -ad conj(2bc) e^{2i phi}.

    It is the only term of :func:`_uhlmann_concurrence` that depends on the
    phase, and it does not depend on gamma_r.  ``huge`` marks the rows holding
    a phase above half the largest float, where 2 phi overflows; their
    e^{2i phi} is (e^{i phi})^2, equal to rounding.
    """
    a, b, c, d = vec
    # z = |w| u e^{2i phi} with the unit u = w/|w|, rotated in real arithmetic:
    # adding arg(w) to a large phase would round it.
    w = -(a * d) * np.conj(2.0 * b * c)
    mod_w = abs(w)
    # Dividing by a subnormal |w| overflows its reciprocal; a power-of-two
    # scale is exact and leaves every other w as it is.
    unit = w if mod_w >= sys.float_info.min else w * 2.0 ** 600
    u = unit / abs(unit) if mod_w else 0.0
    if huge.any():
        rot = np.empty(phases.shape, dtype=complex)
        rot[~huge] = np.exp(2j * phases[~huge])
        half = np.exp(1j * phases[huge])
        rot[huge] = half * half
    else:
        rot = np.exp(2j * phases)
    cos_z = u.real * rot.real - u.imag * rot.imag
    sin_z = u.real * rot.imag + u.imag * rot.real
    # |z| (1 + cos) as |z| sin^2 / (1 - cos) where cos < 0.
    return mod_w * np.where(cos_z < 0.0, sin_z * sin_z / (1.0 + abs(cos_z)), 1.0 + cos_z)


def _uhlmann_concurrence(vec, decay: tuple, phases: np.ndarray,
                         huge: np.ndarray) -> np.ndarray:
    """C = max(0, r_1 - r_2 - r_3) by the flip-symmetry form of :func:`_model_measures`.

    ``decay`` is as in :func:`_gram_spectrum`, ``huge`` as in :func:`_cross_term`.
    """
    a, b, c, d = vec
    e_sq, e_4, _, s2, s4, _ = decay
    # A validated gamma_r is >= 0 up to rounding; below 0 each factor takes its value at 0.
    e_sq, e_4 = np.minimum(e_sq, 1.0)[:, None], np.minimum(e_4, 1.0)[:, None]
    s2, s4 = np.maximum(s2, 0.0)[:, None], np.maximum(s4, 0.0)[:, None]
    mod_a, mod_bc = abs(a * d), abs(2.0 * b * c)
    diff_sq = ((1.0 + e_4) * mod_a - mod_bc) ** 2 + 4.0 * e_sq * _cross_term(vec, phases, huge)
    diff = np.sqrt(diff_sq)
    total = np.sqrt(diff_sq + 4.0 * s2**2 * (mod_a * mod_bc))
    odd = mod_a * s4
    return np.maximum(0.0, np.maximum(diff - odd, odd - total))


def ideal_concurrence(psi0: QubitAmplitudes, theta_t) -> float | np.ndarray:
    """Concurrence 2|a d e^{4 i theta t} - b c| of the decoherence-free evolution.

    This is the concurrence the induced coupling alone would produce; the
    exact dynamics returns to it whenever gamma_r vanishes.  For the uniform
    initial state it reduces to |sin(2 theta t)|.  ``theta_t`` may be a
    scalar or an array.
    """
    a, b, c, d = _require_amplitudes(psi0)
    return 2.0 * np.abs(a * d * np.exp(4j * np.asarray(theta_t, dtype=float)) - b * c)


def _require_grid(values, name: str = "t_grid") -> np.ndarray:
    """Coerce to a nonempty, finite, nonnegative, strictly increasing 1-D float array.

    The one check of every grid a table takes: times, n, alpha, gap, temperature.
    """
    grid = np.asarray(values, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"{name} must be a nonempty 1-D array")
    if not np.all(np.isfinite(grid)):
        raise ValueError(f"{name} entries must be finite")
    if grid[0] < 0.0:
        raise ValueError(f"{name} entries must be nonnegative")
    if grid.size > 1 and not np.all(np.diff(grid) > 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return grid


def _require_product(scale: float, t_max: float, name: str) -> None:
    """Refuse a grid on which the product ``name`` = scale * t overflows at its last time."""
    if not math.isfinite(scale * t_max):
        raise ValueError(f"{name} = {scale:g} * {t_max:g} overflows")


def _require_single_mode_grid(params: SingleModeParams, t: np.ndarray) -> None:
    """Refuse a time grid whose omega t or induced phase 2 theta t overflows."""
    _require_product(params.omega, float(t[-1]), "omega t")
    _require_product(2.0 * params.theta, float(t[-1]), "2 theta t")


def time_series(params: SingleModeParams, psi0: QubitAmplitudes,
                t_grid) -> dict[str, np.ndarray]:
    """Observables on a strictly increasing grid of finite nonnegative times.

    Columns: t, theta_t, concurrence, ideal_concurrence (the
    decoherence-free concurrence), entropy in bits and overlap
    (exp(-gamma_r)), one entry per grid time.  C and S come from the 3x3
    Gram route of :func:`_model_measures`.  A grid whose omega t or 2 theta t
    overflows is refused.
    """
    vec = _require_amplitudes(psi0)
    t = _require_grid(t_grid)
    _require_single_mode_grid(params, t)
    gamma_rs, gamma_is = _gammas(params, t)
    theta_ts = params.theta * t

    conc, entropy = _model_measures(vec, gamma_rs, (2.0 * theta_ts - gamma_is)[:, None])
    return {
        "t": t,
        "theta_t": theta_ts,
        "concurrence": conc[:, 0],
        "ideal_concurrence": ideal_concurrence(psi0, theta_ts),
        "entropy": entropy,
        "overlap": np.exp(-gamma_rs),
    }
