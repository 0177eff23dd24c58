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
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .entanglement import (MIN_EIGENVALUE_TOL, TRACE_TOL, DensityCheck, InvalidDensityMatrixError,
                           QubitAmplitudes, _entropy_bits, _require_amplitudes)

__all__ = [
    "SingleModeParams",
    "GammaValue",
    "gamma_single_mode",
    "coherent_amplitude",
    "reduced_density",
    "ideal_concurrence",
    "time_series",
]


@dataclass(frozen=True)
class SingleModeParams:
    """Oscillator frequency omega/lambda, in units of the coupling lambda (hbar = 1).

    ``omega`` must be positive and finite, and (2 / omega)^2 must not overflow.
    """

    omega: float

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0.0):
            raise ValueError(f"omega must be positive and finite, got {self.omega}")
        if not math.isfinite(_mode_scale(self.omega)):
            raise ValueError(f"omega {self.omega:g} overflows (2 / omega)^2")

    @property
    def theta(self) -> float:
        """Induced qubit-qubit coupling 2 / omega."""
        return 2.0 / self.omega


@dataclass(frozen=True)
class GammaValue:
    """Decoherence exponent split into damping (gamma_r) and phase (gamma_i)."""

    gamma_r: float
    gamma_i: float

    def __post_init__(self):
        if not (math.isfinite(self.gamma_r) and math.isfinite(self.gamma_i)):
            raise ValueError(
                f"gamma_r and gamma_i must be finite, got {self.gamma_r}, {self.gamma_i}")
        if self.gamma_r < 0.0:
            raise ValueError(f"gamma_r must be nonnegative, got {self.gamma_r}")

    @property
    def overlap(self) -> float:
        """exp(-gamma_r), the coherence suppression factor."""
        return math.exp(-self.gamma_r)


def _mode_scale(omega: float) -> float:
    """The mode's scale (2 / omega)^2, the prefactor of gamma_r and gamma_i.

    A product, not a power: a float power raises OverflowError where this gives inf.
    """
    theta = 2.0 / omega
    return theta * theta


def gamma_single_mode(params: SingleModeParams, t: float) -> GammaValue:
    """Decoherence exponent of the single mode at time ``t >= 0``.

    gamma_r = (2 / omega)**2 (1 - cos omega t), gamma_i the matching
    sine term.  Both vanish at every full period omega t = 2 pi k.
    """
    _require_time(t)
    gamma_r, gamma_i = _gammas(params, t)
    return GammaValue(float(gamma_r), float(gamma_i))


def _require_time(t: float) -> None:
    if not (math.isfinite(t) and t >= 0.0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")


def _gammas(params: SingleModeParams, t):
    """gamma_r and gamma_i at a scalar or an array of times."""
    x = params.omega * np.asarray(t, dtype=float)
    pref = _mode_scale(params.omega)
    # 2 sin^2(x/2) instead of 1 - cos x: immune to cancellation at small x.
    return pref * 2.0 * np.sin(0.5 * x) ** 2, pref * np.sin(x)


def coherent_amplitude(params: SingleModeParams, t: float) -> complex:
    """Oscillator displacement (2 / omega) (e^{-i omega t} - 1).

    The |00> branch drags the mode to +amplitude, the |11> branch to
    -amplitude; |amplitude|^2 equals 2 * gamma_r at all times.
    """
    _require_time(t)
    x = params.omega * t
    return params.theta * (np.exp(-1j * x) - 1.0)


_MAX_FLOAT = sys.float_info.max
# Phases per row block of _model_measures: every temporary of the spectrum,
# the validation, the entropy and the concurrence spans one block, 64 kB per
# complex temporary, whatever the grid.
_BLOCK = 1 << 12
_EPS = sys.float_info.epsilon
# A row's closed-form lambda_1 is kept when its forward-error bound is at most
# _SPECTRUM_TOL tr H (256 ulps, the threshold of Kopp's hybrid 3x3 solver).
_SPECTRUM_TOL = 256.0 * _EPS


def _density_from_phases(psi0, theta_ts, gamma_rs, gamma_is) -> np.ndarray:
    """Stack of reduced density matrices for arrays of phases and exponents."""
    a, b, c, d = psi0
    theta_ts = np.asarray(theta_ts, dtype=float)
    gamma_rs = np.asarray(gamma_rs, dtype=float)
    gamma_is = np.asarray(gamma_is, dtype=float)

    # Coherence factor between a displaced branch and an undisplaced one.
    f = np.exp(-gamma_rs + 1j * (2.0 * theta_ts - gamma_is))
    # Between the two oppositely displaced branches the overlap is exp(-4 gamma_r)
    # and the branch phases cancel exactly.
    g = np.exp(-4.0 * gamma_rs)

    rho = np.empty(theta_ts.shape + (4, 4), dtype=complex)
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


def _model_measures(vec: np.ndarray, gamma_rs: np.ndarray,
                    phases: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Concurrence (n, m) and entropy (n,) of the model states at gamma_rs and phases.

    Row k holds the states of :func:`_density_from_phases` at gamma_rs[k] and
    phases[k, j] = 2 theta t - gamma_i: rho = M V G0 V+ M+ with M = [a e00,
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
        finite = np.isfinite(np.exp(-4.0 * gamma_rs[rows])) & (peak <= _MAX_FLOAT)
        gamma = np.where(finite, gamma_rs[rows], 0.0)
        evals = _gram_spectrum(root, gamma)
        evals[~finite] = np.nan
        failed = ~(evals[:, 0] >= MIN_EIGENVALUE_TOL)
        if failed.any():
            k = int(np.argmax(failed))
            defects = (0.0, trace) if finite[k] else (math.nan, math.nan)
            raise InvalidDensityMatrixError(DensityCheck(*defects, float(evals[k, 0])), low + k)
        entropy[rows] = _entropy_bits(evals)
        conc[rows] = _uhlmann_concurrence(vec, gamma, block, peak > 0.5 * _MAX_FLOAT)
    return conc, entropy


def _gram_spectrum(root: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Ascending spectra (n, 3) of H = D^{1/2} G0 D^{1/2}, D = root^2, at gamma_r = gamma.

    H's invariants are exact products: tr H = sum D; with s_k = 1 - e^{-k gamma_r}
    from ``expm1``, e_2 = (D0 D1 + D1 D2) s_2 + D0 D2 s_8 (its principal 2x2
    minors) and det H = D0 D1 D2 s_2^2 s_4.  lambda_1 is the trigonometric root
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
    # Only a gamma_r <= -88.7 overflows e^{-8 gamma_r}; such a row fails the
    # bound and falls back to the matrix, which needs only e and e^4.
    with np.errstate(over="ignore", invalid="ignore"):
        s2, s4, s8 = (-np.expm1(-k * gamma) for k in (2.0, 4.0, 8.0))
        e_sq, e_8 = np.exp(-2.0 * gamma), np.exp(-8.0 * gamma)
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
        e, e4 = np.exp(-gamma[fallback]), np.exp(-4.0 * gamma[fallback])
        gram = np.ones(e.shape + (3, 3))
        gram[:, 0, 1] = gram[:, 1, 0] = gram[:, 1, 2] = gram[:, 2, 1] = e
        gram[:, 0, 2] = gram[:, 2, 0] = e4
        evals[fallback] = np.linalg.eigvalsh(root[:, None] * gram * root)
    return evals


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


def _uhlmann_concurrence(vec, gamma: np.ndarray, phases: np.ndarray,
                         huge: np.ndarray) -> np.ndarray:
    """C = max(0, r_1 - r_2 - r_3) by the flip-symmetry form of :func:`_model_measures`.

    ``huge`` is as in :func:`_cross_term`.
    """
    a, b, c, d = vec
    # A validated gamma_r is >= 0 up to rounding; 1 - e^{-k gamma_r} needs it >= 0.
    gamma = np.maximum(gamma, 0.0)[:, None]
    mod_a, mod_bc = abs(a * d), abs(2.0 * b * c)
    diff_sq = (((1.0 + np.exp(-4.0 * gamma)) * mod_a - mod_bc) ** 2
               + 4.0 * np.exp(-2.0 * gamma) * _cross_term(vec, phases, huge))
    diff = np.sqrt(diff_sq)
    total = np.sqrt(diff_sq + 4.0 * np.expm1(-2.0 * gamma) ** 2 * (mod_a * mod_bc))
    odd = -mod_a * np.expm1(-4.0 * gamma)
    return np.maximum(0.0, np.maximum(diff - odd, odd - total))


def reduced_density(psi0: QubitAmplitudes, theta_t: float, gamma: GammaValue) -> np.ndarray:
    """Reduced two-qubit density matrix after tracing out the oscillator.

    Parameters
    ----------
    psi0 : QubitAmplitudes
        Normalized initial amplitudes (the oscillator starts in its ground
        state).
    theta_t : float
        Accumulated induced-coupling phase theta * t.
    gamma : GammaValue
        Decoherence exponent at the same time.

    Returns
    -------
    ndarray, shape (4, 4)
        Hermitian unit-trace matrix.  The |01>, |10> block is untouched by
        the environment; coherences against |00> and |11> carry the factor
        exp(-gamma_r) and the phase 2*theta_t - gamma_i; the |00>, |11>
        coherence carries exp(-4 gamma_r) and no phase.
    """
    vec = _require_amplitudes(psi0)
    return _density_from_phases(vec, float(theta_t), gamma.gamma_r, gamma.gamma_i)


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
