"""The one registry of the package's named claims, each checked in one place.

``verify`` runs every suite of :func:`all_checks`, ``oracle-check`` runs
:func:`oracle_checks` and the acceptance tests assert the nine criteria of
:func:`acceptance_checks`, the headline physics claims.  The property suites
exercise invariants that hold for every parameter choice: measure ranges,
local-unitary invariance, revivals, closed-form limits of the bath integrals
and the closed-form reduced dynamics against truncated-Fock propagation.
Randomized checks draw from a fixed seed so runs are reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bath, fock, quadrature, single_mode, sweeps
from .entanglement import (
    concurrence,
    entanglement_measures,
    pure_concurrence,
    purity,
    reduced_density,
    validate_density,
    von_neumann_entropy,
)
from .single_mode import QubitAmplitudes, SingleModeParams

__all__ = [
    "CheckResult",
    "ORACLE_GRID_RATIOS",
    "ORACLE_GRID_PHASES",
    "state_algebra_checks",
    "single_mode_checks",
    "oracle_checks",
    "bath_checks",
    "sweep_checks",
    "acceptance_checks",
    "all_checks",
]

_SEED = 20260814

# sigma_y (x) sigma_y, built here from sigma_y so that the reference route
# below shares nothing with the kernel's sign pattern.
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real

# Equivalence grid: weak through strong coupling crossed with phases up to a
# full revival.
ORACLE_GRID_RATIOS = (1.0, 4.0, 4.0 * math.sqrt(2.0), 4.0 * math.sqrt(3.0), 20.0)
ORACLE_GRID_PHASES = (0.1, math.pi / 8.0, math.pi / 4.0, 1.0)

_UNIFORM = QubitAmplitudes.uniform()


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def line(self) -> str:
        return f"{'PASS' if self.passed else 'FAIL'} {self.name}: {self.detail}"


def _random_pure(rng) -> QubitAmplitudes:
    vec = rng.normal(size=4) + 1j * rng.normal(size=4)
    return QubitAmplitudes.normalized(*vec)


def _random_density(rng) -> np.ndarray:
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _single_mode_rho(params: SingleModeParams, psi: QubitAmplitudes, t: float) -> np.ndarray:
    return reduced_density(psi, params.theta * t, *single_mode._gammas(params, t))


def _rises(values) -> bool:
    """Each value is at least its predecessor, less 1e-12."""
    return all(b >= a - 1e-12 for a, b in zip(values, values[1:]))


def _falls(values) -> bool:
    return _rises([-v for v in values])


def _random_local_unitary(rng) -> np.ndarray:
    out = []
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        out.append(q)
    return np.kron(out[0], out[1])


def state_algebra_checks() -> list[CheckResult]:
    """Ranges, invariances and cross-checks of concurrence and entropy."""
    rng = np.random.default_rng(_SEED)
    results = []

    worst_range = 0.0
    worst_imag = 0.0
    worst_unitary = 0.0
    worst_sqrt = 0.0
    for _ in range(50):
        rho = _random_density(rng)
        c = concurrence(rho)
        s = von_neumann_entropy(rho)
        worst_range = max(worst_range, -c, c - 1.0, -s, s - 2.0)

        flipped = _SPIN_FLIP @ rho.conj() @ _SPIN_FLIP
        lam = np.linalg.eigvals(rho @ flipped)
        worst_imag = max(worst_imag, float(np.max(np.abs(lam.imag))))

        u = _random_local_unitary(rng)
        worst_unitary = max(worst_unitary, abs(concurrence(u @ rho @ u.conj().T) - c))

        r = np.sqrt(np.clip(lam.real, 0.0, None))
        r = np.sort(r)[::-1]
        worst_sqrt = max(worst_sqrt, abs(max(0.0, r[0] - r[1] - r[2] - r[3]) - c))
    results.append(CheckResult(
        "measure ranges", worst_range <= 1e-12,
        f"worst range excess {worst_range:.2e} over 50 random mixed states"))
    results.append(CheckResult(
        "spin-flip eigenvalues real", worst_imag <= 1e-10,
        f"max imaginary part {worst_imag:.2e}"))
    results.append(CheckResult(
        "local unitary invariance", worst_unitary <= 1e-9,
        f"max concurrence change {worst_unitary:.2e}"))
    results.append(CheckResult(
        "general-eigensolver route agrees", worst_sqrt <= 1e-9,
        f"max concurrence difference {worst_sqrt:.2e} between eigenvalue routes"))

    worst_pure = 0.0
    for _ in range(50):
        psi = _random_pure(rng)
        vec = psi.vector()
        rho = np.outer(vec, vec.conj())
        worst_pure = max(worst_pure, abs(concurrence(rho) - pure_concurrence(psi)),
                         von_neumann_entropy(rho))
    results.append(CheckResult(
        "pure states", worst_pure <= 1e-7,
        f"max |C - 2|ad-bc|| or S over 50 random pure states: {worst_pure:.2e}"))
    return results


def single_mode_checks() -> list[CheckResult]:
    """Validity, revivals, commensuration and gamma periodicity."""
    rng = np.random.default_rng(_SEED + 1)
    results = []

    all_valid = True
    for _ in range(25):
        params = SingleModeParams(omega=float(rng.uniform(0.5, 20.0)))
        t = float(rng.uniform(0.0, 20.0))
        rho = _single_mode_rho(params, _random_pure(rng), t)
        all_valid = all_valid and validate_density(rho).valid
    results.append(CheckResult(
        "reduced state validity", all_valid,
        "25 random (omega, t, psi0) reduced states pass validation"))

    worst_revival = 0.0
    for _ in range(25):
        params = SingleModeParams(omega=float(rng.uniform(0.5, 10.0)))
        k = int(rng.integers(1, 6))
        t = 2.0 * math.pi * k / params.omega
        psi = _random_pure(rng)
        rho = _single_mode_rho(params, psi, t)
        diff = abs(concurrence(rho) - single_mode.ideal_concurrence(psi, params.theta * t))
        worst_revival = max(worst_revival, diff, von_neumann_entropy(rho))
    results.append(CheckResult(
        "full-period revival", worst_revival <= 1e-10,
        f"max |C - C_ideal| and S at omega t = 2 pi k: {worst_revival:.2e}"))

    c_max = sweeps.commensurability_table(np.arange(1.0, 6.0), _UNIFORM)["c_max"]
    worst_comm = float(np.max(np.abs(c_max - 1.0)))
    results.append(CheckResult(
        "commensurate recovery", worst_comm <= 1e-6,
        f"max |c_max - 1| for n = 1..5: {worst_comm:.2e}"))

    worst_gamma = 0.0
    for _ in range(25):
        params = SingleModeParams(omega=float(rng.uniform(0.5, 10.0)))
        t = float(rng.uniform(0.0, 10.0))
        g_r1, g_i1 = single_mode._gammas(params, t)
        g_r2, g_i2 = single_mode._gammas(params, t + 2.0 * math.pi / params.omega)
        # The displacement theta (e^{-i omega t} - 1) of the |00> branch.
        alpha = params.theta * (np.exp(-1j * (params.omega * t)) - 1.0)
        worst_gamma = max(worst_gamma, abs(g_r1 - g_r2), abs(g_i1 - g_i2),
                          abs(abs(alpha) ** 2 - 2.0 * g_r1))
    results.append(CheckResult(
        "gamma periodicity and displacement", worst_gamma <= 1e-10,
        f"max periodicity defect and ||alpha|^2 - 2 gamma_r|: {worst_gamma:.2e}"))
    return results


def oracle_checks(tolerance: float = 1e-7) -> list[CheckResult]:
    """Closed form versus truncated-Fock propagation on the equivalence grid."""
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    rng = np.random.default_rng(_SEED + 2)
    results = []
    worst = 0.0
    for ratio in ORACLE_GRID_RATIOS:
        params = SingleModeParams(ratio)
        for phase in ORACLE_GRID_PHASES:
            t = phase / params.theta
            for label, psi in (("uniform", _UNIFORM), ("random", _random_pure(rng))):
                closed = _single_mode_rho(params, psi, t)
                brute, config = fock.evolve_auto(params, psi, t)
                dist = fock.trace_distance(closed, brute)
                worst = max(worst, dist)
                results.append(CheckResult(
                    f"oracle omega/lambda={ratio:g} theta*t={phase:g} {label}",
                    dist <= tolerance,
                    f"trace distance {dist:.2e} at n_cut={config.n_cut}"))
    results.append(CheckResult(
        "oracle equivalence grid", worst <= tolerance,
        f"worst trace distance {worst:.2e} over {len(results)} cases"))
    return results


def bath_checks() -> list[CheckResult]:
    """Closed-form limits, asymptotics and consistency of the bath integrals."""
    results = []

    # The thermal and gapped closed forms against their defining integrals by
    # quadrature; the gapless T = 0 forms are criterion 4.
    worst_abs = 0.0
    for spec in (bath.OhmicGapSpectrum(alpha=0.25, temperature=0.5),
                 bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1),
                 bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)):
        closed, quad = _closed_form_and_quadrature(spec)
        worst_abs = max(worst_abs, np.max(np.abs(closed - quad)))
    results.append(CheckResult(
        "thermal and gapped closed forms", worst_abs <= 1e-9,
        f"worst absolute error {worst_abs:.2e} of the ln Gamma drop, E1 and Bose-series forms "
        "against quadrature"))

    spec = bath.OhmicGapSpectrum(alpha=0.25)
    sat = bath.bath_exponents(spec, [1000.0])[1][0]
    rel = abs(sat / (2.0 * math.pi * spec.alpha) - 1.0)
    results.append(CheckResult(
        "gamma_I saturation", rel <= 1e-3,
        f"gamma_I(1000) = {sat:.6f}, 2 pi alpha = {2.0 * math.pi * spec.alpha:.6f}"))

    thermal = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)
    g_r1, g_i1, e1 = quadrature.bath_exponents(thermal, 7.3)
    g_r2, g_i2, _ = quadrature.bath_exponents(thermal, 7.3, abs_tol=0.5e-10)
    moved = abs(g_r2 - g_r1) + abs(g_i2 - g_i1)
    results.append(CheckResult(
        "quadrature self-consistency", moved <= e1 + 1e-14,
        f"tolerance halving moved gamma_R, gamma_I by {moved:.2e}, estimate {e1:.2e}"))

    gapped = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1)
    omegas, couplings_sq = quadrature.discretize_modes(gapped)
    times = np.array([0.5, 2.0, 5.0, 10.0])
    discrete = 4.0 * np.sum(couplings_sq * np.sin(omegas * times[:, None]) / omegas**2, axis=1)
    worst_disc = np.max(np.abs(discrete / bath.bath_exponents(gapped, times)[1] - 1.0))
    results.append(CheckResult(
        "200-mode discretization", worst_disc <= 1e-3,
        f"worst relative gamma_I mismatch {worst_disc:.2e} for t <= 10"))

    cold = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=1e-6)
    rel_cold = abs(bath.bath_exponents(cold, [5.0])[0][0]
                   / bath.bath_exponents(gapped, [5.0])[0][0] - 1.0)
    results.append(CheckResult(
        "cold bath matches zero temperature", rel_cold <= 1e-4,
        f"relative difference {rel_cold:.2e} at T = 1e-6"))

    by_gap = [bath.gamma_R_infinity(bath.OhmicGapSpectrum(alpha=0.25, omega0=gap))
              for gap in (0.01, 0.05, 0.1, 0.2)]
    results.append(CheckResult(
        "wider gap preserves coherence", _falls(by_gap),
        f"gamma_R(inf) over omega0 = 0.01, 0.05, 0.1, 0.2: {[f'{p:.4f}' for p in by_gap]}"))

    scan_defect, min_entropy = _model_measures_defect()
    closed_defect = _model_measures_closed_form_defect()
    results.append(CheckResult(
        "steady-state scan oracle",
        scan_defect <= 1e-12 and closed_defect <= 1e-15 and min_entropy >= 0.0,
        f"max |C| and |S| difference {scan_defect:.2e} from the 4x4 kernel, 4 amplitude sets at "
        "256 phases x 4 plateaus and 256 series times with gamma_I != 0 (tol 1e-12); "
        f"max |C| difference {closed_defect:.2e} from the closed forms 2|ad| e^(-4 gamma_R) "
        "(b = c = 0), 2|bc| (a = d = 0) and ideal_concurrence (gamma_R = 0) (tol 1e-15); "
        f"min model S {min_entropy:.1e} over those states and 64 random pure ones (exact: >= 0)"))
    return results


def _closed_form_and_quadrature(spec: bath.OhmicGapSpectrum) -> tuple[np.ndarray, np.ndarray]:
    """(gamma_R, gamma_I) rows of the closed forms and of their quadrature at t = 0.1 to 100."""
    times = (0.1, 1.0, 10.0, 100.0)
    closed = np.array(bath.bath_exponents(spec, times)[:2])
    quad = np.array([quadrature.bath_exponents(spec, t)[:2] for t in times]).T
    return closed, quad


def _model_measures_defect() -> tuple[float, float]:
    """Worst difference of C and S between the model-state closed form and the kernel.

    ``single_mode._model_measures`` (S from the certified invariant spectrum
    of the Gram form, C from the closed form of the index-flip symmetry) against
    ``entanglement_measures`` of the 4x4 states it stands for, on the
    uniform amplitudes, seeded complex amplitudes, an a = d = 0 and a
    b = c = 0 state: as a steady-state scan of 256 phases at the plateaus 0,
    0.05, 1.2 (alpha 0.25, gap 0.1) and 4, and through ``time_series`` on 256
    times at omega/lambda = 2.3 (gamma_I != 0).

    Also returns the smallest model entropy over those states and 64 seeded
    random pure states (gamma_r = 0).  It must be exactly nonnegative: every
    model entropy is a sum of nonnegative terms, since a spectrum is clamped
    at 1, and a pure state's top eigenvalue often comes out 1 + eps.
    """
    rng = np.random.default_rng(_SEED + 3)
    gamma_rs = np.array([0.0, 0.05, 1.2, 4.0])
    theta_ts = np.broadcast_to(np.linspace(0.0, 0.5 * math.pi, 256, endpoint=False), (4, 256))
    params = SingleModeParams(2.3)
    series_ts = np.linspace(0.0, 12.0, 256)
    b, c, a, d = rng.normal(size=4) + 1j * rng.normal(size=4)
    worst = 0.0
    entropies = []
    for psi in (_UNIFORM, _random_pure(rng),
                QubitAmplitudes.normalized(0.0, b, c, 0.0),
                QubitAmplitudes.normalized(a, 0.0, 0.0, d)):
        vec = psi.vector()
        conc, entropy = single_mode._model_measures(vec, gamma_rs, 2.0 * theta_ts)
        c_ref, s_ref = entanglement_measures(
            reduced_density(psi, theta_ts, gamma_rs[:, None], 0.0))
        series = single_mode.time_series(params, psi, series_ts)
        c_series, s_series = entanglement_measures(reduced_density(
            psi, series["theta_t"], *single_mode._gammas(params, series_ts)))
        worst = max(worst, np.max(np.abs(conc - c_ref)), np.max(np.abs(entropy[:, None] - s_ref)),
                    np.max(np.abs(series["concurrence"] - c_series)),
                    np.max(np.abs(series["entropy"] - s_series)))
        entropies += [entropy, series["entropy"]]
    entropies += [single_mode._model_measures(_random_pure(rng).vector(), np.zeros(1),
                                              np.zeros((1, 1)))[1] for _ in range(64)]
    return float(worst), float(np.min(np.concatenate(entropies)))


def _model_measures_closed_form_defect() -> float:
    """Worst difference of C between the flip-symmetry closed form and special cases.

    No 4x4 kernel is involved, and each case leaves the 2x2 block of the
    closed form with rank one (sigma_2 = 0): with b = c = 0 the state lives
    on {|00>, |11>} and C = 2|ad| e^{-4 gamma_R}; with a = d = 0 it lives on
    {|01>, |10>}, untouched by the environment, and C = 2|bc|; at
    gamma_R = 0 it is pure and C = ``ideal_concurrence``.  Each at 256
    phases, the first two at the plateaus 0, 0.05, 1.2, 4 and 12.
    """
    rng = np.random.default_rng(_SEED + 4)
    gamma_rs = np.array([0.0, 0.05, 1.2, 4.0, 12.0])
    theta_ts = np.linspace(0.0, 0.5 * math.pi, 256, endpoint=False)
    phases = np.broadcast_to(2.0 * theta_ts, (gamma_rs.size, theta_ts.size))
    b, c, a, d = rng.normal(size=4) + 1j * rng.normal(size=4)
    worst = 0.0
    for psi, closed in ((QubitAmplitudes.normalized(a, 0.0, 0.0, d),
                         lambda v: 2.0 * abs(v[0] * v[3]) * np.exp(-4.0 * gamma_rs)[:, None]),
                        (QubitAmplitudes.normalized(0.0, b, c, 0.0),
                         lambda v: np.full(phases.shape, 2.0 * abs(v[1] * v[2])))):
        vec = psi.vector()
        conc, _ = single_mode._model_measures(vec, gamma_rs, phases)
        worst = max(worst, np.max(np.abs(conc - closed(vec))))
    for psi in (_UNIFORM, _random_pure(rng)):
        conc, _ = single_mode._model_measures(psi.vector(), np.zeros(1), 2.0 * theta_ts[None])
        worst = max(worst, np.max(np.abs(conc[0] - single_mode.ideal_concurrence(psi, theta_ts))))
    return float(worst)


def sweep_checks() -> list[CheckResult]:
    """Determinism and sentinel policy of the sweep tables."""
    results = []

    t1 = sweeps.commensurability_table([1.0, 2.0, 3.0], _UNIFORM, samples_per_period=400)
    t2 = sweeps.commensurability_table([1.0, 2.0, 3.0], _UNIFORM, samples_per_period=400)
    identical = all(np.array_equal(t1[k], t2[k]) for k in t1)
    results.append(CheckResult(
        "sweep determinism", identical,
        "repeated commensurability sweep is bitwise identical"))

    table = sweeps.steady_state_table(alphas=np.array([0.2, 0.6]),
                                      gaps=np.array([0.0, 0.1]), psi0=_UNIFORM)
    gapless_rows = table["omega0"] == 0.0
    sentinel_ok = (np.all(table["has_steady_state"][gapless_rows] == 0.0)
                   and np.all(table["c_max_steady"][gapless_rows] == sweeps.NO_STEADY_STATE)
                   and np.all(table["has_steady_state"][~gapless_rows] == 1.0)
                   and np.all(table["c_max_steady"][~gapless_rows] >= 0.0))
    results.append(CheckResult(
        "steady-state sentinels", sentinel_ok,
        "gapless cells carry -1 with has_steady_state = 0, gapped cells are physical"))
    return results


class _Tally:
    """Validates every density matrix criteria 1-8 build; criterion 9 reads the tally."""

    def __init__(self):
        self.count = 0
        self.failures: list[str] = []

    def __call__(self, rho: np.ndarray) -> np.ndarray:
        check = validate_density(rho)
        self.count += 1
        if not check.valid:
            self.failures.append(check.describe())
        return rho


def _criterion_1(track: _Tally) -> CheckResult:
    # omega/lambda = 4 sqrt(n): C(theta t = pi/4) = 1 and C(pi/2) = 0,
    # both within 1e-9.
    worst_peak = worst_zero = 0.0
    for n in (1, 2, 3, 4, 5):
        params = SingleModeParams(4.0 * math.sqrt(n))
        t_quarter = math.pi / (4.0 * params.theta)
        t_half = math.pi / (2.0 * params.theta)
        c_peak = concurrence(track(_single_mode_rho(params, _UNIFORM, t_quarter)))
        c_zero = concurrence(track(_single_mode_rho(params, _UNIFORM, t_half)))
        worst_peak = max(worst_peak, abs(c_peak - 1.0))
        worst_zero = max(worst_zero, abs(c_zero))
    return CheckResult(
        "criterion 1", worst_peak <= 1e-9 and worst_zero <= 1e-9,
        f"n in 1..5: max |C(pi/4) - 1| = {worst_peak:.2e}, "
        f"max |C(pi/2)| = {worst_zero:.2e} (tol 1e-9)")


def _criterion_2(track: _Tally) -> CheckResult:
    # omega/lambda = 100: C tracks the decoherence-free curve and the
    # entropy stays near zero over theta t in [0, pi/2).
    params = SingleModeParams(100.0)
    gap = s_max = 0.0
    for theta_t in np.linspace(0.0, 0.5 * math.pi, 401, endpoint=False):
        rho = track(_single_mode_rho(params, _UNIFORM, theta_t / params.theta))
        gap = max(gap, abs(concurrence(rho) - single_mode.ideal_concurrence(_UNIFORM, theta_t)))
        s_max = max(s_max, von_neumann_entropy(rho))
    return CheckResult(
        "criterion 2", gap <= 5e-3 and s_max <= 0.02,
        f"omega/lambda = 100: max |C - C_ideal| = {gap:.2e} (tol 5e-3), "
        f"max S = {s_max:.3f} bits (tol 0.02)")


def _criterion_3(track: _Tally) -> CheckResult:
    # Closed form versus truncated-Fock propagation of the uniform state over
    # the equivalence grid, with automatic cutoff escalation.
    worst = 0.0
    for ratio in ORACLE_GRID_RATIOS:
        params = SingleModeParams(ratio)
        for theta_t in ORACLE_GRID_PHASES:
            t = theta_t / params.theta
            exact = track(_single_mode_rho(params, _UNIFORM, t))
            numeric = track(fock.evolve_auto(params, _UNIFORM, t)[0])
            worst = max(worst, fock.trace_distance(numeric, exact))
    cases = len(ORACLE_GRID_RATIOS) * len(ORACLE_GRID_PHASES)
    return CheckResult(
        "criterion 3", worst < 1e-7,
        f"{cases}-case grid: worst trace distance closed form vs Fock "
        f"propagation = {worst:.2e} (tol 1e-7)")


def _criterion_4(track: _Tally) -> CheckResult:
    # Closed-form gamma_R = 2 alpha ln(1 + t^2) and gamma_I = 4 alpha arctan t
    # against their defining integrals by adaptive quadrature, relative 1e-6.
    worst = 0.0
    for alpha in (0.25, 0.5):
        closed, quad = _closed_form_and_quadrature(bath.OhmicGapSpectrum(alpha=alpha))
        worst = max(worst, np.max(np.abs(closed - quad) / quad))
    return CheckResult(
        "criterion 4", worst <= 1e-6,
        f"alpha in {{0.25, 0.5}}, t in {{0.1, 1, 10, 100}}: worst relative "
        f"error of the closed forms vs quadrature = {worst:.2e} (tol 1e-6)")


def _criterion_5(track: _Tally) -> CheckResult:
    # log-log slope of exp(-gamma_R) over a late-time decade equals
    # -4 alpha within 2%.
    worst_rel = 0.0
    times = np.geomspace(100.0, 1000.0, 9)
    for alpha in (0.25, 0.5):
        gammas = bath.bath_exponents(bath.OhmicGapSpectrum(alpha=alpha), times)[0]
        slope = np.polyfit(np.log(times), -gammas, 1)[0]
        worst_rel = max(worst_rel, abs(slope + 4.0 * alpha) / (4.0 * alpha))
    return CheckResult(
        "criterion 5", worst_rel <= 0.02,
        f"gapless overlap decay: worst |slope + 4 alpha| / 4 alpha = "
        f"{worst_rel:.3f} over t in [1e2, 1e3] (tol 0.02)")


def _criterion_6(track: _Tally) -> CheckResult:
    # (omega0, alpha) = (0.1, 0.25): finite plateau with residual
    # entanglement; the gapless pipeline reports no steady state.
    stats = bath.steady_state_stats(bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1), _UNIFORM)
    gapless = bath.steady_state_stats(bath.OhmicGapSpectrum(alpha=0.25), _UNIFORM)
    if stats is None or not math.isfinite(stats[0]):
        return CheckResult("criterion 6", False, "gapped pipeline returned no steady state")
    g_inf, c_max, entropy = stats
    # The steady-state family measured with the 4x4 kernel: its entropy is
    # phase independent and equal to the structured figure.
    entropies = [von_neumann_entropy(track(reduced_density(_UNIFORM, theta_t, g_inf, 0.0)))
                 for theta_t in np.linspace(0.0, 0.5 * math.pi, 64, endpoint=False)]
    spread = max(entropies) - min(entropies)
    deviation = max(abs(s - entropy) for s in entropies)
    overlap = math.exp(-g_inf)
    return CheckResult(
        "criterion 6",
        overlap > 0.0 and c_max > 0.0 and spread < 1e-6 and deviation <= 1e-12
        and gapless is None,
        f"gamma_R(inf) = {g_inf:.4f}, overlap = {overlap:.4f}, "
        f"C_max = {c_max:.4f}, kernel S spread over 64 phases = {spread:.1e} (tol 1e-6), "
        f"max |S_kernel - S| = {deviation:.1e} (tol 1e-12); "
        f"gapless reports none: {gapless is None}")


def _criterion_7(track: _Tally) -> CheckResult:
    # Trend 1: averages over a phase period versus integer n.
    periods = sweeps.commensurability_table(np.arange(1.0, 11.0), _UNIFORM)
    trend_n = _rises(periods["c_avg"]) and _falls(periods["s_avg"])

    # Trend 2: steady-state entanglement versus coupling at fixed gap.
    steady = sweeps.steady_state_table(np.linspace(0.05, 1.0, 8), [0.1], _UNIFORM)
    trend_alpha = _falls(steady["c_max_steady"]) and _rises(steady["s_steady"])

    # Trend 3: heating lowers the saturated coherence exp(-gamma_R(inf)),
    # compared on gamma_R(inf), whose slack bounds that of the overlap.
    trend_temp = _rises([bath.gamma_R_infinity(bath.OhmicGapSpectrum(
        alpha=0.25, omega0=0.1, temperature=float(temp))) for temp in np.linspace(0.0, 2.0, 9)])

    return CheckResult(
        "criterion 7", trend_n and trend_alpha and trend_temp,
        f"C_avg up / S_avg down in n: {trend_n}; C_max down / S up in alpha: "
        f"{trend_alpha}; overlap down in T: {trend_temp}")


def _criterion_8(track: _Tally) -> CheckResult:
    # Random states supported on |01>, |10> stay pure: 100 in both pipelines
    # at omega = 1, then 25 single-mode ones at random omega up to t = 50.
    rng = np.random.default_rng(_SEED)
    params = SingleModeParams(omega=1.0)
    bath_spec = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1)
    theta = bath.effective_coupling(bath_spec)
    ts = rng.uniform(0.1, 20.0, size=10)
    gamma_rs, gamma_is, _ = bath.bath_exponents(bath_spec, ts)
    bath_states = list(zip(theta * ts, gamma_rs, gamma_is))

    def dfs_state():
        b, c = rng.normal(size=2) + 1j * rng.normal(size=2)
        return QubitAmplitudes.normalized(0.0, b, c, 0.0)

    rhos = []
    for k in range(100):
        psi = dfs_state()
        rhos.append(track(_single_mode_rho(params, psi, float(rng.uniform(0.0, 20.0)))))
        rhos.append(track(reduced_density(psi, *bath_states[k % 10])))
    for _ in range(25):
        random_params = SingleModeParams(omega=float(rng.uniform(0.5, 10.0)))
        t = float(rng.uniform(0.0, 50.0))
        rhos.append(track(_single_mode_rho(random_params, dfs_state(), t)))
    worst_s = max(von_neumann_entropy(rho) for rho in rhos)
    worst_p = max(abs(purity(rho) - 1.0) for rho in rhos)
    return CheckResult(
        "criterion 8", worst_s < 1e-10 and worst_p <= 1e-10,
        f"100 random a = d = 0 states, single-mode and bath, and 25 single-mode at random "
        f"omega to t = 50: max S = {worst_s:.2e}, max |purity - 1| = {worst_p:.2e} (tol 1e-10)")


def _guarded(name: str, run) -> list[CheckResult]:
    """``run()``, or one FAIL entry ``name`` carrying the exception when it raises."""
    try:
        return run()
    except Exception as exc:
        return [CheckResult(name, False, f"raised {type(exc).__name__}: {exc}")]


def acceptance_checks() -> list[CheckResult]:
    """The nine acceptance criteria, ``criterion 1`` to ``criterion 9``, in order.

    A criterion that raises fails alone, with the exception as its detail.
    Criterion 9 holds when every density matrix criteria 1-8 build passed
    validation as it was built; states inside the sweep pipelines are
    validated upstream by ``single_mode._model_measures``.
    """
    track = _Tally()
    results = []
    for k, criterion in enumerate((_criterion_1, _criterion_2, _criterion_3, _criterion_4,
                                   _criterion_5, _criterion_6, _criterion_7, _criterion_8),
                                  start=1):
        results += _guarded(f"criterion {k}", lambda: [criterion(track)])
    failures = track.failures
    results.append(CheckResult(
        "criterion 9", track.count > 0 and not failures,
        f"{track.count} density matrices validated across criteria 1-8, "
        f"{len(failures)} failures" + (f": {failures[:3]}" if failures else "")))
    return results


def all_checks() -> dict[str, list[CheckResult]]:
    """Every suite, keyed by the name ``verify`` prints; a suite that raises fails alone."""
    suites = {
        "state-algebra": state_algebra_checks,
        "single-mode": single_mode_checks,
        "fock-oracle": oracle_checks,
        "bath": bath_checks,
        "sweeps": sweep_checks,
        "acceptance": acceptance_checks,
    }
    return {name: _guarded(name, run) for name, run in suites.items()}
