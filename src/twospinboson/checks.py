"""Property suites behind the ``verify`` and ``oracle-check`` subcommands.

Each suite exercises invariants that hold for every parameter choice:
measure ranges, local-unitary invariance, decoherence-free subspace
protection, revivals, closed-form limits of the bath integrals and the
agreement between the closed-form reduced dynamics and truncated-Fock
propagation.  Randomized checks draw from a fixed seed so runs are
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bath, fock, single_mode, sweeps
from .entanglement import (
    QubitAmplitudes,
    concurrence,
    pure_concurrence,
    purity,
    validate_density,
    von_neumann_entropy,
)
from .single_mode import SingleModeParams, gamma_single_mode

__all__ = [
    "CheckResult",
    "ORACLE_GRID_RATIOS",
    "ORACLE_GRID_PHASES",
    "state_algebra_checks",
    "single_mode_checks",
    "oracle_checks",
    "bath_checks",
    "sweep_checks",
    "all_checks",
]

DEFAULT_SEED = 20260814

# sigma_y (x) sigma_y, built here from sigma_y so that the reference route
# below shares nothing with the kernel's sign pattern.
_SIGMA_Y = np.array([[0.0, -1j], [1j, 0.0]])
_SPIN_FLIP = np.kron(_SIGMA_Y, _SIGMA_Y).real

# Equivalence grid: weak through strong coupling crossed with phases up to a
# full revival.
ORACLE_GRID_RATIOS = (1.0, 4.0, 4.0 * math.sqrt(2.0), 4.0 * math.sqrt(3.0), 20.0)
ORACLE_GRID_PHASES = (0.1, math.pi / 8.0, math.pi / 4.0, 1.0)


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


def _random_local_unitary(rng) -> np.ndarray:
    out = []
    for _ in range(2):
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, r = np.linalg.qr(g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
        out.append(q)
    return np.kron(out[0], out[1])


def state_algebra_checks(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Ranges, invariances and cross-checks of concurrence and entropy."""
    rng = np.random.default_rng(seed)
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


def single_mode_checks(seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Revivals, decoherence-free subspace, validity and commensuration."""
    rng = np.random.default_rng(seed + 1)
    results = []

    all_valid = True
    for _ in range(25):
        params = SingleModeParams(omega=float(rng.uniform(0.5, 20.0)))
        t = float(rng.uniform(0.0, 20.0))
        rho = single_mode.reduced_density(_random_pure(rng), params.theta * t,
                                          gamma_single_mode(params, t))
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
        rho = single_mode.reduced_density(psi, params.theta * t,
                                          gamma_single_mode(params, t))
        diff = abs(concurrence(rho) - single_mode.ideal_concurrence(psi, params.theta * t))
        worst_revival = max(worst_revival, diff, von_neumann_entropy(rho))
    results.append(CheckResult(
        "full-period revival", worst_revival <= 1e-10,
        f"max |C - C_ideal| and S at omega t = 2 pi k: {worst_revival:.2e}"))

    worst_dfs = 0.0
    for _ in range(25):
        params = SingleModeParams(omega=float(rng.uniform(0.5, 10.0)))
        t = float(rng.uniform(0.0, 50.0))
        b, c = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = QubitAmplitudes.normalized(0.0, b, c, 0.0)
        rho = single_mode.reduced_density(psi, params.theta * t,
                                          gamma_single_mode(params, t))
        worst_dfs = max(worst_dfs, von_neumann_entropy(rho), abs(purity(rho) - 1.0))
    results.append(CheckResult(
        "decoherence-free subspace", worst_dfs <= 1e-10,
        f"max S and |purity - 1| for a = d = 0 states: {worst_dfs:.2e}"))

    worst_comm = 0.0
    for n in range(1, 6):
        stats = single_mode.period_stats(SingleModeParams.from_ratio(4.0 * math.sqrt(n)),
                                         QubitAmplitudes.uniform())
        worst_comm = max(worst_comm, abs(stats.c_max - 1.0))
    results.append(CheckResult(
        "commensurate recovery", worst_comm <= 1e-6,
        f"max |c_max - 1| for n = 1..5: {worst_comm:.2e}"))

    worst_gamma = 0.0
    for _ in range(25):
        params = SingleModeParams(omega=float(rng.uniform(0.5, 10.0)))
        t = float(rng.uniform(0.0, 10.0))
        g1 = gamma_single_mode(params, t)
        g2 = gamma_single_mode(params, t + 2.0 * math.pi / params.omega)
        alpha = single_mode.coherent_amplitude(params, t)
        worst_gamma = max(worst_gamma,
                          abs(g1.gamma_r - g2.gamma_r), abs(g1.gamma_i - g2.gamma_i),
                          abs(abs(alpha) ** 2 - 2.0 * g1.gamma_r))
    results.append(CheckResult(
        "gamma periodicity and displacement", worst_gamma <= 1e-10,
        f"max periodicity defect and ||alpha|^2 - 2 gamma_r|: {worst_gamma:.2e}"))
    return results


def oracle_checks(tolerance: float = 1e-7, seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Closed form versus truncated-Fock propagation on the equivalence grid."""
    if not tolerance > 0.0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    rng = np.random.default_rng(seed + 2)
    results = []
    worst = 0.0
    for ratio in ORACLE_GRID_RATIOS:
        params = SingleModeParams.from_ratio(ratio)
        for phase in ORACLE_GRID_PHASES:
            t = phase / params.theta
            for label, psi in (("uniform", QubitAmplitudes.uniform()),
                               ("random", _random_pure(rng))):
                closed = single_mode.reduced_density(psi, params.theta * t,
                                                     gamma_single_mode(params, t))
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

    # The closed forms against their defining integrals by quadrature.
    times = (0.1, 1.0, 10.0, 100.0)
    worst_rel = 0.0
    worst_abs = 0.0
    for spec in (bath.OhmicGapSpectrum(alpha=0.25), bath.OhmicGapSpectrum(alpha=0.5),
                 bath.OhmicGapSpectrum(alpha=0.25, temperature=0.5),
                 bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1)):
        gamma_rs, gamma_is, _ = bath.bath_exponents(spec, times)
        for t, g_r, g_i in zip(times, gamma_rs, gamma_is):
            quad_r, quad_i, _ = bath._quadrature_exponents(spec, t)
            if spec.omega0 == 0.0 and spec.temperature == 0.0:
                worst_rel = max(worst_rel, abs(g_r / quad_r - 1.0), abs(g_i / quad_i - 1.0))
            else:
                worst_abs = max(worst_abs, abs(g_r - quad_r), abs(g_i - quad_i))
    results.append(CheckResult(
        "gapless closed forms", worst_rel <= 1e-6,
        f"worst relative error {worst_rel:.2e} of 2a ln(1+t^2), 4a atan(t) against quadrature"))
    results.append(CheckResult(
        "thermal and gapped closed forms", worst_abs <= 1e-9,
        f"worst absolute error {worst_abs:.2e} of the ln Gamma and E1 forms against quadrature"))

    spec = bath.OhmicGapSpectrum(alpha=0.25)
    ts = np.geomspace(100.0, 1000.0, 9)
    logs = np.log([math.exp(-bath.gamma_R(spec, float(t))) for t in ts])
    slope = np.polyfit(np.log(ts), logs, 1)[0]
    results.append(CheckResult(
        "gapless power-law decay", abs(slope / (-4.0 * spec.alpha) - 1.0) <= 0.02,
        f"log-log slope {slope:.4f} vs -4 alpha = {-4.0 * spec.alpha}"))

    sat = bath.gamma_I(spec, 1000.0)
    rel = abs(sat / (2.0 * math.pi * spec.alpha) - 1.0)
    results.append(CheckResult(
        "gamma_I saturation", rel <= 1e-3,
        f"gamma_I(1000) = {sat:.6f}, 2 pi alpha = {2.0 * math.pi * spec.alpha:.6f}"))

    thermal = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=0.5)
    g_r1, g_i1, e1 = bath._quadrature_exponents(thermal, 7.3)
    g_r2, g_i2, _ = bath._quadrature_exponents(thermal, 7.3, abs_tol=0.5e-10)
    moved = abs(g_r2 - g_r1) + abs(g_i2 - g_i1)
    results.append(CheckResult(
        "quadrature self-consistency", moved <= e1 + 1e-14,
        f"tolerance halving moved gamma_R, gamma_I by {moved:.2e}, estimate {e1:.2e}"))

    gapped = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1)
    omegas, couplings_sq = bath.discretize_modes(gapped)
    worst_disc = 0.0
    for t in (0.5, 2.0, 5.0, 10.0):
        discrete = 4.0 * float(np.sum(couplings_sq * np.sin(omegas * t) / omegas**2))
        worst_disc = max(worst_disc, abs(discrete / bath.gamma_I(gapped, t) - 1.0))
    results.append(CheckResult(
        "200-mode discretization", worst_disc <= 1e-3,
        f"worst relative gamma_I mismatch {worst_disc:.2e} for t <= 10"))

    cold = bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=1e-6)
    rel_cold = abs(bath.gamma_R(cold, 5.0) / bath.gamma_R(gapped, 5.0) - 1.0)
    results.append(CheckResult(
        "cold bath matches zero temperature", rel_cold <= 1e-4,
        f"relative difference {rel_cold:.2e} at T = 1e-6"))

    plateaus = [bath.gamma_R_infinity(
        bath.OhmicGapSpectrum(alpha=0.25, omega0=0.1, temperature=temp))
        for temp in (0.0, 0.5, 1.0, 2.0)]
    monotone_t = all(b >= a - 1e-12 for a, b in zip(plateaus, plateaus[1:]))
    results.append(CheckResult(
        "heating suppresses the plateau", monotone_t,
        f"gamma_R(inf) over T = 0, 0.5, 1, 2: {[f'{p:.4f}' for p in plateaus]}"))

    by_gap = [bath.gamma_R_infinity(bath.OhmicGapSpectrum(alpha=0.25, omega0=gap))
              for gap in (0.01, 0.05, 0.1, 0.2)]
    monotone_gap = all(b <= a + 1e-12 for a, b in zip(by_gap, by_gap[1:]))
    results.append(CheckResult(
        "wider gap preserves coherence", monotone_gap,
        f"gamma_R(inf) over omega0 = 0.01, 0.05, 0.1, 0.2: {[f'{p:.4f}' for p in by_gap]}"))

    stats = bath.steady_state_stats(gapped, QubitAmplitudes.uniform())
    gapless_stats = bath.steady_state_stats(spec, QubitAmplitudes.uniform())
    ok = (stats is not None and stats.entropy_variation < 1e-6 and stats.c_max > 0.0
          and gapless_stats is None)
    detail = "gapless reports no steady state; "
    if stats is not None:
        detail += (f"gapped c_max={stats.c_max:.4f}, "
                   f"entropy variation {stats.entropy_variation:.2e}")
    results.append(CheckResult("steady-state detection", ok, detail))
    return results


def sweep_checks() -> list[CheckResult]:
    """Determinism and sentinel policy of the sweep tables."""
    results = []

    t1 = sweeps.commensurability_table(1.0, 3.0, 3, samples_per_period=400)
    t2 = sweeps.commensurability_table(1.0, 3.0, 3, samples_per_period=400)
    identical = all(np.array_equal(t1[k], t2[k]) for k in t1)
    results.append(CheckResult(
        "sweep determinism", identical,
        "repeated commensurability sweep is bitwise identical"))

    table = sweeps.steady_state_table(alphas=np.array([0.2, 0.6]),
                                      gaps=np.array([0.0, 0.1]),
                                      phase_points=256)
    gapless_rows = table["omega0"] == 0.0
    sentinel_ok = (np.all(table["has_steady_state"][gapless_rows] == 0.0)
                   and np.all(table["c_max_steady"][gapless_rows] == sweeps.NO_STEADY_STATE)
                   and np.all(table["has_steady_state"][~gapless_rows] == 1.0)
                   and np.all(table["c_max_steady"][~gapless_rows] >= 0.0))
    results.append(CheckResult(
        "steady-state sentinels", sentinel_ok,
        "gapless cells carry -1 with has_steady_state = 0, gapped cells are physical"))
    return results


def all_checks(seed: int = DEFAULT_SEED) -> dict[str, list[CheckResult]]:
    """Every suite, keyed by module name."""
    return {
        "state-algebra": state_algebra_checks(seed),
        "single-mode": single_mode_checks(seed),
        "fock-oracle": oracle_checks(seed=seed),
        "bath": bath_checks(),
        "sweeps": sweep_checks(),
    }
