"""Acceptance suite: the headline physics claims at their stated tolerances.

Each test prints one machine-greppable line

    PASS criterion <k>: <measured values>
    FAIL criterion <k>: <measured values>

before asserting (run pytest with ``-s`` to see the lines).  Every density
matrix constructed in criteria 1-8 is funneled through ``_track``, which
validates it and feeds the tally asserted by criterion 9.  States inside the
sweep pipelines are additionally validated upstream by
``single_mode._model_measures``, which raises on the first invalid state
with the decision and index of ``entanglement_measures``.
"""

import math

import numpy as np

from twospinboson.bath import (
    OhmicGapSpectrum,
    _quadrature_exponents,
    bath_exponents,
    bath_gamma,
    effective_coupling,
    gamma_R,
    gamma_R_infinity,
    steady_state_stats,
)
from twospinboson.entanglement import (
    QubitAmplitudes,
    concurrence,
    purity,
    validate_density,
    von_neumann_entropy,
)
from twospinboson.fock import evolve_auto, trace_distance
from twospinboson.single_mode import (
    GammaValue,
    SingleModeParams,
    gamma_single_mode,
    ideal_concurrence,
    period_stats,
    reduced_density,
)

UNIFORM = QubitAmplitudes(0.5, 0.5, 0.5, 0.5)
SEED = 20260814

# Criterion 9 tally: every density matrix produced below passes validation.
_TRACKER = {"count": 0, "failures": []}


def _track(rho):
    check = validate_density(rho)
    _TRACKER["count"] += 1
    if not check.valid:
        _TRACKER["failures"].append(check.describe())
    return rho


def _criterion(num, passed, detail):
    print(f"{'PASS' if passed else 'FAIL'} criterion {num}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def _single_mode_rho(params, psi, t):
    return reduced_density(psi, params.theta * t, gamma_single_mode(params, t))


def test_criterion_1_commensurate_maximal_entanglement():
    # omega/lambda = 4 sqrt(n): C(theta t = pi/4) = 1 and C(pi/2) = 0,
    # both within 1e-9.
    worst_peak = 0.0
    worst_zero = 0.0
    for n in (1, 2, 3, 4, 5):
        params = SingleModeParams.from_ratio(4.0 * math.sqrt(n))
        t_quarter = math.pi / (4.0 * params.theta)
        t_half = math.pi / (2.0 * params.theta)
        c_peak = concurrence(_track(_single_mode_rho(params, UNIFORM, t_quarter)))
        c_zero = concurrence(_track(_single_mode_rho(params, UNIFORM, t_half)))
        worst_peak = max(worst_peak, abs(c_peak - 1.0))
        worst_zero = max(worst_zero, abs(c_zero))
    _criterion(
        1, worst_peak <= 1e-9 and worst_zero <= 1e-9,
        f"n in 1..5: max |C(pi/4) - 1| = {worst_peak:.2e}, "
        f"max |C(pi/2)| = {worst_zero:.2e} (tol 1e-9)")


def test_criterion_2_ideal_limit_convergence():
    # omega/lambda = 100: C tracks the decoherence-free curve and the
    # entropy stays near zero over theta t in [0, pi/2).
    params = SingleModeParams.from_ratio(100.0)
    theta_ts = np.linspace(0.0, 0.5 * math.pi, 401, endpoint=False)
    gap = 0.0
    s_max = 0.0
    for theta_t in theta_ts:
        t = theta_t / params.theta
        rho = _track(_single_mode_rho(params, UNIFORM, t))
        gap = max(gap, abs(concurrence(rho) - ideal_concurrence(UNIFORM, theta_t)))
        s_max = max(s_max, von_neumann_entropy(rho))
    _criterion(
        2, gap <= 5e-3 and s_max <= 0.02,
        f"omega/lambda = 100: max |C - C_ideal| = {gap:.2e} (tol 5e-3), "
        f"max S = {s_max:.3f} bits (tol 0.02)")


def test_criterion_3_oracle_equivalence():
    # Closed form versus truncated-Fock propagation over the full
    # (omega/lambda, theta t) grid, with automatic cutoff escalation.
    ratios = (1.0, 4.0, 4.0 * math.sqrt(2.0), 4.0 * math.sqrt(3.0), 20.0)
    phases = (0.1, math.pi / 8.0, math.pi / 4.0, 1.0)
    worst = 0.0
    for ratio in ratios:
        params = SingleModeParams.from_ratio(ratio)
        for theta_t in phases:
            t = theta_t / params.theta
            exact = _track(_single_mode_rho(params, UNIFORM, t))
            numeric, _ = evolve_auto(params, UNIFORM, t)
            _track(numeric)
            worst = max(worst, trace_distance(numeric, exact))
    _criterion(
        3, worst < 1e-7,
        f"20-case grid: worst trace distance closed form vs Fock "
        f"propagation = {worst:.2e} (tol 1e-7)")


def test_criterion_4_gapless_closed_forms():
    # Closed-form gamma_R = 2 alpha ln(1 + t^2) and gamma_I = 4 alpha arctan t
    # against their defining integrals by adaptive quadrature, relative 1e-6.
    worst = 0.0
    times = (0.1, 1.0, 10.0, 100.0)
    for alpha in (0.25, 0.5):
        spec = OhmicGapSpectrum(alpha=alpha)
        gamma_rs, gamma_is, _ = bath_exponents(spec, times)
        for t, g_r, g_i in zip(times, gamma_rs, gamma_is):
            quad_r, quad_i, _ = _quadrature_exponents(spec, t)
            worst = max(worst, abs(g_r - quad_r) / quad_r, abs(g_i - quad_i) / quad_i)
    _criterion(
        4, worst <= 1e-6,
        f"alpha in {{0.25, 0.5}}, t in {{0.1, 1, 10, 100}}: worst relative "
        f"error of the closed forms vs quadrature = {worst:.2e} (tol 1e-6)")


def test_criterion_5_power_law_slope():
    # log-log slope of exp(-gamma_R) over a late-time decade equals
    # -4 alpha within 2%.
    worst_rel = 0.0
    for alpha in (0.25, 0.5):
        spec = OhmicGapSpectrum(alpha=alpha)
        times = np.geomspace(100.0, 1000.0, 9)
        gammas = np.array([gamma_R(spec, t) for t in times])
        slope = np.polyfit(np.log(times), -gammas, 1)[0]
        worst_rel = max(worst_rel, abs(slope + 4.0 * alpha) / (4.0 * alpha))
    _criterion(
        5, worst_rel <= 0.02,
        f"gapless overlap decay: worst |slope + 4 alpha| / 4 alpha = "
        f"{worst_rel:.3f} over t in [1e2, 1e3] (tol 0.02)")


def test_criterion_6_gap_protects_steady_state():
    # (omega0, alpha) = (0.1, 0.25): finite plateau with residual
    # entanglement; the gapless pipeline reports no steady state.
    spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1)
    stats = steady_state_stats(spec, UNIFORM)
    gapless = steady_state_stats(OhmicGapSpectrum(alpha=0.25), UNIFORM)

    finite = stats is not None and math.isfinite(stats.gamma_r_inf)
    # Revalidate the steady-state family of density matrices explicitly, and
    # measure its entropy with the 4x4 kernel: phase independent, and equal
    # to the structured figure.
    spread = deviation = math.inf
    if finite:
        g = GammaValue(stats.gamma_r_inf, 0.0)
        entropies = [von_neumann_entropy(_track(reduced_density(UNIFORM, float(theta_t), g)))
                     for theta_t in np.linspace(0.0, 0.5 * math.pi, 64, endpoint=False)]
        spread = max(entropies) - min(entropies)
        deviation = max(abs(s - stats.entropy) for s in entropies)
    passed = (finite
              and math.exp(-stats.gamma_r_inf) > 0.0
              and stats.c_max > 0.0
              and spread < 1e-6
              and deviation <= 1e-12
              and gapless is None)
    detail = "gapped pipeline returned no steady state"
    if finite:
        detail = (f"gamma_R(inf) = {stats.gamma_r_inf:.4f}, overlap = "
                  f"{math.exp(-stats.gamma_r_inf):.4f}, C_max = {stats.c_max:.4f}, "
                  f"kernel S spread over 64 phases = {spread:.1e} (tol 1e-6), "
                  f"max |S_kernel - S| = {deviation:.1e} (tol 1e-12); "
                  f"gapless reports none: {gapless is None}")
    _criterion(6, passed, detail)


def test_criterion_7_monotonicity_suite():
    # Trend 1: averages over a phase period versus integer n.
    c_avg = []
    s_avg = []
    for n in range(1, 11):
        params = SingleModeParams.from_ratio(4.0 * math.sqrt(n))
        stats = period_stats(params, UNIFORM, samples_per_period=2000)
        c_avg.append(stats.c_avg)
        s_avg.append(stats.s_avg)
    trend_n = (all(a <= b + 1e-12 for a, b in zip(c_avg, c_avg[1:]))
               and all(a >= b - 1e-12 for a, b in zip(s_avg, s_avg[1:])))

    # Trend 2: steady-state entanglement versus coupling at fixed gap.
    c_steady = []
    s_steady = []
    for alpha in np.linspace(0.05, 1.0, 8):
        stats = steady_state_stats(
            OhmicGapSpectrum(alpha=float(alpha), omega0=0.1), UNIFORM,
            phase_points=512)
        c_steady.append(stats.c_max)
        s_steady.append(stats.entropy)
    trend_alpha = (all(a >= b - 1e-12 for a, b in zip(c_steady, c_steady[1:]))
                   and all(a <= b + 1e-12 for a, b in zip(s_steady, s_steady[1:])))

    # Trend 3: saturated coherence versus temperature.
    overlaps = [
        math.exp(-gamma_R_infinity(OhmicGapSpectrum(alpha=0.25, omega0=0.1,
                                                    temperature=float(temp))))
        for temp in np.linspace(0.0, 2.0, 9)
    ]
    trend_temp = all(a >= b - 1e-12 for a, b in zip(overlaps, overlaps[1:]))

    _criterion(
        7, trend_n and trend_alpha and trend_temp,
        f"C_avg up / S_avg down in n: {trend_n}; C_max down / S up in alpha: "
        f"{trend_alpha}; overlap down in T: {trend_temp}")


def test_criterion_8_decoherence_free_subspace():
    # 100 random states supported on |01>, |10> stay pure in both pipelines.
    rng = np.random.default_rng(SEED)
    params = SingleModeParams(omega=1.0, coupling=1.0)
    bath_spec = OhmicGapSpectrum(alpha=0.25, omega0=0.1)
    theta = effective_coupling(bath_spec)
    bath_times = rng.uniform(0.1, 20.0, size=10)
    bath_gammas = [bath_gamma(bath_spec, float(t)) for t in bath_times]

    worst_s = 0.0
    worst_p = 0.0
    for k in range(100):
        b, c = rng.normal(size=2) + 1j * rng.normal(size=2)
        psi = QubitAmplitudes.normalized(0.0, b, c, 0.0)

        t_mode = float(rng.uniform(0.0, 20.0))
        rho = _track(_single_mode_rho(params, psi, t_mode))
        worst_s = max(worst_s, von_neumann_entropy(rho))
        worst_p = max(worst_p, abs(purity(rho) - 1.0))

        t_bath = float(bath_times[k % 10])
        g = bath_gammas[k % 10]
        rho = _track(reduced_density(psi, theta * t_bath,
                                     GammaValue(g.gamma_r, g.gamma_i)))
        worst_s = max(worst_s, von_neumann_entropy(rho))
        worst_p = max(worst_p, abs(purity(rho) - 1.0))
    _criterion(
        8, worst_s < 1e-10 and worst_p <= 1e-10,
        f"100 random a = d = 0 states, single-mode and bath: max S = "
        f"{worst_s:.2e}, max |purity - 1| = {worst_p:.2e} (tol 1e-10)")


def test_criterion_9_density_validity_everywhere():
    # Tracked matrices from criteria 1-8 all passed validation; states built
    # inside sweep pipelines are validated upstream on construction.
    count = _TRACKER["count"]
    failures = _TRACKER["failures"]
    _criterion(
        9, count > 0 and not failures,
        f"{count} density matrices validated across criteria 1-8, "
        f"{len(failures)} failures" + (f": {failures[:3]}" if failures else ""))
