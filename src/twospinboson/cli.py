"""Command-line front end: parameter parsing, CSV emission, verification runner.

The parser holds the paper's default grids, and :func:`_axis` is the one
place a (min, max, points) range becomes a grid; the library tables take
their grids as arrays.

Exit codes: 0 on success, 1 when a verification or oracle check fails,
2 on argument or validation errors and on an output path that cannot be
written, 3 on a numerical failure, such as a continued fraction that does
not converge or a gapped Bose series that no route certifies because
temperature/gap overflows (refused before any evaluation); 2 and 3 print a
one-line reason on stderr.  ``steady-sweep`` computes both tables before it
writes either file, so a failure leaves no file behind.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from . import __version__, checks, csvio, sweeps
from .bath import OhmicGapSpectrum
from .entanglement import QubitAmplitudes
from .single_mode import SingleModeParams, time_series

__all__ = ["build_parser", "main"]


def _parse_amplitudes(text: str) -> QubitAmplitudes:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 4:
        raise ValueError("amplitudes must be four comma-separated complex numbers")
    try:
        values = [complex(p) for p in parts]
    except ValueError:
        raise ValueError(f"could not parse amplitudes {text!r} as complex numbers") from None
    return QubitAmplitudes.normalized(*values)


def _axis(lo: float, hi: float, points: int, name: str) -> np.ndarray:
    """The one grid builder: ``points`` >= 2 evenly spaced values from lo to hi < inf."""
    if points < 2:
        raise ValueError(f"{name} needs at least 2 points, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} needs a finite min and max, got {lo:g} and {hi:g}")
    if not lo < hi:
        raise ValueError(f"{name} needs min < max, got {lo:g} and {hi:g}")
    return np.linspace(lo, hi, points)


def _parse_axis(text: str, name: str) -> np.ndarray:
    """Parse a linear sweep axis given as min:max:points."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} {text!r} must have the form min:max:points")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError(f"could not parse {name} {text!r}") from None
    return _axis(lo, hi, points, name)


def _emit(columns, metadata, output) -> None:
    if output is None:
        sys.stdout.write(csvio.render_table(columns, metadata))
    else:
        csvio.write_table(output, columns, metadata)


def _base_metadata(subcommand: str, **params) -> dict[str, object]:
    meta: dict[str, object] = {
        "tool": f"twospinboson {__version__}",
        "subcommand": subcommand,
    }
    meta.update(params)
    return meta


def _cmd_single_mode(args) -> int:
    params = SingleModeParams(args.omega_over_lambda)
    psi0 = _parse_amplitudes(args.amplitudes)
    theta_ts = _axis(0.0, args.theta_t_max, args.points, "theta-t grid")
    columns = time_series(params, psi0, theta_ts / params.theta)
    meta = _base_metadata(
        "single-mode",
        omega_over_lambda=csvio.format_value(args.omega_over_lambda),
        theta_t_max=csvio.format_value(args.theta_t_max),
        points=args.points,
        amplitudes=args.amplitudes,
        units="t in 1/lambda (hbar = 1); entropy in bits",
    )
    _emit(columns, meta, args.output)
    return 0


def _cmd_period_stats(args) -> int:
    psi0 = _parse_amplitudes(args.amplitudes)
    n_grid = _axis(args.n_min, args.n_max, args.n_points, "n grid")
    table = sweeps.commensurability_table(n_grid, psi0, args.samples)
    meta = _base_metadata(
        "period-stats",
        n_min=csvio.format_value(args.n_min),
        n_max=csvio.format_value(args.n_max),
        n_points=args.n_points,
        samples_per_period=args.samples,
        amplitudes=args.amplitudes,
        units="n = (omega / 4 lambda)^2, dimensionless; entropy in bits",
    )
    _emit(table, meta, args.output)
    return 0


def _cmd_bath_series(args) -> int:
    spec = OhmicGapSpectrum(alpha=args.alpha, omega0=args.gap,
                            temperature=args.temperature)
    psi0 = _parse_amplitudes(args.amplitudes)
    t_grid = _axis(0.0, args.t_max, args.points, "t grid")
    table = sweeps.state_series(spec, psi0, t_grid)
    meta = _base_metadata(
        "bath-series",
        alpha=csvio.format_value(args.alpha),
        gap=csvio.format_value(args.gap),
        temperature=csvio.format_value(args.temperature),
        t_max=csvio.format_value(args.t_max),
        points=args.points,
        amplitudes=args.amplitudes,
        units="t in 1/omega_c; temperature in omega_c; entropy in bits",
    )
    _emit(table, meta, args.output)
    return 0


def _cmd_steady_sweep(args) -> int:
    alphas = _parse_axis(args.alpha_grid, "alpha grid")
    gaps = _parse_axis(args.gap_grid, "gap grid")
    temperatures = _parse_axis(args.temperature_grid, "temperature grid")
    psi0 = _parse_amplitudes(args.amplitudes)

    # Both tables are computed before either file is written, so a refused
    # table leaves no output behind.
    entanglement = sweeps.steady_state_table(alphas, gaps, psi0,
                                             temperature=args.temperature)
    thermal = sweeps.thermal_overlap_table(temperatures, gaps, alpha=args.thermal_alpha)
    meta = _base_metadata(
        "steady-sweep",
        alpha_grid=args.alpha_grid,
        gap_grid=args.gap_grid,
        temperature=csvio.format_value(args.temperature),
        amplitudes=args.amplitudes,
        sentinel="-1 where has_steady_state = 0",
        units="omega0 and temperature in omega_c; entropy in bits",
    )
    meta_thermal = _base_metadata(
        "steady-sweep",
        temperature_grid=args.temperature_grid,
        gap_grid=args.gap_grid,
        alpha=csvio.format_value(args.thermal_alpha),
        sentinel="-1 where has_steady_state = 0",
        units="omega0 and temperature in omega_c",
    )
    csvio.write_table(f"{args.output_prefix}_entanglement.csv", entanglement, meta)
    csvio.write_table(f"{args.output_prefix}_thermal.csv", thermal, meta_thermal)
    print(f"wrote {args.output_prefix}_entanglement.csv and {args.output_prefix}_thermal.csv")
    return 0


def _print_results(results) -> int:
    failures = 0
    for result in results:
        print(result.line())
        failures += 0 if result.passed else 1
    return failures


def _cmd_oracle_check(args) -> int:
    results = checks.oracle_checks(tolerance=args.tolerance)
    failures = _print_results(results)
    print(f"{len(results) - failures}/{len(results)} oracle checks passed")
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    failures = 0
    total = 0
    for suite, results in checks.all_checks().items():
        print(f"== {suite} ==")
        failures += _print_results(results)
        total += len(results)
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twospinboson",
        description="Entanglement dynamics of two qubits sharing a bosonic environment.",
    )
    parser.add_argument("--version", action="version",
                        version=f"twospinboson {__version__}")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("single-mode",
                       help="time series of C, C_ideal, S and overlap for one mode")
    p.add_argument("--omega-over-lambda", type=float, required=True,
                   help="oscillator frequency in units of the coupling")
    p.add_argument("--theta-t-max", type=float, default=0.5 * math.pi,
                   help="end of the induced-phase grid (default pi/2)")
    p.add_argument("--points", type=int, default=629, help="grid points (default 629)")
    p.add_argument("--amplitudes", default="0.5,0.5,0.5,0.5",
                   help="initial amplitudes a,b,c,d (normalized on parse)")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_single_mode)

    p = sub.add_parser("period-stats",
                       help="C/S extrema and averages versus n = (omega/4 lambda)^2")
    p.add_argument("--n-min", type=float, default=0.5, help="first n (default 0.5)")
    p.add_argument("--n-max", type=float, default=12.0, help="last n (default 12)")
    p.add_argument("--n-points", type=int, default=47,
                   help="grid points (default 47: steps of 0.25)")
    p.add_argument("--samples", type=int, default=2000,
                   help="trapezoid samples per period (default 2000)")
    p.add_argument("--amplitudes", default="0.5,0.5,0.5,0.5")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_period_stats)

    p = sub.add_parser("bath-series",
                       help="bath time series of C, S, 2S/3 and exp(-gamma_R)")
    p.add_argument("--alpha", type=float, required=True, help="coupling strength")
    p.add_argument("--gap", type=float, default=0.0, help="gap omega0 (units omega_c)")
    p.add_argument("--temperature", type=float, default=0.0,
                   help="bath temperature (units omega_c)")
    p.add_argument("--t-max", type=float, required=True, help="end of the time grid")
    p.add_argument("--points", type=int, default=200)
    p.add_argument("--amplitudes", default="0.5,0.5,0.5,0.5")
    p.add_argument("--output", default=None, help="CSV path (default stdout)")
    p.set_defaults(func=_cmd_bath_series)

    p = sub.add_parser("steady-sweep",
                       help="steady-state C/S over (alpha, gap) and overlap over (T, gap)")
    p.add_argument("--alpha-grid", default="0.05:1:32", help="min:max:points")
    p.add_argument("--gap-grid", default="0:0.5:32", help="min:max:points")
    p.add_argument("--temperature-grid", default="0:2:33", help="min:max:points")
    p.add_argument("--temperature", type=float, default=0.0,
                   help="temperature for the entanglement table (default 0)")
    p.add_argument("--thermal-alpha", type=float, default=0.25,
                   help="coupling for the thermal overlap table (default 0.25)")
    p.add_argument("--amplitudes", default="0.5,0.5,0.5,0.5")
    p.add_argument("--output-prefix", default="steady_sweep")
    p.set_defaults(func=_cmd_steady_sweep)

    p = sub.add_parser("oracle-check",
                       help="closed form vs truncated-Fock propagation")
    p.add_argument("--tolerance", type=float, default=1e-7,
                   help="trace-distance bound per grid case (default 1e-7)")
    p.set_defaults(func=_cmd_oracle_check)

    p = sub.add_parser("verify", help="re-run every property suite and the acceptance criteria")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on bad arguments and 0 on --help/--version.
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
