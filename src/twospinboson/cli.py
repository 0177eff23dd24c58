"""Command-line front end: parameter parsing, CSV emission, verification runner.

:data:`_COMMANDS` is the one table of subcommands and their options, and
its defaults are the paper's grids; :func:`main` parses one subcommand's
options from it with :func:`getopt.getopt` (long options, ``--opt value`` or
``--opt=value``, unique prefixes) and builds ``--help`` from it too.
:func:`_axis` is the one place a (min, max, points) range becomes a grid;
the library tables take their grids as arrays.  ``verify`` and
``oracle-check`` import :mod:`twospinboson.checks` when they run, so
start-up does not load it or the quadrature oracle.

Exit codes: 0 on success, 1 when a verification or oracle check fails,
2 on argument or validation errors, on an output path that cannot be
written, and on a MemoryError (an array too large to allocate), 3 on a
numerical failure, such as a gapped Bose series that no route certifies
because temperature/gap overflows (refused before any evaluation); 2 and 3
print a one-line reason on stderr.  A run whose pages run out after they
were allocated can still be ended by the kernel's OOM killer (ROADMAP item
4).  Argument errors come before numerical failures: ``steady-sweep`` checks
both tables' arguments, then computes both tables in one Bose-series pass
(:func:`~twospinboson.sweeps.steady_sweep_tables`), and only then writes
the files, so a refused or failed computation writes neither file; a write
error on the second file leaves the first one complete.
"""

from __future__ import annotations

import getopt
import math
import sys
import types

import numpy as np

from . import __version__, csvio, sweeps
from .bath import OhmicGapSpectrum
from .single_mode import QubitAmplitudes, SingleModeParams, time_series

__all__ = ["main"]


def _parse_amplitudes(text: str) -> QubitAmplitudes:
    parts = [p.strip() for p in csvio.require_one_line(text, "amplitudes").split(",")]
    if len(parts) != 4:
        raise ValueError("amplitudes must be four comma-separated complex numbers")
    try:
        values = [complex(p) for p in parts]
    except ValueError:
        raise ValueError(f"could not parse amplitudes {text!r} as complex numbers") from None
    return QubitAmplitudes.normalized(*values)


def _axis(lo: float, hi: float, points: int, name: str) -> np.ndarray:
    """The one grid builder: ``points`` >= 2 evenly spaced values from lo to hi < inf.

    Every grid of every subcommand comes from here, with the bits of
    ``np.linspace(lo, hi, points)``: lo + k step with step = (hi - lo) /
    (points - 1), or (k / (points - 1)) (hi - lo) where that step rounds to 0,
    and the last point hi itself.  A span hi - lo that overflows is refused.
    """
    if points < 2:
        raise ValueError(f"{name} needs at least 2 points, got {points}")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"{name} needs a finite min and max, got {lo:g} and {hi:g}")
    if not lo < hi:
        raise ValueError(f"{name} needs min < max, got {lo:g} and {hi:g}")
    span = hi - lo
    if not math.isfinite(span):
        raise ValueError(f"{name} span max - min overflows, got {lo:g} and {hi:g}")
    div = points - 1
    step = span / div
    grid = np.arange(points, dtype=float)
    if step == 0.0:
        grid /= div
        grid *= span
    else:
        grid *= step
    grid += lo
    grid[-1] = hi
    return grid


def _parse_axis(text: str, name: str) -> np.ndarray:
    """Parse a linear sweep axis given as min:max:points."""
    parts = csvio.require_one_line(text, name).split(":")
    if len(parts) != 3:
        raise ValueError(f"{name} {text!r} must have the form min:max:points")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        points = int(parts[2])
    except ValueError:
        raise ValueError(f"could not parse {name} {text!r}") from None
    return _axis(lo, hi, points, name)


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
    # The grid ends at theta-t-max exactly, so its quotient is the largest time.
    if not math.isfinite(args.theta_t_max / params.theta):
        raise ValueError(
            f"t = theta t / theta = {args.theta_t_max:g} / {params.theta:g} overflows")
    columns = time_series(params, psi0, theta_ts / params.theta)
    meta = _base_metadata(
        "single-mode",
        omega_over_lambda=csvio.format_value(args.omega_over_lambda),
        theta_t_max=csvio.format_value(args.theta_t_max),
        points=args.points,
        amplitudes=args.amplitudes,
        units="t in 1/lambda (hbar = 1); entropy in bits",
    )
    csvio.write_table(args.output, columns, meta)
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
    csvio.write_table(args.output, table, meta)
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
    csvio.write_table(args.output, table, meta)
    return 0


def _cmd_steady_sweep(args) -> int:
    alphas = _parse_axis(args.alpha_grid, "alpha grid")
    gaps = _parse_axis(args.gap_grid, "gap grid")
    temperatures = _parse_axis(args.temperature_grid, "temperature grid")
    psi0 = _parse_amplitudes(args.amplitudes)

    # Both tables are computed before either file is written, so a refused
    # table leaves no output behind.
    entanglement, thermal = sweeps.steady_sweep_tables(
        alphas, gaps, temperatures, psi0,
        temperature=args.temperature, thermal_alpha=args.thermal_alpha)
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
    from . import checks

    results = checks.oracle_checks(tolerance=args.tolerance)
    failures = _print_results(results)
    print(f"{len(results) - failures}/{len(results)} oracle checks passed")
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    from . import checks

    failures = 0
    total = 0
    for suite, results in checks.all_checks().items():
        print(f"== {suite} ==")
        failures += _print_results(results)
        total += len(results)
    print(f"{total - failures}/{total} checks passed")
    return 1 if failures else 0


def _show(text: str) -> int:
    sys.stdout.write(text)
    return 0


# Default of an option that must be given.
_REQUIRED = object()
_AMPLITUDES = ("amplitudes", str, "0.5,0.5,0.5,0.5",
               "initial amplitudes a,b,c,d, normalized on parse")
_OUTPUT = ("output", str, None, "CSV path (stdout if not given)")

# Subcommand -> (handler, help, options); an option is (name, type, default,
# help), and the defaults are the paper's grids.
_COMMANDS = {
    "single-mode": (_cmd_single_mode, "time series of C, C_ideal, S and overlap for one mode", (
        ("omega-over-lambda", float, _REQUIRED, "oscillator frequency in units of the coupling"),
        ("theta-t-max", float, 0.5 * math.pi, "end of the induced-phase grid, pi/2"),
        ("points", int, 629, "grid points"),
        _AMPLITUDES,
        _OUTPUT,
    )),
    "period-stats": (_cmd_period_stats,
                     "C/S extrema and averages versus n = (omega/4 lambda)^2", (
        ("n-min", float, 0.5, "first n"),
        ("n-max", float, 12.0, "last n"),
        ("n-points", int, 47, "grid points, steps of 0.25 by default"),
        ("samples", int, 2000, "trapezoid samples per period"),
        _AMPLITUDES,
        _OUTPUT,
    )),
    "bath-series": (_cmd_bath_series, "bath time series of C, S, 2S/3 and exp(-gamma_R)", (
        ("alpha", float, _REQUIRED, "coupling strength"),
        ("gap", float, 0.0, "gap omega0 (units omega_c)"),
        ("temperature", float, 0.0, "bath temperature (units omega_c)"),
        ("t-max", float, _REQUIRED, "end of the time grid"),
        ("points", int, 200, "grid points"),
        _AMPLITUDES,
        _OUTPUT,
    )),
    "steady-sweep": (_cmd_steady_sweep,
                     "steady-state C/S over (alpha, gap) and overlap over (T, gap)", (
        ("alpha-grid", str, "0.05:1:32", "min:max:points"),
        ("gap-grid", str, "0:0.5:32", "min:max:points"),
        ("temperature-grid", str, "0:2:33", "min:max:points"),
        ("temperature", float, 0.0, "temperature for the entanglement table"),
        ("thermal-alpha", float, 0.25, "coupling for the thermal overlap table"),
        _AMPLITUDES,
        ("output-prefix", str, "steady_sweep",
         "the tables go to PREFIX_entanglement.csv and PREFIX_thermal.csv"),
    )),
    "oracle-check": (_cmd_oracle_check, "closed form vs truncated-Fock propagation", (
        ("tolerance", float, 1e-7, "trace-distance bound per grid case"),
    )),
    "verify": (_cmd_verify, "re-run every property suite and the acceptance criteria", ()),
}


def _rows(pairs) -> str:
    width = max(len(left) for left, _ in pairs)
    return "".join(f"  {left:<{width}}  {right}\n" for left, right in pairs)


def _help(command: str | None = None) -> str:
    """Help text built from :data:`_COMMANDS`: the subcommands, or one subcommand's options."""
    if command is None:
        return ("usage: twospinboson [-h] [--version] COMMAND [options]\n\n"
                "Entanglement dynamics of two qubits sharing a bosonic environment.\n\n"
                "commands:\n"
                + _rows([(name, text) for name, (_, text, _) in _COMMANDS.items()])
                + "\nRun 'twospinboson COMMAND --help' for the options of one command.\n")
    _, text, options = _COMMANDS[command]
    rows = [("-h, --help", "show this help and exit")]
    for name, kind, default, about in options:
        if default is _REQUIRED:
            about += " (required)"
        elif default is not None:
            about += f" (default: {default})"
        rows.append((f"--{name} {kind.__name__.upper()}", about))
    return f"usage: twospinboson {command} [options]\n\n{text}\n\noptions:\n{_rows(rows)}"


def _parse(argv: list[str]):
    """The handler for ``argv`` and its argument; raises on a bad command line.

    The handler is a ``_cmd_*`` function with a namespace that holds every
    option of its subcommand, or :func:`_show` with the help or version text.
    """
    opts, rest = getopt.getopt(argv, "h", ["help", "version"])
    if opts:
        return _show, f"twospinboson {__version__}\n" if opts[0][0] == "--version" else _help()
    choices = ", ".join(_COMMANDS)
    if not rest:
        raise ValueError(f"no command given (choose from {choices})")
    command, *rest = rest
    if command not in _COMMANDS:
        raise ValueError(f"unknown command {command!r} (choose from {choices})")
    handler, _, options = _COMMANDS[command]
    opts, rest = getopt.getopt(rest, "h", ["help", *(f"{option[0]}=" for option in options)])
    if rest:
        raise ValueError(f"unexpected argument {rest[0]!r}")
    given = dict(opts)
    if "-h" in given or "--help" in given:
        return _show, _help(command)
    values = {}
    missing = []
    for name, kind, default, _ in options:
        text = given.get(f"--{name}")
        if text is None:
            if default is _REQUIRED:
                missing.append(f"--{name}")
            values[name.replace("-", "_")] = default
            continue
        try:
            values[name.replace("-", "_")] = kind(text)
        except ValueError:
            raise ValueError(f"invalid {kind.__name__} value for --{name}: {text!r}") from None
    if missing:
        raise ValueError(f"{command} needs {' and '.join(missing)}")
    return handler, types.SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
        return handler(args)
    except (getopt.GetoptError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
