"""The command line over random argvs of its four table subcommands.

Each example calls ``cli.main`` in-process, writes to a temporary directory
and turns every warning into an error; no process is started.  Numbers are
drawn log-uniform from 1e-12 to 1e40, from [0, 5], and from the edge values
0, -0, subnormals, 1.5e-154, 1.4e154, 1e308, 1.7e308, inf, nan, -1 and -1.7e308;
amplitudes are complex values down to 1e-200.  The contract: exit 0 with
tables that ``parse_table`` reads, or exit 2 or 3 with exactly one
``error:`` line, nothing on stdout and no file left behind; never a traceback
or a warning.  :func:`check_cli` checks it, for the refusal table of
``test_cli.py`` too.  In a table every column is finite, the concurrences lie
in [0, 1] and the entropies in [0, 2] bits, and a cell without a steady state
carries the sentinel -1 and nothing else does.

The tier-1 test draws 300 derandomized argvs.  Run as a script, the module
draws argvs from a given seed with no example database, through the same
contract check::

    python tests/test_cli_fuzz.py --seed 12345
"""

import argparse
import contextlib
import io
import math
import os
import tempfile
import warnings
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

from twospinboson import cli, csvio

# Squares overflow past 1.34e154, and (2 / x)^2 and its double near 1.5e-154;
# 4e307 is just below a quarter of the largest float, where 4 alpha is finite;
# max - min overflows from -1.7e308 to 1e308 and past.
_EDGES = (0.0, -0.0, 5e-324, 2.2e-308, 1.5e-154, 1.4e154, 4e307, 1e308, 1.7e308, math.inf,
          math.nan, -1.0, -1.7e308)
_NUMBERS = st.one_of(st.floats(-12.0, 40.0).map(lambda e: 10.0 ** e), st.floats(0.0, 5.0),
                     st.sampled_from(_EDGES))
_PARTS = st.one_of(st.just(0.0), st.floats(-200.0, 2.0).map(lambda e: 10.0 ** e),
                   st.floats(-1.0, 1.0))


def _number():
    return _NUMBERS.map(repr)


def _count(low, high):
    # Mostly valid counts, and each refused one now and then.
    return (st.integers(max(low, 2), high) | st.integers(low, high)).map(str)


def _ordered(pair):
    return tuple(sorted(pair)) if not any(map(math.isnan, pair)) else pair


def _axis():
    bounds = st.tuples(_NUMBERS, _NUMBERS)
    return st.tuples(bounds.map(_ordered) | bounds, st.integers(-1, 4)).map(
        lambda v: f"{v[0][0]!r}:{v[0][1]!r}:{v[1]}")


def _amplitudes():
    return st.lists(st.tuples(_PARTS, _PARTS), min_size=4, max_size=4).map(
        lambda parts: ",".join(repr(complex(re, im)) for re, im in parts))


# Subcommand -> its options; each is given or left at its default, but the
# required ones (omega-over-lambda, alpha and t-max) are always given.
_REQUIRED = {name for _, _, options in cli._COMMANDS.values()
             for name, _, default, _ in options if default is cli._REQUIRED}
_OPTIONS = {
    "single-mode": {"omega-over-lambda": _number(), "theta-t-max": _number(),
                    "points": _count(-1, 6), "amplitudes": _amplitudes()},
    "period-stats": {"n-min": _number(), "n-max": _number(), "n-points": _count(-1, 4),
                     "samples": _count(99, 150), "amplitudes": _amplitudes()},
    "bath-series": {"alpha": _number(), "gap": _number(), "temperature": _number(),
                    "t-max": _number(), "points": _count(-1, 6), "amplitudes": _amplitudes()},
    "steady-sweep": {"alpha-grid": _axis(), "gap-grid": _axis(), "temperature-grid": _axis(),
                     "temperature": _number(), "thermal-alpha": _number(),
                     "amplitudes": _amplitudes()},
}


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for name, values in _OPTIONS[command].items():
        value = draw(values if name in _REQUIRED else st.none() | values)
        if value is not None:
            argv.append(f"--{name}={value}")
    return argv


# Column -> (low, high) of its values in a table; the steady tables' cells
# without a steady state hold -1 instead.
_RANGES = {
    "concurrence": (0.0, 1.0), "ideal_concurrence": (0.0, 1.0), "c_max": (0.0, 1.0),
    "c_avg": (0.0, 1.0), "c_max_steady": (0.0, 1.0),
    "entropy": (0.0, 2.0), "s_max": (0.0, 2.0), "s_avg": (0.0, 2.0), "s_steady": (0.0, 2.0),
    "entropy_scaled": (0.0, 4.0 / 3.0), "overlap": (0.0, 1.0), "overlap_infinity": (0.0, 1.0),
}
_SENTINEL_COLUMNS = {"c_max_steady", "s_steady", "overlap_infinity"}


def _check_table(text):
    columns, _ = csvio.parse_table(text)
    rows = len(next(iter(columns.values())))
    assert rows > 0
    steady = columns.get("has_steady_state", np.ones(rows))
    assert np.all((steady == 0.0) | (steady == 1.0))
    for name, values in columns.items():
        assert np.all(np.isfinite(values)), name
        if name in _SENTINEL_COLUMNS:
            assert np.all(values[steady == 0.0] == -1.0), name
            values = values[steady == 1.0]
        low, high = _RANGES.get(name, (-math.inf, math.inf))
        assert np.all((values >= low) & (values <= high)), (name, values)


def check_cli(argv, workdir: Path, code=None, reason=None) -> int:
    """Run ``cli.main(argv)`` in ``workdir``, every warning an error, and check its contract.

    An exit of 0, when ``code`` is None, must print nothing to stderr.  Any
    other exit is a refusal: the code must be ``code`` (2 or 3 when None),
    stdout empty, stderr the one line ``error: <reason>`` (any one ``error:``
    line when ``reason`` is None), and ``workdir`` left empty.  Returns the
    exit code.
    """
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("error")
            status = cli.main(list(argv))
    finally:
        os.chdir(cwd)
    if status == 0 and code is None:
        assert err.getvalue() == ""
        return status
    assert status == code if code is not None else status in (2, 3)
    assert out.getvalue() == ""
    if reason is not None:
        assert err.getvalue() == f"error: {reason}\n"
    else:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
    assert list(workdir.iterdir()) == []
    return status


def check_argv(argv, workdir: Path) -> None:
    """Run ``argv`` with its output in ``workdir`` through :func:`check_cli`, and check its tables."""
    for path in workdir.iterdir():
        path.unlink()
    output = workdir / "out"
    argv = argv + ([f"--output-prefix={output}"] if argv[0] == "steady-sweep"
                   else [f"--output={output}.csv"])
    if check_cli(argv, workdir) == 0:
        names = ["_entanglement", "_thermal"] if argv[0] == "steady-sweep" else [""]
        for name in names:
            _check_table((workdir / f"out{name}.csv").read_text())


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_every_argv_exits_with_a_table_or_one_error_line(tmp_path, argv):
    check_argv(argv, tmp_path)


def test_options_are_every_table_option():
    # A new option of a table subcommand must be fuzzed too; the output
    # paths are the ones check_argv sets.
    outputs = {"output", "output-prefix"}
    tables = {command: {option[0] for option in options} - outputs
              for command, (_, _, options) in cli._COMMANDS.items()
              if outputs & {option[0] for option in options}}
    assert len(tables) == 4
    assert {command: set(options) for command, options in _OPTIONS.items()} == tables


_FUZZ_EXAMPLES = 600


def fuzz(seed_value: int) -> None:
    """Check ``_FUZZ_EXAMPLES`` argvs drawn from ``seed_value``, keeping no example database."""
    with tempfile.TemporaryDirectory() as workdir:
        @seed(seed_value)
        @settings(max_examples=_FUZZ_EXAMPLES, deadline=None, database=None)
        @given(argv=_argvs())
        def run(argv):
            check_argv(argv, Path(workdir))

        run()


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Fuzz the command line at one seed.")
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    print(f"fuzz seed {args.seed}, {_FUZZ_EXAMPLES} examples", flush=True)
    fuzz(args.seed)
