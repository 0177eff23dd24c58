"""The command line over random argvs of its four table subcommands.

Each example calls ``cli.main`` in-process, writes to a temporary directory
and turns every warning into an error; no process is started.  Numbers are
drawn log-uniform from 1e-12 to 1e40, from [0, 5], and from the edge values
0, -0, subnormals, 1.5e-154, 1.4e154, 1e308, 1.7e308, inf, nan and -1;
amplitudes are complex values down to 1e-200.  The contract: exit 0 with
tables that ``parse_table`` reads, or exit 2 or 3 with exactly one
``error:`` line; never a traceback or a warning.  In a table every column is
finite, the concurrences lie in [0, 1] and the entropies in [0, 2] bits, and
a cell without a steady state carries the sentinel -1 and nothing else does.
"""

import contextlib
import io
import math
import warnings

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from twospinboson import cli, csvio

# Squares overflow past 1.34e154, and (2 / x)^2 and its double near 1.5e-154;
# 4e307 is just below a quarter of the largest float, where 4 alpha is finite.
_EDGES = (0.0, -0.0, 5e-324, 2.2e-308, 1.5e-154, 1.4e154, 4e307, 1e308, 1.7e308, math.inf,
          math.nan, -1.0)
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
_REQUIRED = {"omega-over-lambda", "alpha", "t-max"}
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


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=_argvs())
def test_every_argv_exits_with_a_table_or_one_error_line(tmp_path, argv):
    for path in tmp_path.iterdir():
        path.unlink()
    output = tmp_path / "out"
    argv += ([f"--output-prefix={output}"] if argv[0] == "steady-sweep"
             else [f"--output={output}.csv"])
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = cli.main(argv)
    if code == 0:
        assert err.getvalue() == ""
        names = ["_entanglement", "_thermal"] if argv[0] == "steady-sweep" else [""]
        for name in names:
            _check_table((tmp_path / f"out{name}.csv").read_text())
    else:
        assert code in (2, 3)
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
