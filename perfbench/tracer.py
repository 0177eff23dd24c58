"""Span recording around the package's layer functions, installed from outside.

Modules import these functions by name, so each traced function is wrapped
once and the wrapper is assigned to every ``twospinboson`` module attribute
that holds the original; patching only the defining module would miss those
calls.  Spans stay in memory as ``[name, start, end, parent, counts]`` and
the caller writes them out when the invocation ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
from time import perf_counter

MARKER = "_perfbench_span"
PACKAGE = "twospinboson"

# Span name ("module.function" in the package) -> (parameters the counter
# reads, counter(arguments, result) -> counts).  Counters run after the span
# ends and cost O(1).  render_table output is ASCII, so characters = bytes.
TRACED = {
    "cli.main": None,
    "sweeps.steady_state_table": None,
    "sweeps.thermal_overlap_table": None,
    "sweeps.state_series": None,
    "single_mode.time_series": None,
    "bath.steady_state_stats": None,
    "bath.bath_gamma": None,
    "bath.gamma_R_infinity": None,
    "quadrature.integrate_decaying": ((), lambda a, result: {"accepted": 1}),
    "quadrature.composite_gauss": (
        ("n_panels",), lambda a, result: {"panels": int(a["n_panels"])}),
    "entanglement.entanglement_measures": (
        ("rhos",), lambda a, result: {"matrices": math.prod(a["rhos"].shape[:-2])}),
    "csvio.render_table": (
        ("columns",), lambda a, result: {"rows": len(next(iter(a["columns"].values()))),
                                         "bytes": len(result)}),
    "csvio.write_table": None,
}


def _argument_reader(fn, names):
    """Map the named parameters of one call to their values, defaults included."""
    parameters = inspect.signature(fn).parameters
    positions = {name: list(parameters).index(name) for name in names}

    def read(args, kwargs):
        values = {}
        for name, index in positions.items():
            if name in kwargs:
                values[name] = kwargs[name]
            elif index < len(args):
                values[name] = args[index]
            else:
                values[name] = parameters[name].default
        return values

    return read


class Tracer:
    """Wraps the functions in ``TRACED`` and records one span per call."""

    def __init__(self):
        self.spans: list[list] = []
        self.missing: list[str] = []  # traced functions absent from the package
        self.uncounted: list[str] = []  # present, but a counter's parameter is gone
        self._stack: list[int] = []

    def _wrap(self, name, fn, counter):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if counter is not None:
                read, count = counter
                span[4] = count(read(args, kwargs), result)
            return result

        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self) -> None:
        """Patch every package module that holds a traced function."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]
        for name, spec in TRACED.items():
            module_name, _, function_name = name.rpartition(".")
            try:
                module = importlib.import_module(f"{PACKAGE}.{module_name}")
            except ImportError:
                self.missing.append(name)
                continue
            fn = getattr(module, function_name, None)
            if not callable(fn):
                self.missing.append(name)
                continue
            counter = None
            if spec is not None:
                params, count = spec
                if set(params) <= set(inspect.signature(fn).parameters):
                    counter = (_argument_reader(fn, params), count)
                else:
                    self.uncounted.append(name)
            wrapper = self._wrap(name, fn, counter)
            for holder in modules:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapper)


def patched_sites() -> list[str]:
    """Every ``module.attribute`` in the package that currently holds a wrapper."""
    return sorted(
        f"{key}.{attr}"
        for key, module in list(sys.modules.items())
        if module is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        for attr, value in vars(module).items()
        if hasattr(value, MARKER)
    )
