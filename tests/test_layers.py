"""The layer rule: the oracles share no code with the model they check.

The model layer computes every table; the oracle layer checks it.  An oracle
imports from the model only input types, the amplitude check and the
validity thresholds, and no model module imports an oracle (or the check
registry) at module level, so importing the package or the CLI loads none.
The rule is read from the sources with ``ast``, without importing them.
"""

import ast
from pathlib import Path

import pytest

import twospinboson

PACKAGE = Path(twospinboson.__file__).parent
ORACLES = {"entanglement", "fock", "quadrature"}
MODEL = {"__init__", "single_mode", "bath", "sweeps", "csvio", "csvkernel", "cli"}
# The registry that runs both layers; `cli` imports it inside verify and oracle-check.
REGISTRY = {"checks"}
# What an oracle may take from a model module.
ORACLE_INPUTS = {"QubitAmplitudes", "_require_amplitudes", "SingleModeParams",
                 "OhmicGapSpectrum", "DensityCheck", "InvalidDensityMatrixError",
                 "HERMITICITY_TOL", "TRACE_TOL", "MIN_EIGENVALUE_TOL"}


def _imports(path: Path, module_level: bool):
    """(imported package module, name or None) for each import in the module at ``path``.

    A name is None where the module itself is imported.  With ``module_level``
    the bodies of functions are skipped.
    """
    tree = ast.parse(path.read_text())
    nodes = []

    def visit(node):
        for child in ast.iter_child_nodes(node):
            if not (module_level and isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                                        ast.Lambda))):
                nodes.append(child)
                visit(child)

    visit(tree)
    found = []
    for node in nodes:
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[1], None) for alias in node.names
                      if alias.name.startswith("twospinboson.")]
        elif isinstance(node, ast.ImportFrom):
            source = node.module or ""
            if node.level == 0:
                if source != "twospinboson" and not source.startswith("twospinboson."):
                    continue
                source = source.removeprefix("twospinboson").lstrip(".")
            if source:
                found += [(source, alias.name) for alias in node.names]
            else:
                # `from . import x`: x is a module, or a name of __init__.
                found += [(alias.name, None) if (path.parent / f"{alias.name}.py").exists()
                          else ("__init__", alias.name) for alias in node.names]
    return found


def test_every_module_has_a_layer():
    modules = {path.stem for path in PACKAGE.glob("*.py")}
    assert modules == ORACLES | MODEL | REGISTRY


@pytest.mark.parametrize("oracle", sorted(ORACLES))
def test_oracle_takes_only_inputs_from_the_model(oracle):
    imports = _imports(PACKAGE / f"{oracle}.py", module_level=False)
    taken = [(source, name) for source, name in imports
             if source in MODEL and name not in ORACLE_INPUTS]
    assert taken == []


@pytest.mark.parametrize("module", sorted(MODEL))
def test_model_imports_no_oracle_at_module_level(module):
    loaded = [source for source, _ in _imports(PACKAGE / f"{module}.py", module_level=True)
              if source in ORACLES | REGISTRY]
    assert loaded == []


def test_the_rule_sees_each_form_of_import(tmp_path):
    # Each form below names an oracle or a model name; none may slip past.
    for name in ("entanglement", "fock", "quadrature"):
        (tmp_path / f"{name}.py").write_text("")
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import twospinboson.fock\n"
        "from twospinboson import entanglement\n"
        "from . import fock\n"
        "from .entanglement import entanglement_measures\n"
        "from .single_mode import _model_measures\n"
        "from . import __version__\n"
        "def later():\n"
        "    from . import quadrature\n")
    assert _imports(probe, module_level=True) == [
        ("fock", None), ("entanglement", None), ("fock", None),
        ("entanglement", "entanglement_measures"), ("single_mode", "_model_measures"),
        ("__init__", "__version__")]
    assert _imports(probe, module_level=False)[-1] == ("quadrature", None)
