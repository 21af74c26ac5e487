"""Imports inside the package flow one way:

    _check -> {_rand, specfun} -> awgn -> {fading, protocols} -> mcsim -> repro -> cli -> __main__

A module may import only from modules on a strictly lower layer, so the
two modules on one layer never import each other."""

import ast
import subprocess
import sys
from pathlib import Path

import shortpacket

LAYERS = {
    "_check": 0,
    "_rand": 1,
    "specfun": 1,
    "awgn": 2,
    "fading": 3,
    "protocols": 3,
    "mcsim": 4,
    "repro": 5,
    "cli": 6,
    "__main__": 7,
}

PACKAGE = Path(shortpacket.__file__).parent


def relative_imports(path):
    """Names of the sibling modules a module imports with `from .x import`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            yield node.module.split(".")[0]


def test_every_module_has_a_layer():
    modules = {p.stem for p in PACKAGE.glob("*.py")} - {"__init__"}
    assert modules == set(LAYERS)


def test_imports_flow_one_way():
    back_edges = [
        f"{module} imports {target}"
        for module, layer in LAYERS.items()
        for target in relative_imports(PACKAGE / f"{module}.py")
        if LAYERS[target] >= layer
    ]
    assert back_edges == []


def test_cli_start_leaves_out_scipy_integrate():
    # the quadrature module costs about a third of every CLI start, and only
    # eps_quasistatic uses it, so it is imported there, on first use
    code = "import sys, shortpacket.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    assert out.stdout.strip() == "False"
