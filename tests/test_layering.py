"""Imports inside the package flow one way:

    _rand, specfun -> awgn -> {fading, protocols} -> mcsim -> repro -> cli

A module may import only from modules on a strictly lower layer, so the
two modules on one layer never import each other."""

import ast
from pathlib import Path

import shortpacket

LAYERS = {
    "_rand": 0,
    "specfun": 0,
    "awgn": 1,
    "fading": 2,
    "protocols": 2,
    "mcsim": 3,
    "repro": 4,
    "cli": 5,
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
