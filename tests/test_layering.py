"""Imports inside the package flow one way:

    _check -> specfun -> awgn -> {fading, protocols} -> mcsim -> repro -> cli -> __main__

A module may import only from modules on a strictly lower layer, so the
two modules on one layer never import each other.  No package module
imports numpy or scipy when it loads: each function that builds or reads an
array imports numpy in its body, so the scalar commands, which evaluate in
stdlib math, start and run without either.  fading holds closed forms only,
and every Monte-Carlo estimator lives in mcsim.  The private names that
cross module boundaries are pinned, so a new private coupling shows up
here as a test diff.  The package itself loads each module on first use,
so a CLI start loads none, and a command only the modules it calls."""

import ast
import inspect
import subprocess
import sys
from pathlib import Path

import pytest

import shortpacket
from shortpacket import awgn, fading, mcsim, protocols, specfun

LAYERS = {
    "_check": 0,
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


# (importer, source) -> the private names the importer takes from source
PRIVATE_IMPORTS = {
    ("awgn", "specfun"): {"_log_q", "_q"},
    ("cli", "fading"): {"_m_star"},
    ("fading", "awgn"): {"_LOG2_E_SQ"},
    ("protocols", "awgn"): {"_saturation", "_slot_success", "_success_grid"},
}


def private_imports():
    """(importer, source) -> the private names imported, function bodies included."""
    found = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                names = {alias.name for alias in node.names if alias.name.startswith("_")}
                if names:
                    found.setdefault((path.stem, node.module), set()).update(names)
    return found


def test_private_names_cross_modules_only_where_pinned():
    assert private_imports() == PRIVATE_IMPORTS


def imported_modules(tree):
    """Names of the modules imported anywhere in tree, function bodies included."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_fading_is_closed_form_only():
    imports = set(imported_modules(ast.parse((PACKAGE / "fading.py").read_text(encoding="utf-8"))))
    assert not any(name.split(".")[0] == "numpy" for name in imports)
    assert {name for name in imports if name.split(".")[0] == "scipy"} == {"scipy.integrate"}
    for name, fn in inspect.getmembers(fading, inspect.isfunction):
        if fn.__module__ == fading.__name__ and not name.startswith("_"):
            assert not {"trials", "seed"} & set(inspect.signature(fn).parameters), name
    for module in (specfun, awgn, fading, protocols, mcsim):
        for name in module.__all__:
            obj = getattr(module, name)
            if inspect.isfunction(obj) and {"trials", "seed"} & set(inspect.signature(obj).parameters):
                assert name in mcsim.__all__, name


def module_level_imports(tree):
    """Top names of the modules imported when a module loads: every import
    outside a function body (class bodies and if/try blocks run on load)."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]
        else:
            yield from module_level_imports(node)


def module_level_loaders(package):
    """Names of the package modules that import package when they load."""
    return [
        path.name
        for path in sorted(PACKAGE.glob("*.py"))
        if package in module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]


def test_no_module_level_scipy_import():
    # scipy.special is most of a CLI start; the array paths import it on
    # their first call, and eps_quasistatic loads QUADPACK's extension
    assert module_level_loaders("scipy") == []


def test_no_module_level_numpy_import():
    # numpy was most of what a CLI start had left to load; the functions
    # that build or read arrays import it in their first line
    assert module_level_loaders("numpy") == []


def run_then_list(package, code):
    """stdout lines of a fresh interpreter that runs code and then prints
    the modules of the top-level package loaded by then."""
    listing = f"\nimport sys; print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    out = subprocess.run(
        [sys.executable, "-c", code + listing],
        capture_output=True, text=True, check=True, cwd=PACKAGE.parent,
    )
    return out.stdout.splitlines()


def test_cli_start_leaves_out_scipy_integrate():
    # no scipy module at all: floats take stdlib math, and each array path
    # loads the scipy module it needs on first use
    assert run_then_list("scipy", "import shortpacket.cli") == ["[]"]


def test_cli_start_leaves_out_numpy():
    # no package module loads numpy when it loads (nor, since scipy imports
    # numpy, scipy), so neither does a CLI start, whatever it loads
    assert run_then_list("numpy", "import shortpacket.cli") == ["[]"]


def test_cli_start_loads_no_library_module():
    # the compute functions reach the library through the package, which
    # loads a module on first use; dataclasses (which loads inspect) and
    # statistics wait for the commands that use them
    # in the package form the import system first asks the package for
    # `cli`, which refuses at once rather than search the library modules
    for start in ("import shortpacket.cli", "from shortpacket import cli"):
        assert run_then_list("shortpacket", start) == [
            "['shortpacket', 'shortpacket._check', 'shortpacket.cli']"
        ]
    for stdlib in ("dataclasses", "statistics"):
        assert run_then_list(stdlib, "import shortpacket.cli") == ["[]"]


def test_commands_load_only_the_modules_they_call():
    eps = [["eps", "--k", "194", "--n", "125", "--snr-db", "10"]]
    prelog = [["prelog", "--mt", "2", "--mr", "2", "--nc", "10"]]
    cli = ["shortpacket", "shortpacket._check", "shortpacket.cli"]
    with_eps = sorted([*cli, "shortpacket.awgn", "shortpacket.specfun"])
    assert run_commands_then_list("shortpacket", eps) == ["[0]", str(with_eps)]
    assert run_commands_then_list("shortpacket", eps + prelog) == [
        "[0, 0]", str(sorted([*with_eps, "shortpacket.fading"]))
    ]


def test_package_loads_a_module_on_first_use():
    assert run_then_list("shortpacket", "from shortpacket import awgn") == [
        "['shortpacket', 'shortpacket._check', 'shortpacket.awgn', 'shortpacket.specfun']"
    ]
    assert run_then_list("shortpacket", "import shortpacket; shortpacket.q_inv") == [
        "['shortpacket', 'shortpacket._check', 'shortpacket.specfun']"
    ]


def test_package_refuses_private_names_at_once():
    # no public name starts with an underscore, so the probes of the import
    # system (for _check) and of inspect.unwrap (for __wrapped__) search no
    # library module
    for probe, loaded in (
        ("from shortpacket import _check", ["shortpacket", "shortpacket._check"]),
        ("import shortpacket; hasattr(shortpacket, '__wrapped__')", ["shortpacket"]),
        ("import inspect, shortpacket; inspect.unwrap(shortpacket)", ["shortpacket"]),
    ):
        assert run_then_list("shortpacket", probe) == [str(loaded)], probe


SCIPY_FREE_COMMANDS = [
    ["eps", "--k", "194", "--n", "125", "--snr-db", "10"],
    ["rate", "--n", "125", "--eps", "1e-3", "--snr-db", "10"],
    ["min-n", "--k", "193", "--eps", "4.4e-4", "--snr-db", "10", "--convention", "real"],
    ["outage", "--rate", "1", "--snr-db", "10"],
    ["outage-cap", "--eps", "1e-3", "--snr-db", "10"],
    ["twoway-tdd", "--k", "194", "--ki", "160", "--n-slot", "125", "--snr-db", "10"],
    ["downlink", "--devices", "10", "--bits", "192", "--slot", "125", "--snr-db", "10"],
    ["dmt", "--mt", "2", "--mr", "2", "--at", "1"],
    ["prelog", "--mt", "2", "--mr", "2", "--nc", "10"],
    ["mimo-outage", "--mt", "2", "--mr", "2", "--rate", "3.46", "--snr-db", "10", "--trials", "10000"],
    ["sim-aloha", "--devices", "10", "--bits", "192", "--frame", "800", "--slots", "6", "--snr-db", "10",
     "--trials", "10000"],
    ["sim-twoway", "--k1", "193", "--k2", "97", "--n1", "132", "--n2", "71", "--snr-db", "10",
     "--trials", "10000"],
]


def run_commands_then_list(package, commands):
    """The exit codes of cli.run over commands in a fresh interpreter, then
    the modules of the top-level package loaded by then."""
    code = (
        "import contextlib, io\n"
        "from shortpacket.cli import run\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [run(argv) for argv in {commands!r}]\n"
        "print(codes)"
    )
    return run_then_list(package, code)


def test_commands_run_without_scipy():
    assert run_commands_then_list("scipy", SCIPY_FREE_COMMANDS) == [str([0] * len(SCIPY_FREE_COMMANDS)), "[]"]


def test_quasistatic_loads_quadpack_alone():
    # eps_quasistatic loads QUADPACK's extension by its file and drops the
    # extension's sys.modules entry, so only what a Python callable handed
    # to QUADPACK needs comes in: scipy's __init__ and its callback glue
    base = run_then_list("scipy", "import scipy._lib._ccallback")
    for package in ("scipy.integrate", "scipy.special", "scipy.sparse", "scipy.linalg", "scipy.optimize"):
        assert f"'{package}" not in base[0]
    one_call = (
        "from shortpacket import eps_quasistatic, fading\n"
        "eps_quasistatic(10.0, 1.0, 200.0)\n"
        "print(fading._quadpack.__name__)"
    )
    assert run_then_list("scipy", one_call) == ["scipy.integrate._quadpack", *base]
    qs_eps = [["qs-eps", "--rate", "1.0", "--n", "168", "--snr-db", "10"]]
    assert run_commands_then_list("scipy", qs_eps) == ["[0]", *base]


def test_scipy_integrate_after_the_quadpack_loader():
    # the package loads its own copy of the extension and sets its
    # _quadpack attribute; quad then gives eps_quasistatic's bits
    code = (
        "import sys, warnings\n"
        "from shortpacket import eps_quasistatic\n"
        "eps_quasistatic(10.0, 1.0, 200.0)\n"
        "import scipy.integrate\n"
        "print(scipy.integrate._quadpack is sys.modules['scipy.integrate._quadpack'])\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "from test_fading import QUAD_CASES, quad_reference\n"
        "warnings.simplefilter('error')\n"
        "print(all(repr(eps_quasistatic(*case)) == repr(quad_reference(*case)) for case in QUAD_CASES))"
    )
    assert run_then_list("scipy", code)[:2] == ["True", "True"]


def test_quadpack_loader_reuses_the_packages_extension():
    # scipy.integrate first: the loader takes its module, loads no second
    # one and leaves its sys.modules entry in place
    code = (
        "import sys\n"
        "import scipy.integrate\n"
        "from shortpacket import eps_quasistatic, fading\n"
        "eps_quasistatic(10.0, 1.0, 200.0)\n"
        "print(fading._quadpack is scipy.integrate._quadpack is sys.modules['scipy.integrate._quadpack'])"
    )
    assert run_then_list("scipy", code)[0] == "True"


# the scalar commands: every value comes from stdlib math, and so does a
# sweep of one of them
NUMPY_FREE_COMMANDS = [argv for argv in SCIPY_FREE_COMMANDS if not argv[0].startswith(("mimo-", "sim-"))] + [
    ["eps", "--k", "194", "--n", "125", "--snr-db", "10", "--sweep", "n:100:300:10"],
]


def test_commands_run_without_numpy():
    assert len(NUMPY_FREE_COMMANDS) == 10
    assert run_commands_then_list("numpy", NUMPY_FREE_COMMANDS) == [str([0] * len(NUMPY_FREE_COMMANDS)), "[]"]


def test_aloha_runs_without_numpy():
    # aloha_success evaluates its one slot count in floats, not through the
    # optimizer's array profile
    aloha = ["aloha", "--devices", "10", "--bits", "192", "--frame", "800", "--slots", "6", "--snr-db", "10"]
    assert run_commands_then_list("numpy", [aloha, [*aloha, "--perfect-decoding"]]) == ["[0, 0]", "[]"]


def test_input_policy_reads_numpy_types_only_once_loaded():
    # Python numbers never load numpy; numpy scalars, which exist only once
    # numpy is loaded, keep the policy: real and integer scalars pass,
    # np.bool_ does not
    code = (
        "from shortpacket._check import integer, real\n"
        "assert real('x', 2.5) == 2.5 and real('x', 3) == 3.0 and integer('n', 7, ge=0) == 7\n"
        "import sys; print('numpy' in sys.modules)\n"
        "import numpy as np\n"
        "print(real('x', np.float32(1.5)), real('x', np.int64(3)), integer('n', np.int64(4), ge=0))\n"
        "for check in (lambda: real('x', np.bool_(True)), lambda: integer('n', np.bool_(True), ge=0),\n"
        "              lambda: integer('n', np.float32(4.0), ge=0), lambda: real('x', np.complex128(1))):\n"
        "    try:\n"
        "        check()\n"
        "    except ValueError:\n"
        "        print('refused')\n"
    )
    assert run_then_list("numpy", code)[:-1] == ["False", "1.5 3.0 4", *["refused"] * 4]


def test_input_policy_refuses_a_str_before_numpy_is_loaded():
    # the policy looks numpy's types up only once numpy is in sys.modules
    code = (
        "from shortpacket import q_func\n"
        "try:\n"
        "    q_func('1.0')\n"
        "except Exception as exc:\n"
        "    print(type(exc).__name__)\n"
    )
    assert run_then_list("numpy", code) == ["ValueError", "[]"]


def test_package_names_are_the_modules_names():
    # each public name is declared once, in its module's __all__
    modules = (specfun, awgn, fading, protocols, mcsim)
    names = [name for module in modules for name in module.__all__]
    assert len(names) == len(set(names))
    assert shortpacket.__all__ == ["__version__", *names]
    for module in modules:
        for name in module.__all__:
            assert getattr(shortpacket, name) is getattr(module, name)


def test_package_lists_its_names_and_refuses_unknown_ones():
    assert set(dir(shortpacket)) >= set(shortpacket.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        shortpacket.no_such_name


def test_star_import_binds_exactly_the_package_names():
    namespace = {}
    exec("from shortpacket import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(shortpacket.__all__)
