"""The public API: each module states its own in `__all__`, and the package
re-exports those lists, plus cli's parse and serialize functions."""

import ast
import inspect
import re
from pathlib import Path

import pytest

import lmisolve
from lmisolve import cli, errors, model, objectives, solvers, symlinalg, testbench

REEXPORTED = (errors, symlinalg, model, objectives, solvers, testbench)
CLI_REEXPORTED = ("parse_problem", "serialize_lmi", "serialize_linsys")


def defined_public_names(module):
    """The public classes, functions and constants that the module's own
    source defines at its top level (imported names excluded)."""
    names = set()
    for node in ast.parse(inspect.getsource(module)).body:
        if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names.add(node.target.id)
    return {name for name in names if not name.startswith("_")}


def test_package_names_are_unique_and_bound_to_their_definitions():
    assert len(lmisolve.__all__) == len(set(lmisolve.__all__))
    owners = {}
    for module in REEXPORTED:
        for name in module.__all__:
            owners.setdefault(name, []).append(module)
    for name in CLI_REEXPORTED:
        owners.setdefault(name, []).append(cli)
    assert set(lmisolve.__all__) == set(owners) | {"__version__"}
    for name, modules in owners.items():
        assert len(modules) == 1, f"{name} is declared by {len(modules)} modules"
        (module,) = modules
        obj = getattr(lmisolve, name)
        assert obj is getattr(module, name)
        if inspect.isclass(obj) or inspect.isfunction(obj):
            assert obj.__module__ == module.__name__


@pytest.mark.parametrize("module", [*REEXPORTED, cli], ids=lambda m: m.__name__)
def test_module_all_lists_every_public_definition(module):
    declared = module.__all__
    assert len(declared) == len(set(declared))
    assert defined_public_names(module) <= set(declared)
    assert all(hasattr(module, name) for name in declared)


def test_cli_entry_points_are_not_exported():
    for name in ("main", "entry"):
        assert name in cli.__all__
        assert name not in lmisolve.__all__
        assert not hasattr(lmisolve, name)


# np.linalg's eigensolvers and factorizations; `norm` is not one of them
SPECTRAL = re.compile(r"eig\w*|cholesky|svd|solve|lstsq|qr|inv")
SOURCES = sorted(Path(lmisolve.__file__).parent.glob("*.py"))


def spectral_layer_breaches(source):
    """Where, in line order, the source uses a np.linalg eigensolver or
    factorization, or imports ctypes or threading: each is symlinalg's alone."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and SPECTRAL.fullmatch(node.attr):
            if isinstance(node.value, ast.Attribute) and node.value.attr == "linalg":
                found.append((node.lineno, f"linalg.{node.attr}"))
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            modules = [a.name for a in node.names] if isinstance(node, ast.Import) else [node.module]
            found += [(node.lineno, f"import {name}") for name in modules
                      if name and name.split(".")[0] in ("ctypes", "threading")]
            if isinstance(node, ast.ImportFrom) and node.module == "numpy.linalg":
                found += [(node.lineno, f"from numpy.linalg import {a.name}")
                          for a in node.names if SPECTRAL.fullmatch(a.name)]
    return [f"line {lineno}: {what}" for lineno, what in sorted(found)]


def test_layering_check_sees_each_form():
    assert spectral_layer_breaches(
        "import threading\nfrom ctypes import CDLL\nfrom numpy.linalg import eigh, norm\n"
        "w = np.linalg.eigvalsh(g)\nnp.linalg.cholesky(s)\nnumpy.linalg.svd(a)\n"
        "f = np.linalg.solve\nn = np.linalg.norm(a)\n") == [
        "line 1: import threading", "line 2: import ctypes", "line 3: from numpy.linalg import eigh",
        "line 4: linalg.eigvalsh", "line 5: linalg.cholesky", "line 6: linalg.svd",
        "line 7: linalg.solve"]


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "symlinalg.py"],
                         ids=lambda p: p.name)
def test_only_symlinalg_decides_spectra(path):
    # every eigenvalue, norm and definiteness decision goes through
    # symlinalg, which alone binds LAPACK and starts a thread
    assert spectral_layer_breaches(path.read_text(encoding="utf-8")) == []
