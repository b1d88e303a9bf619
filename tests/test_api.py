"""The public API: each module states its own in `__all__`, and the package
re-exports those lists, plus cli's parse and serialize functions."""

import ast
import inspect

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
