"""Checks of the package source itself, read with ``ast``: no unused private names, one export list.

Every module-level ``_private`` name of ``src/filex`` must be used somewhere
in the package besides its own definition, so code the package no longer
calls cannot linger for tests alone. ``filex.__all__`` must list exactly the
names ``filex/__init__.py`` binds, and each must resolve.
"""

import ast
from pathlib import Path

import pytest

import filex

SOURCE = Path(filex.__file__).parent
MODULES = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SOURCE.glob("*.py"))}


def defined_private_names(tree: ast.Module) -> set[str]:
    """Module-level functions, classes and assigned names that start with one underscore (not dunders)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for target in targets for t in ast.walk(target) if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def used_names(tree: ast.Module) -> set[str]:
    """Names read, attributes taken and names imported anywhere in a module; definitions are not uses."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(alias.name for alias in node.names)
    return used


PRIVATE = sorted((module, name) for module, tree in MODULES.items() for name in defined_private_names(tree))


def test_private_names_found():
    # the walk sees the package: these are defined and used today
    assert ("core.py", "_check_count") in PRIVATE
    assert ("report.py", "_schema") in PRIVATE


@pytest.mark.parametrize("module, name", PRIVATE, ids=[f"{m}:{n}" for m, n in PRIVATE])
def test_private_name_is_used_in_package(module, name):
    users = [other for other, tree in MODULES.items() if name in used_names(tree)]
    assert users, f"{module} defines {name}, which nothing in {SOURCE.name} uses"


def test_all_lists_exactly_the_bound_names():
    bound = []
    for node in MODULES["__init__.py"].body:
        if isinstance(node, ast.ImportFrom):
            bound.extend(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Assign):
            bound.extend(t.id for t in node.targets if isinstance(t, ast.Name) and t.id != "__all__")
    assert len(filex.__all__) == len(set(filex.__all__)), "__all__ repeats a name"
    assert sorted(filex.__all__) == sorted(bound)
    for name in filex.__all__:
        assert getattr(filex, name) is not None
