"""The public surface: every exported name exists, and the package exports
only names its modules declare."""

from __future__ import annotations

import ast
from pathlib import Path

import biasym
from biasym import cli, dof, patterns, search, signal

MODULES = (patterns, dof, signal, search, cli)


def test_exports_exist_and_package_imports_only_declared_names():
    for module in MODULES:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"
    declared = {name for module in MODULES for name in module.__all__}
    tree = ast.parse(Path(biasym.__file__).read_text(encoding="utf-8"))
    imported = {
        alias.name
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    assert imported
    assert imported <= declared, sorted(imported - declared)
