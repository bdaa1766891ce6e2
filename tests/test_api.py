"""The public surface: every exported name exists, the package exports
exactly the names its library modules declare, every module uses what it
imports, and the search stays free of the signal layer."""

from __future__ import annotations

import ast
from pathlib import Path

import biasym
from biasym import cli, dof, patterns, search, signal

LIBRARY = (patterns, dof, signal, search)


def test_exports_exist():
    for module in (*LIBRARY, cli):
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ names missing objects: {missing}"


def test_package_exports_exactly_the_library_modules_names():
    declared = [name for module in LIBRARY for name in module.__all__]
    assert len(set(declared)) == len(declared)
    assert sorted(biasym.__all__) == sorted(declared)
    for module in LIBRARY:
        for name in module.__all__:
            assert getattr(biasym, name) is getattr(module, name), name
    namespace: dict = {}
    exec("from biasym import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(declared)


def test_modules_use_every_name_they_import():
    for path in sorted(Path(biasym.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the exports
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]  # the name the import binds
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported, path.name
        assert sorted(imported - used) == [], path.name


def test_search_imports_nothing_from_signal():
    tree = ast.parse(Path(search.__file__).read_text(encoding="utf-8"))
    imported = []  # (module, name) pairs, relative imports resolved against biasym
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [(alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["biasym" * node.level, node.module]))
            imported += [(module, alias.name) for alias in node.names]
    assert ("biasym.patterns", "GroupingConfig") in imported  # the walk sees relative imports
    for module, name in imported:
        assert module.split(".")[:2] != ["biasym", "signal"], module
        assert (module, name) != ("biasym", "signal"), name
        if module == "biasym":
            assert name not in signal.__all__, name


def test_bench_imports_only_exported_names():
    # the benchmark is kept apart from the library: what it imports by name
    # must stay public, or deleting it would break the benchmark unseen
    bench = Path(__file__).resolve().parents[1] / "bench"
    imported = set()
    for path in sorted(bench.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported |= {
            alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "biasym" and not node.level
            for alias in node.names
        }
    assert {"GroupingConfig", "enumerate_configs", "rank_predictions"} <= imported
    assert sorted(imported - set(biasym.__all__)) == []
