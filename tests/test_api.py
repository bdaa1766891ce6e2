"""The public surface: every exported name exists, and the package exports
exactly the names its library modules declare."""

from __future__ import annotations

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
