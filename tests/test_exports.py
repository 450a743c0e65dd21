"""Every exported name exists, and the package imports only exported names,
so a deleted function cannot linger in an __all__ or in __init__."""

import ast
import importlib
import pathlib

import pytest

import surfalg

INIT = pathlib.Path(surfalg.__file__)
MODULES = sorted(p.stem for p in INIT.parent.glob("*.py")
                 if p.stem != "__init__")


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    mod = importlib.import_module("surfalg." + name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


def test_package_imports_only_exported_names():
    stale = []
    for node in ast.parse(INIT.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1 \
                and node.module:
            exported = importlib.import_module(
                "surfalg." + node.module).__all__
            stale += [(node.module, a.name) for a in node.names
                      if a.name not in exported]
    assert stale == []
