"""Every exported name exists, so a deleted function cannot linger in an
__all__."""

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
