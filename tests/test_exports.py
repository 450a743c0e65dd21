"""Every exported name exists, so a deleted function cannot linger in an
__all__; and the package's records are named tuples, not dataclasses."""

import dataclasses
import importlib
import inspect
import pathlib

import pytest

import surfalg

INIT = pathlib.Path(surfalg.__file__)
MODULES = sorted(p.stem for p in INIT.parent.glob("*.py")
                 if p.stem != "__init__")

# "module.Class": why it stays a dataclass.  Each dataclass costs start-up
# time on every import of the package (its methods are generated by exec),
# so a record is a named tuple unless it is listed here.
DATACLASSES_ALLOWED = {}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    mod = importlib.import_module("surfalg." + name)
    assert [n for n in mod.__all__ if not hasattr(mod, n)] == []


@pytest.mark.parametrize("name", MODULES)
def test_no_dataclass_outside_the_allow_list(name):
    mod = importlib.import_module("surfalg." + name)
    found = {"%s.%s" % (name, cls.__qualname__)
             for _, cls in inspect.getmembers(mod, inspect.isclass)
             if cls.__module__ == mod.__name__
             and dataclasses.is_dataclass(cls)}
    listed = {k for k in DATACLASSES_ALLOWED if k.startswith(name + ".")}
    assert found == listed
