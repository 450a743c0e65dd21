"""The benchmark's tracer rebinds package functions by name; every name it
lists must still exist, or a traced run would fail on a rename."""

import importlib
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"


def test_traced_functions_exist():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.WRAPPED
    missing = [
        (mod, name) for mod, name in tracing.WRAPPED
        if not callable(getattr(importlib.import_module("surfalg." + mod),
                                name, None))
    ]
    assert missing == []
