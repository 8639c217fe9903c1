"""The benchmark's tracer names engine functions; each must still exist.

perfbench/tracing.py is read, not imported as a package module, so no
bytecode is written under perfbench/.
"""

import importlib
import inspect
import runpy
from pathlib import Path

import pytest

TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"))

TRACED = [(layer, name) for layer, names in TRACING["TRACED"].items() for name in names]


@pytest.mark.parametrize("layer,name", TRACED, ids=[f"{layer}.{name}" for layer, name in TRACED])
def test_traced_name_resolves(layer, name):
    module = importlib.import_module(f"operpop.{layer}")
    if "." in name:
        cls_name, op = name.split(".")
        assert TRACING["_DUNDER"].get(op, op) in vars(getattr(module, cls_name))
    else:
        fn = getattr(module, name)
        assert inspect.isgeneratorfunction(fn) == (f"{layer}.{name}" in TRACING["GENERATORS"])
