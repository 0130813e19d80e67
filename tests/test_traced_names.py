"""The benchmark's tracer silently skips a traced function that no
longer exists, so every (module, function) pair it names must resolve."""

import importlib
import runpy
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
LAYERS = runpy.run_path(str(TRACING))["LAYERS"]


@pytest.mark.parametrize("module,name", LAYERS, ids=lambda part: part)
def test_traced_name_resolves_to_a_callable(module, name):
    home = importlib.import_module(f"transistor_ops.{module}")
    assert callable(getattr(home, name, None)), f"{module}.{name}"
