"""The benchmark's tracer silently skips a traced function that no
longer exists, so every (module, function) pair it names must resolve,
and a traced function the program never calls reads 0 there, so each
one must run in at least one golden case."""

import importlib
import runpy
from pathlib import Path

import pytest

from transistor_ops.cli import main

from test_golden import CASES, resolve

TRACING = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracing.py"))
LAYERS = TRACING["LAYERS"]


@pytest.mark.parametrize("module,name", LAYERS, ids=lambda part: part)
def test_traced_name_resolves_to_a_callable(module, name):
    home = importlib.import_module(f"transistor_ops.{module}")
    assert callable(getattr(home, name, None)), f"{module}.{name}"


def test_every_traced_function_runs_in_the_golden_cases(capsys, tmp_path):
    tracer = TRACING["Tracer"]()
    tracer.install()
    try:
        for name, argv in sorted(CASES.items()):
            assert tracer.root(main, resolve(argv, tmp_path)) == 0, name
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert tracer.installed == [f"{module}.{name}" for module, name in LAYERS]
    recorded = {span[0] for span in tracer.spans}
    assert [label for label in tracer.installed if label not in recorded] == []
