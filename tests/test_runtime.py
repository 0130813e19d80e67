"""The package, its CLI and its demos run on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import transistor_ops

from conftest import model_doc, write_model_doc

SRC = str(Path(transistor_ops.__file__).resolve().parents[1])
DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))


def run_python(code, *args):
    env = dict(os.environ, PYTHONPATH=SRC)
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, timeout=60)


def test_cli_imports_and_runs_without_numpy(tmp_path):
    path = write_model_doc(tmp_path / "m.json", model_doc([4, 4, 1]))
    proc = run_python("import sys\n"
                      "from transistor_ops.cli import main\n"
                      "code = main(['count', sys.argv[1]])\n"
                      "if 'numpy' in sys.modules:\n"
                      "    sys.exit('numpy was imported')\n"
                      "sys.exit(code)\n",
                      path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("scope,layer,phase,")


def test_cli_import_leaves_datetime_unloaded():
    # Only adapter timestamps need datetime; it is imported on first use.
    proc = run_python("import sys\n"
                      "import transistor_ops.cli\n"
                      "if 'datetime' in sys.modules:\n"
                      "    sys.exit('datetime was imported')\n")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_with_numpy_blocked(demo):
    # A None entry in sys.modules makes any `import numpy` raise ImportError.
    proc = run_python("import runpy, sys\n"
                      "sys.modules['numpy'] = None\n"
                      "runpy.run_path(sys.argv[1], run_name='__main__')\n",
                      str(demo))
    assert proc.returncode == 0, proc.stderr
