"""The package, its CLI and its demos run on the standard library alone,
and print the same bytes on every CPython the package supports."""

import ast
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import transistor_ops

from conftest import model_doc, write_model_doc
from test_circuits import EXACT
from test_golden import CASES, EXPECTED, GOLDEN, resolve
from test_usage import CORPUS, DEFAULTS

SRC = str(Path(transistor_ops.__file__).resolve().parents[1])
ROOT = Path(__file__).resolve().parents[1]
TESTS = str(ROOT / "tests")
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# Each demo's stdout, byte for byte, as an earlier version printed it.
DEMO_EXPECTED = Path(__file__).parent / "demo_expected"


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


# The trees whose Python files must not import numpy. bench/ still draws
# its inputs with numpy, so it is left out until the benchmark drops it.
NUMPY_FREE = ("src", "tests", "demos")


def imported_packages(path):
    """The top-level package of each absolute import in the file at ``path``."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


def test_no_file_imports_numpy():
    importers = [str(path.relative_to(ROOT)) for tree in NUMPY_FREE
                 for path in sorted((ROOT / tree).rglob("*.py"))
                 if "numpy" in imported_packages(path)]
    assert importers == []


def test_cli_import_leaves_datetime_unloaded():
    # Only adapter timestamps need datetime; it is imported on first use.
    proc = run_python("import sys\n"
                      "import transistor_ops.cli\n"
                      "if 'datetime' in sys.modules:\n"
                      "    sys.exit('datetime was imported')\n")
    assert proc.returncode == 0, proc.stderr


# Modules a cold CLI call must not load: the value classes are written
# without `dataclasses` (which pulls in `inspect`), and the scalar oracle
# is imported only by the `oracle` subcommand.
COLD_UNLOADED = ("dataclasses", "inspect", "transistor_ops.oracle")


def test_cli_import_leaves_dataclasses_and_the_oracle_unloaded():
    proc = run_python("import sys\n"
                      "import transistor_ops.cli\n"
                      "print(' '.join(m for m in sys.argv[1:] if m in sys.modules))\n",
                      *COLD_UNLOADED)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_count_subcommand_leaves_dataclasses_and_the_oracle_unloaded(tmp_path):
    # -X importtime lists on stderr every module the child imports.
    path = write_model_doc(tmp_path / "m.json", model_doc([4, 4, 1]))
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "transistor_ops",
                           "count", path], env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("scope,layer,phase,")
    imported = {line.rsplit("|", 1)[-1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "transistor_ops.cli" in imported
    assert imported.isdisjoint(COLD_UNLOADED)


def test_oracle_subcommand_imports_the_oracle_on_first_use(tmp_path):
    path = write_model_doc(tmp_path / "m.json", model_doc([4, 4, 1]))
    proc = run_python("import sys\n"
                      "from transistor_ops.cli import main\n"
                      "code = main(['oracle', sys.argv[1]])\n"
                      "sys.exit(code or 'transistor_ops.oracle' not in sys.modules)\n",
                      path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("segment,n_add,")


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_runs_with_numpy_blocked(demo):
    # A None entry in sys.modules makes any `import numpy` raise ImportError.
    proc = run_python("import runpy, sys\n"
                      "sys.modules['numpy'] = None\n"
                      "runpy.run_path(sys.argv[1], run_name='__main__')\n",
                      str(demo))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.encode("utf-8") == (DEMO_EXPECTED / f"{demo.stem}.txt").read_bytes()


def test_package_import_loads_no_submodule():
    proc = run_python("import sys\n"
                      "import transistor_ops\n"
                      "print(' '.join(m for m in sys.modules\n"
                      "               if m.startswith('transistor_ops.')))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == []


def test_submodules_resolve_as_attributes_on_first_use():
    proc = run_python("import transistor_ops\n"
                      "print(transistor_ops.circuits.analyze.__module__)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["transistor_ops.circuits"]


def test_dir_lists_every_public_name():
    names = dir(transistor_ops)
    assert set(transistor_ops.__all__) <= set(names)
    assert transistor_ops.__all__ == sorted(transistor_ops.__all__)
    assert all(hasattr(transistor_ops, name) for name in transistor_ops.__all__)


def other_interpreters():
    """Each ``python3.10`` ... ``python3.14`` on PATH that starts, reports
    the version its name says, and is not the running interpreter."""
    found = []
    for minor in range(10, 15):
        exe = shutil.which(f"python3.{minor}")
        if exe is None or sys.version_info[:2] == (3, minor):
            continue
        try:
            proc = subprocess.run([exe, "-c", "import sys; print(sys.version_info[1])"],
                                  capture_output=True, text=True, timeout=60)
        except OSError:
            continue
        if proc.returncode == 0 and proc.stdout.strip() == str(minor):
            found.append(exe)
    return found


# Reads [golden cases, parser corpus, minimal argv, a model file] on stdin.
# Each golden case is [name, argv, out path or null, svg path or null]; the
# child writes, per case, its exit code, stdout and the two files' text. It
# also parses each corpus argv with the parser built for it and with the
# full parser, and lists the argv on which the two differ in namespace (by
# its repr, as NaN is unequal to itself), exit code or output. Then it
# writes the repr of the sorted namespace, handler left out, of each
# minimal argv; the exit code and stdout of `-- count <model file>`; and
# the digests of `exact_corpus`.
CHILD = """
import contextlib, io, json, sys
from exact_corpus import digests
from transistor_ops.cli import _build_parser, main
def text(path):
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()
def parsed(argv, parser):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value = repr(parser.parse_args(argv))
        except SystemExit as e:
            value = e.code
    return value, out.getvalue(), err.getvalue()
cases, corpus, minimal, model = json.load(sys.stdin)
results = {}
for name, argv, out, svg in cases:
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(argv)
    results[name] = [code, stdout.getvalue(), out and text(out), svg and text(svg)]
unlike = [argv for argv in corpus
          if parsed(argv, _build_parser(argv)) != parsed(argv, _build_parser([]))]
def defaults(argv):
    namespace = vars(_build_parser(argv).parse_args(argv))
    del namespace["handler"]
    return repr(sorted(namespace.items()))
stdout = io.StringIO()
with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
    code = main(["--", "count", model])
json.dump([results, unlike, [defaults(argv) for argv in minimal],
           [code, stdout.getvalue()], digests()], sys.stdout)
"""


@pytest.fixture(scope="module")
def other_runs(tmp_path_factory):
    """exe -> [golden results, corpus argv parsed differently, defaults,
    [exit code, stdout] of a leading ``--``, corpus digests] of each other
    interpreter's child."""
    pythons = other_interpreters()
    if not pythons:
        pytest.skip("no python3.10 ... python3.14 other than this one starts from PATH")
    tmp_path = tmp_path_factory.mktemp("golden")
    cases = []
    for name, argv in sorted(CASES.items()):
        (tmp_path / name).mkdir()
        written = [str(tmp_path / name / f) if "{%s}" % f in argv else None
                   for f in ("out", "svg")]
        cases.append([name, resolve(argv, tmp_path / name), *written])
    runs = {}
    for exe in pythons:
        proc = subprocess.run([exe, "-c", CHILD],
                              input=json.dumps([cases, list(CORPUS.values()),
                                                [argv for argv, _ in DEFAULTS.values()],
                                                str(GOLDEN / "fc.json")]),
                              env=dict(os.environ, PYTHONPATH=os.pathsep.join((SRC, TESTS)),
                                       COLUMNS="80"),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, f"{exe}: {proc.stderr}"
        runs[exe] = json.loads(proc.stdout)
    return runs


def test_other_interpreters_print_the_golden_bytes(other_runs):
    mismatched = {}
    for exe, (results, *_) in other_runs.items():
        for name, (code, stdout, out, svg) in sorted(results.items()):
            printed = stdout if out is None else out
            svg_expected = EXPECTED / f"{name}.svg"
            if (code != 0 or (out is not None and stdout)
                    or printed.encode("utf-8") != (EXPECTED / f"{name}.txt").read_bytes()
                    or (svg is not None
                        and svg.encode("utf-8") != svg_expected.read_bytes())):
                mismatched.setdefault(exe, []).append(name)
    assert mismatched == {}, f"other bytes printed: {mismatched}"


def test_other_interpreters_parse_alike_with_one_command_or_all(other_runs):
    unlike = {exe: argvs for exe, (_, argvs, *_) in other_runs.items() if argvs}
    assert unlike == {}, f"the one-command parser differs from the full one: {unlike}"


def test_other_interpreters_parse_the_recorded_defaults(other_runs):
    expected = [repr(sorted(namespace.items())) for _, namespace in DEFAULTS.values()]
    unlike = {exe: [command for command, got, want in zip(DEFAULTS, defaults, expected)
                    if got != want]
              for exe, (_, _, defaults, *_) in other_runs.items() if defaults != expected}
    assert unlike == {}, f"other defaults parsed: {unlike}"


def test_other_interpreters_reject_a_leading_double_dash(other_runs):
    # argparse before 3.12 takes `--` for the command; later ones skip it.
    outcomes = {exe: outcome for exe, (_, _, _, outcome, _) in other_runs.items()}
    assert outcomes == {exe: [2, ""] for exe in other_runs}


def test_other_interpreters_compute_the_pinned_digests(other_runs):
    unlike = {exe: got for exe, (*_, got) in other_runs.items() if got != EXACT}
    assert unlike == {}, f"other digests computed: {unlike}"
