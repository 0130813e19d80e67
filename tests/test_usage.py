"""What the CLI's argument parser prints and builds.

``CORPUS`` holds argv that ask for help or break the syntax, plus a few
that abbreviate options or use ``--`` and then run on the golden
fixtures. Its exit codes, stdout and stderr are pinned byte for byte in
``usage_expected.json``, recorded with ``COLUMNS=80`` on CPython 3.11:
argparse wraps the usage lines differently on other versions, so that
test runs on 3.11 only. ``tests/test_runtime.py`` runs the corpus under
each other ``python3.1x`` on PATH and requires the parser built for
``argv[0]`` to behave as the full parser does there too. ``DEFAULTS``
pins the namespace each command's minimal argv parses to, on every
interpreter.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from transistor_ops.cli import _build_parser, main

from test_cli_properties import calls
from test_golden import CASES, GOLDEN, resolve

EXPECTED = Path(__file__).parent / "usage_expected.json"

COMMANDS = ["count", "tos", "ingest", "fit", "estimate", "sweep", "compare", "tradeoff",
            "oracle"]

# name -> argv, run from tests/golden so that file names stay relative.
CORPUS = {
    "help": ["--help"],
    "h": ["-h"],
    **{f"{command}-help": [command, "--help"] for command in COMMANDS},
    "h-before-command": ["-h", "count"],
    "h-after-model": ["count", "fc.json", "-h"],
    "no-argv": [],
    "unknown-command": ["bogus"],
    "misspelled-command": ["estimat", "fc.json", "--fitted", "fitted.json"],
    "unknown-option-first": ["--bogus"],
    "option-before-command": ["--level", "training", "count", "fc.json"],
    "unknown-option-after-command": ["count", "fc.json", "--bogus"],
    "unknown-option-with-value": ["tradeoff", "candidates.csv", "--alpha", "0.5",
                                  "--out", "x"],
    "extra-positional": ["fit", "pairs.csv", "more.csv"],
    "missing-model": ["count"],
    "missing-traces": ["ingest"],
    "missing-actual": ["compare", "pred_tos.csv", "pred_flops.csv"],
    "missing-fitted": ["estimate", "fc.json"],
    "missing-alpha": ["tradeoff", "candidates.csv"],
    "missing-widths": ["sweep", "base.json"],
    "missing-level-value": ["count", "fc.json", "--level"],
    "missing-widths-value": ["sweep", "base.json", "--widths"],
    "bad-int": ["ingest", "m1__r0.csv", "--trim-k", "x"],
    "bad-int-seed": ["oracle", "fc.json", "--seed", "1.5"],
    "bad-float": ["tradeoff", "candidates.csv", "--alpha", "half"],
    "bad-level": ["count", "fc.json", "--level", "train"],
    "bad-format": ["tos", "fc.json", "--format", "fp8"],
    "bad-scale": ["estimate", "--fitted", "fitted.json", "--scale", "batch"],
    "ambiguous-abbreviation": ["estimate", "fc.json", "--f", "fitted.json"],
    "abbreviations": ["tos", "fc.json", "--lev", "training", "--form", "fp16", "--ra"],
    "negative-trim-k": ["ingest", "m1__r0.csv", "--trim-k", "-1"],
    "double-dash-first": ["--", "count", "fc.json"],
    "double-dash-after-command": ["count", "--", "fc.json"],
}

# name -> (the command's minimal argv, its namespace without the handler).
# The help text shows no default, type or action; these pin them.
DEFAULTS = {
    "count": (["count", "m.json"],
              {"command": "count", "model": "m.json", "level": "inference", "out": None}),
    "tos": (["tos", "m.json"],
            {"command": "tos", "model": "m.json", "level": "inference", "out": None,
             "format": None, "cost_table": None, "raw": False}),
    "ingest": (["ingest", "t.csv"],
               {"command": "ingest", "traces": ["t.csv"], "adapter": None, "trim_k": 5,
                "out": None}),
    "fit": (["fit", "pairs.csv"], {"command": "fit", "pairs": "pairs.csv", "out": None}),
    "estimate": (["estimate", "--fitted", "f.json"],
                 {"command": "estimate", "models": [], "fitted": "f.json", "tos_file": None,
                  "level": "inference", "out": None, "format": None, "cost_table": None,
                  "raw": False, "scale": "instance"}),
    "sweep": (["sweep", "base.json", "--widths", "4..5"],
              {"command": "sweep", "base": "base.json", "widths": "4..5",
               "activations": "sigmoid,tanh,gelu", "fitted_model": None, "svg": None,
               "level": "inference", "out": None, "format": None, "cost_table": None,
               "raw": False, "scale": "instance"}),
    "compare": (["compare", "tos.csv", "flops.csv", "actual.csv"],
                {"command": "compare", "predictions_tos": "tos.csv",
                 "predictions_flops": "flops.csv", "actual": "actual.csv", "out": None,
                 "raw": False}),
    "tradeoff": (["tradeoff", "c.csv", "--alpha", "0.5"],
                 {"command": "tradeoff", "candidates": "c.csv", "alpha": 0.5, "out": None}),
    "oracle": (["oracle", "m.json"],
               {"command": "oracle", "model": "m.json", "seed": None, "out": None}),
}

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)


def outcome(call, argv):
    """[value or exit code, stdout, stderr] of ``call(argv)``."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            value = call(argv)
        except SystemExit as e:
            value = e.code
    return [value, out.getvalue(), err.getvalue()]


def parsed(argv, parser_argv):
    """The namespace's repr, or the exit, of the parser built for
    ``parser_argv``: a repr, because ``--alpha nan`` is unequal to itself."""
    return outcome(lambda a: repr(_build_parser(parser_argv).parse_args(a)), argv)


def test_expected_bytes_cover_the_corpus():
    assert sorted(json.loads(EXPECTED.read_text(encoding="utf-8"))) == sorted(CORPUS)


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the bytes were recorded on CPython 3.11; argparse wraps "
                           "the top-level usage line differently on other versions")
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_main_prints_the_recorded_bytes(name, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.chdir(GOLDEN)
    expected = json.loads(EXPECTED.read_text(encoding="utf-8"))[name]
    assert outcome(main, CORPUS[name]) == expected


@pytest.mark.parametrize("command", COMMANDS)
def test_a_minimal_argv_parses_to_the_recorded_defaults(command):
    argv, expected = DEFAULTS[command]
    namespace = vars(_build_parser(argv).parse_args(argv))
    del namespace["handler"]
    # By repr: 5 == 5.0 and False == 0, but their reprs differ.
    assert repr(sorted(namespace.items())) == repr(sorted(expected.items()))


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_parses_alike_with_one_command_or_all(name):
    argv = CORPUS[name]
    assert parsed(argv, argv) == parsed(argv, [])


@st.composite
def broken_argv(draw):
    """The argv of one generated call, as it is or with its syntax broken."""
    _, argv = draw(calls())
    argv = [a.strip("{}") for a in argv]
    how = draw(st.sampled_from(["as-is", "drop-value", "unknown-flag", "text-number",
                                "help", "misspell", "remove-command"]))
    values = [i for i in range(1, len(argv)) if argv[i - 1].startswith("--")
              and not argv[i].startswith("--")]
    numbers = [i for i, a in enumerate(argv) if a.lstrip("-").replace(".", "", 1).isdigit()]
    if how == "drop-value" and values:
        del argv[draw(st.sampled_from(values))]
    elif how == "unknown-flag":
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "--bogus=1", "-z"])))
    elif how == "text-number" and numbers:
        argv[draw(st.sampled_from(numbers))] = "three"
    elif how == "help":
        argv.insert(draw(st.integers(0, len(argv))), "-h")
    elif how == "misspell":
        argv[0] = draw(st.sampled_from([argv[0][:-1], argv[0] + "s", argv[0].upper()]))
    elif how == "remove-command":
        del argv[0]
    return argv


@SETTINGS
@given(broken_argv())
def test_the_one_command_parser_parses_as_the_full_one(argv):
    assert parsed(argv, argv) == parsed(argv, [])


def test_usage_errors_return_2_with_the_usage_on_stderr(capsys):
    for argv in (["--bogus"], [], ["count"], ["count", "fc.json", "--bogus"]):
        assert main(argv) == 2, argv
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("usage: tos-analyzer"), argv


def test_help_returns_0_with_the_help_on_stdout(capsys):
    assert main(["--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: tos-analyzer") and err == ""


@pytest.fixture
def parsers_built(monkeypatch):
    """A list that gets one entry per ArgumentParser constructed."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    return built


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_its_own_parser_and_the_top_one(command, parsers_built,
                                                         capsys, tmp_path):
    name = min(name for name, argv in CASES.items() if argv[0] == command)
    assert main(resolve(CASES[name], tmp_path)) == 0
    assert len(parsers_built) == 2


@pytest.mark.parametrize("argv", [["--help"], ["bogus"], []])
def test_help_and_unknown_commands_build_every_parser(argv, parsers_built, capsys):
    main(argv)
    assert len(parsers_built) == 1 + len(COMMANDS)
