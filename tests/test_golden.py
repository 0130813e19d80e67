"""Byte-for-byte CLI output on a fixed fixture set.

Each case runs one command on the inputs under ``tests/golden`` and
compares its stdout (and its ``--svg`` or ``--out`` file, where it
writes one) with the bytes stored under ``tests/golden/expected``. The
stored bytes were produced by an earlier version of the program, so any
change to a printed digit, a row order or a column fails here.

The cases cover every subcommand, fully-connected and conv+FC models,
all three levels and scales, and both ``--raw`` and 6-digit output.
"""

from pathlib import Path

import pytest

from transistor_ops.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"

TRACES = ["m1__r0.csv", "m1__r1.csv", "m1__r2.csv", "m2__r0.csv"]

# name -> argv; bare fixture names resolve under tests/golden, and
# ``{svg}`` / ``{out}`` name a file the command writes.
CASES = {
    "count-fc-inference": ["count", "fc.json"],
    "count-fc-validation": ["count", "fc.json", "--level", "validation"],
    "count-fc-training": ["count", "fc.json", "--level", "training"],
    "count-conv-validation": ["count", "conv.json", "--level", "validation"],
    "tos-fc-training-raw": ["tos", "fc.json", "--level", "training", "--raw"],
    "tos-fc-validation": ["tos", "fc.json", "--level", "validation"],
    "tos-fc16-training-table-raw": ["tos", "fc16.json", "--level", "training",
                                    "--cost-table", "table.json", "--raw"],
    "tos-conv-inference-fp64-raw": ["tos", "conv.json", "--format", "fp64", "--raw"],
    "tos-conv-validation-fp16": ["tos", "conv.json", "--level", "validation",
                                 "--format", "fp16"],
    "tos-fc-training-out": ["tos", "fc.json", "--level", "training", "--out", "{out}"],
    "estimate-models-training-step-raw": ["estimate", "fc.json", "fc16.json",
                                          "--fitted", "fitted.json", "--level",
                                          "training", "--scale", "step", "--raw"],
    "estimate-models-validation-run": ["estimate", "fc.json", "conv.json", "--fitted",
                                       "fitted.json", "--level", "validation",
                                       "--scale", "run"],
    "estimate-conv-instance-table-raw": ["estimate", "conv.json", "--fitted",
                                         "fitted.json", "--cost-table", "table.json",
                                         "--raw"],
    "estimate-tos-file": ["estimate", "--tos-file", "tos.csv", "--fitted", "fitted.json"],
    "estimate-tos-file-and-model-raw": ["estimate", "fc.json", "--tos-file", "tos.csv",
                                        "--fitted", "fitted.json", "--level", "training",
                                        "--scale", "run", "--raw"],
    "sweep-training-step-raw": ["sweep", "base.json", "--widths", "4..9", "--level",
                                "training", "--scale", "step", "--fitted-model",
                                "fitted.json", "--raw", "--svg", "{svg}"],
    "sweep-inference-instance": ["sweep", "base.json", "--widths", "3..6",
                                 "--activations", "sigmoid,gelu", "--svg", "{svg}"],
    "sweep-validation-run-fp16-table": ["sweep", "base.json", "--widths", "10..12",
                                        "--level", "validation", "--scale", "run",
                                        "--format", "fp16", "--cost-table", "table.json",
                                        "--fitted-model", "fitted.json"],
    "sweep-training-run-raw": ["sweep", "base.json", "--widths", "7", "--activations",
                               "tanh,none", "--level", "training", "--scale", "run",
                               "--raw", "--svg", "{svg}"],
    "sweep-family-training-step-raw": ["sweep", "base.json", "--widths", "1..40",
                                       "--activations", "none,sigmoid,tanh,gelu",
                                       "--level", "training", "--scale", "step", "--raw"],
    "compare-raw": ["compare", "pred_tos.csv", "pred_flops.csv", "actual.csv", "--raw"],
    "compare": ["compare", "pred_tos.csv", "pred_flops.csv", "actual.csv"],
    "tradeoff-energy-heavy": ["tradeoff", "candidates.csv", "--alpha", "0.3"],
    "tradeoff-loss-only": ["tradeoff", "candidates.csv", "--alpha", "0.0"],
    "fit": ["fit", "pairs.csv"],
    "ingest": ["ingest", *TRACES, "--trim-k", "0"],
    "ingest-trim-1": ["ingest", *TRACES[:3], "--trim-k", "1"],
    "ingest-adapter": ["ingest", "vendor__r0.csv", "vendor__r1.csv", "--adapter",
                       "adapter.json", "--trim-k", "0"],
    "oracle-fc-seed": ["oracle", "fc.json", "--seed", "3"],
    "oracle-fc16": ["oracle", "fc16.json"],
}


def resolve(argv, tmp_path):
    """Fixture names to paths; placeholders to files under ``tmp_path``."""
    out = []
    for token in argv:
        if token in ("{svg}", "{out}"):
            out.append(str(tmp_path / token.strip("{}")))
        elif (GOLDEN / token).is_file():
            out.append(str(GOLDEN / token))
        else:
            out.append(token)
    return out


@pytest.mark.parametrize("name", sorted(CASES))
def test_output_matches_golden(name, capsys, tmp_path):
    code = main(resolve(CASES[name], tmp_path))
    stdout = capsys.readouterr().out
    assert code == 0
    got = stdout.encode("utf-8")
    if "{out}" in CASES[name]:
        assert got == b""
        got = (tmp_path / "out").read_bytes()
    assert got == (EXPECTED / f"{name}.txt").read_bytes()
    if "{svg}" in CASES[name]:
        assert (tmp_path / "svg").read_bytes() == (EXPECTED / f"{name}.svg").read_bytes()
