"""Property of the CLI's error path: any argv over generated good and bad
input files exits 0, 2 or 3, lets no exception escape, and writes its
result to ``--out`` or to stdout, never both; a call that fails writes
neither."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from transistor_ops.cli import main

from conftest import model_doc

SETTINGS = settings(derandomize=True, max_examples=150, deadline=None)

# One value at one key of a JSON document. 10**309 is a count too large
# for a float.
VALUES = st.one_of(st.integers(-1, 4), st.sampled_from(
    [2.5, float("nan"), float("inf"), True, None, "", "x", "sigmoid", "fp16", [1], {}]),
    st.just(10 ** 309))

# One CSV cell: numbers good and bad, model ids and junk.
CELLS = st.sampled_from(["0", "1", "2.5", "7", "1e308", "-1e308", "-1", "nan", "inf",
                         "x", "", "a", "b", "c"])

TABLE = {"fa": 10, "ha": 5.0, "mult_ref_bits": 64, "div_ref_transistors": 1.1e5,
         "scaling_exponent": 2, "newton_iterations": 3}
FITTED = {"intercept_j": 2393.0, "slope_j_per_to": 9.6e-6, "r_squared": 0.99,
          "n_points": 10}
ADAPTER = {"time_column": "t", "power_column": "p", "time_format": "seconds"}

# Nesting deeper than the JSON decoder's recursion limit.
DEEP = 100_000


def outputs(name):
    """An output path that can be written, or one under a missing directory."""
    return st.sampled_from(["{%s}" % name, "{missing/%s}" % name])


@st.composite
def documents(draw, doc, paths):
    """``doc`` as JSON bytes: as it is, with a value set at one of
    ``paths`` or arrays nested too deeply there, with its first key
    repeated, cut short, or not UTF-8."""
    how = draw(st.sampled_from(["good", "good", "value", "value", "deep", "repeated",
                                "cut", "bytes"]))
    if how in ("value", "deep"):
        doc = json.loads(json.dumps(doc))
        *parents, key = draw(st.sampled_from(paths))
        target = doc
        for part in parents:
            target = target[part]
        target[key] = draw(VALUES) if how == "value" else "<deep>"
    text = json.dumps(doc).replace('"<deep>"', "[" * DEEP + "]" * DEEP)
    if how == "repeated":
        key, value = next(iter(doc.items()))
        text = "{" + f"{json.dumps(key)}: {json.dumps(value)}, " + text[1:]
    elif how == "cut":
        text = text[:len(text) // 2]
    return (b"\xff" if how == "bytes" else b"") + text.encode()


@st.composite
def models(draw):
    dims = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    doc = model_doc(dims, activation=draw(st.sampled_from(["none", "tanh", "gelu"])))
    if draw(st.booleans()):
        doc["layers"][0] = {"kind": "convolutional", "out_width": 2, "kernel": 1,
                            "in_channels": 1, "out_channels": 1, "activation": "gelu"}
        if len(doc["layers"]) > 1:
            doc["layers"][1]["inputs"] = 4  # the convolution's 2 * 2 * 1 output units
    paths = [(key,) for key in doc] + [("training", key) for key in doc["training"]]
    paths += [("layers", i, key) for i in range(len(doc["layers"]))
              for key in doc["layers"][i]]
    return draw(documents(doc, paths))


def flat(doc):
    return documents(doc, [(key,) for key in doc])


@st.composite
def tables(draw, columns):
    """CSV bytes under a header of ``columns``: models a, b and c with
    good numbers, or rows of any cells, possibly under a short header."""
    if draw(st.booleans()):
        good = st.sampled_from(["1", "2.5", "7"])
        rows = [[model_id if column == "model_id" else draw(good) for column in columns]
                for model_id in "abc"]
    else:
        columns = columns[draw(st.sampled_from([0, 0, 0, 1])):]
        rows = draw(st.lists(st.lists(CELLS, min_size=len(columns), max_size=len(columns)),
                             max_size=5))
    return "\n".join(",".join(row) for row in [columns, *rows]).encode() + b"\n"


@st.composite
def traces(draw, columns):
    """Trace CSV bytes under ``columns``: a good trace, or a table of any cells."""
    if draw(st.integers(0, 2)) == 0:
        return draw(tables(list(columns)))
    watts = draw(st.lists(st.sampled_from(["0", "1.5", "9", "1e308"]), min_size=2,
                          max_size=6))
    return "\n".join([",".join(columns)] + [f"{t},{w}" for t, w in enumerate(watts)]
                     ).encode() + b"\n"


@st.composite
def calls(draw):
    """(file name -> bytes, argv with ``{name}`` for each file) of one call."""
    files = {}

    def put(name, content):
        files[name] = draw(content)
        return "{" + name + "}"

    command = draw(st.sampled_from(["count", "tos", "ingest", "fit", "estimate", "sweep",
                                    "compare", "tradeoff", "oracle"]))
    argv = [command]
    if command in ("count", "tos", "sweep", "oracle"):
        argv.append(put("model.json", models()))
    if command == "estimate":
        argv += [put(f"model{i}.json", models())
                 for i in range(draw(st.integers(0, 2)))]
        argv += ["--fitted", put("fitted.json", flat(FITTED))]
        if draw(st.booleans()):
            argv += ["--tos-file", put("tos.csv", tables(["model_id", "tos"]))]
    if command == "ingest":
        adapter = draw(st.booleans())
        names = draw(st.lists(st.sampled_from(["m__r0", "m__r1", "m__r2", "n"]),
                              min_size=1, max_size=3, unique=True))
        names += draw(st.sampled_from([[], [], [], ["__r0"], ["m__"], ["m__trimmed_mean"]]))
        argv += [put(f"{name}.csv", traces(("t", "p") if adapter else
                                           ("elapsed_s", "power_w"))) for name in names]
        argv += ["--trim-k", draw(st.sampled_from(["0", "0", "1", "-1"]))]
        if adapter:
            argv += ["--adapter", put("adapter.json", flat(ADAPTER))]
    if command == "fit":
        argv.append(put("pairs.csv", tables(["tos", "joules"])))
    if command == "compare":
        argv += [put(f"{name}.csv", tables(["model_id", column])) for name, column in
                 (("tos_pred", "predicted_j"), ("flops_pred", "predicted_j"),
                  ("actual", "joules"))]
    if command == "tradeoff":
        argv += [put("cands.csv", tables(["model_id", "energy_j", "loss"])),
                 "--alpha", draw(st.sampled_from(["0", "0.5", "1", "2", "-1", "nan"]))]
    if command == "sweep":
        argv += ["--widths", draw(st.sampled_from(["1..3", "2", "0..2", "3..1", "x",
                                                  "1..100000"]))]
        if draw(st.booleans()):
            argv += ["--activations", draw(st.sampled_from(["tanh,gelu", "tanh,tanh",
                                                            "foo", " , "]))]
        if draw(st.booleans()):
            argv += ["--fitted-model", put("fitted.json", flat(FITTED))]
        if draw(st.booleans()):
            argv += ["--svg", draw(outputs("svg"))]
    if command == "oracle" and draw(st.booleans()):
        argv += ["--seed", "3"]
    if command in ("count", "tos", "estimate", "sweep"):
        argv += ["--level", draw(st.sampled_from(["inference", "validation", "training"]))]
    if command in ("tos", "estimate", "sweep"):
        if draw(st.booleans()):
            argv += ["--cost-table", put("table.json", flat(TABLE))]
        if draw(st.booleans()):
            argv += ["--format", draw(st.sampled_from(["fp16", "fp64"]))]
        if draw(st.booleans()):
            argv.append("--raw")
    if command in ("estimate", "sweep"):
        argv += ["--scale", draw(st.sampled_from(["instance", "step", "run"]))]
    if command != "tradeoff" and draw(st.booleans()):
        argv += ["--out", draw(outputs("out"))]
    return files, argv


@SETTINGS
@given(calls())
def test_any_call_exits_0_2_or_3_and_never_raises(call):
    files, argv = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        for name, content in files.items():
            (Path(directory) / name).write_bytes(content)
        argv = [str(Path(directory) / a[1:-1]) if a.startswith("{") else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        wrote_out = (Path(directory) / "out").exists()
    assert code in (0, 2, 3), (argv, err.getvalue())
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), argv
        assert not wrote_out, argv
    else:
        assert wrote_out == ("--out" in argv) == (out.getvalue() == ""), argv
