"""The census and its lowering against the benchmark's own reference
(``bench/reference.py``), which keeps every quantity exact with
``fractions.Fraction``: the cost vectors are equal, every census integer
is equal, and every ``analyze`` row, and every row ``tos --raw`` prints,
is within the benchmark's relative tolerance of the exact value. So are
the TOs ``sweep --raw`` prints, and the MACs and FLOPs it prints are the
exact values, rounded once."""

import contextlib
import csv
import io
import itertools
import json
import runpy
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from transistor_ops import (
    FLOAT_FORMATS,
    Activation,
    AnalysisLevel,
    analyze,
    count_model,
    fp_cost_vector,
    parse_model,
)
from transistor_ops.cli import main

REFERENCE = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "reference.py"))

# bench/checks.py's TOS_REL: the tolerance the benchmark holds the TOs to.
TOS_REL = 1e-12

SETTINGS = settings(derandomize=True, max_examples=100, deadline=None)

ACTIVATIONS = st.sampled_from([act.value for act in Activation])


@pytest.mark.parametrize("fmt", sorted(FLOAT_FORMATS))
def test_cost_vector_is_the_exact_reference(fmt):
    assert fp_cost_vector(FLOAT_FORMATS[fmt]) == tuple(map(float, REFERENCE["cost_vector"](fmt)))


@st.composite
def documents(draw, layers):
    dataset_len = draw(st.integers(1, 10 ** 6))
    return {"name": "m", "float_format": draw(st.sampled_from(sorted(FLOAT_FORMATS))),
            "loss": "mse",
            "training": {"dataset_len": dataset_len,
                         "batch_size": draw(st.integers(1, dataset_len)),
                         "epochs": draw(st.integers(1, 1000))},
            "layers": draw(layers)}


def fc_layer(inputs, outputs, activation):
    return {"kind": "fully_connected", "inputs": inputs, "outputs": outputs,
            "activation": activation}


@st.composite
def fc_stacks(draw, max_width=5000, min_layers=1):
    dims = draw(st.lists(st.integers(1, max_width), min_size=min_layers + 1, max_size=7))
    return [fc_layer(i, o, draw(ACTIVATIONS)) for i, o in zip(dims, dims[1:])]


CONV_LAYER = st.builds(
    lambda m, k, c_in, c_out, act: {"kind": "convolutional", "out_width": m, "kernel": k,
                                    "in_channels": c_in, "out_channels": c_out,
                                    "activation": act},
    st.integers(1, 12), st.integers(1, 5), st.integers(1, 8), st.integers(1, 8), ACTIVATIONS)


def conv_fc_stack(convs, fc):
    """``convs`` then ``fc``, whose first layer takes the flattened last convolution."""
    last = convs[-1]
    return [*convs, {**fc[0], "inputs": last["out_width"] ** 2 * last["out_channels"]}, *fc[1:]]


CONV_FC_STACKS = st.builds(conv_fc_stack,
                           st.lists(CONV_LAYER, min_size=1, max_size=3), fc_stacks(64))


def analyze_rows(profile, level):
    """Every (scope, quantity) row of ``tos`` output, from ``profile``."""
    rows = {("per_instance", f"layer_{i}_forward"): value
            for i, value in enumerate(profile.layer_forward, start=1)}
    if level is AnalysisLevel.TRAINING:
        rows.update((("per_instance", f"layer_{i}_backprop"), value)
                    for i, value in enumerate(profile.layer_backprop, start=1))
    instance, run = profile.per_instance, profile.per_run
    rows.update({
        ("per_instance", "forward_total"): instance.forward,
        ("per_instance", "backprop_total"): instance.backprop,
        ("per_instance", "loss"): instance.loss,
        ("per_instance", "total"): instance.total,
        ("per_batch", "update"): profile.update_per_batch,
        ("per_run", "forward_total"): run.forward,
        ("per_run", "backprop_total"): run.backprop,
        ("per_run", "loss"): run.loss,
        ("per_run", "update_total"): run.update,
        ("per_run", "total"): run.total,
        ("per_step", "total"): profile.per_step.total,
        ("all", "nonlinear_share"): profile.nonlinear_share,
    })
    return rows


def printed_rows(argv, doc):
    """The CSV rows below the header that ``main(argv)`` prints, with the
    token ``{doc}`` in ``argv`` naming a file that holds ``doc``."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "model.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        with contextlib.redirect_stdout(out):
            assert main([str(path) if a == "{doc}" else a for a in argv]) == 0
    return list(csv.reader(io.StringIO(out.getvalue())))[1:]


def check_against_reference(doc, level):
    model = parse_model(json.dumps(doc))
    report = count_model(model, level)
    census = REFERENCE["census"](doc, level.value)
    tuples = lambda counts: [c.as_tuple() for c in counts]  # noqa: E731
    assert tuples(p.forward for p in report.layers) == census["forward"]
    assert tuples(p.backprop for p in report.layers) == census["backprop"]
    assert tuples(p.update_per_batch for p in report.layers) == census["update"]
    assert tuples((report.loss, report.update_per_batch, report.per_instance,
                   report.per_run)) == [census["loss"], census["update_total"],
                                        census["per_instance"], census["per_run"]]

    got = analyze_rows(analyze(model, level), level)
    want = REFERENCE["tos_report"](doc, level.value)
    assert got.keys() == want.keys()
    for row, exact in want.items():
        assert got[row] == pytest.approx(float(exact), rel=TOS_REL, abs=0.0), row

    printed = {(scope, quantity): float(value) for scope, quantity, value in
               printed_rows(["tos", "{doc}", "--level", level.value, "--raw"], doc)}
    assert printed.keys() == want.keys()
    for row, exact in want.items():
        assert printed[row] == pytest.approx(float(exact), rel=TOS_REL, abs=0.0), row


@SETTINGS
@given(documents(fc_stacks()), st.sampled_from(list(AnalysisLevel)))
def test_fc_documents_match_the_reference(doc, level):
    check_against_reference(doc, level)


@SETTINGS
@given(documents(CONV_FC_STACKS),
       st.sampled_from([AnalysisLevel.INFERENCE, AnalysisLevel.VALIDATION]))
def test_conv_fc_documents_match_the_reference(doc, level):
    check_against_reference(doc, level)


def member_doc(base, width, activation):
    """The document of the member ``model_family`` builds from ``base``
    at ``width`` with ``activation``."""
    first, *hidden, last = base["layers"]
    return dict(base, layers=[fc_layer(first["inputs"], width, activation),
                              *[fc_layer(width, width, activation) for _ in hidden],
                              fc_layer(width, last["outputs"], last["activation"])])


@settings(SETTINGS, max_examples=30)
@given(documents(fc_stacks(min_layers=2)), st.sampled_from(list(AnalysisLevel)),
       st.integers(1, 5000), st.lists(ACTIVATIONS, min_size=1, max_size=2, unique=True))
def test_sweep_prints_the_reference_workloads(base, level, width, activations):
    widths = [width, width + 1]
    for scale in ("instance", "step", "run"):
        rows = printed_rows(["sweep", "{doc}", "--widths", f"{width}..{width + 1}",
                             "--activations", ",".join(activations), "--level",
                             level.value, "--scale", scale, "--raw"], base)
        members = list(itertools.product(widths, activations))
        assert [(int(row[0]), row[1]) for row in rows] == members
        for (w, act), row in zip(members, rows):
            doc = member_doc(base, w, act)
            exact_tos = float(REFERENCE["tos"](doc, level.value, scale))
            assert float(row[2]) == pytest.approx(exact_tos, rel=TOS_REL, abs=0.0), row
            macs = REFERENCE["macs_at"](doc, level.value, scale)
            assert (float(row[3]), float(row[4])) == (float(macs), float(2 * macs)), row
