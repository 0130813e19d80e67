"""Properties of the document readers: a model, cost-table or fitted-model
document with any JSON value at any one of its keys either reads to a
value whose fields obey their rules, or raises a ``ValueError``: a
``ParseError`` that names the key, or a ``ValidationError`` for a rule
between fields. No other error escapes."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from transistor_ops import (
    FLOAT_FORMATS,
    Activation,
    FullyConnected,
    Loss,
    ParseError,
    ValidationError,
    parse_cost_table,
    parse_model,
)
from transistor_ops.energy import read_linear_model

from conftest import model_doc

SETTINGS = settings(derandomize=True, max_examples=20, deadline=None)

JSON_VALUES = st.one_of(
    st.integers(-2, 3),
    st.integers(2 ** 63, 10 ** 400),
    st.floats(-1e3, 1e3),
    st.floats(),
    st.booleans(),
    st.none(),
    st.text(max_size=4),
    st.sampled_from(["sigmoid", "mse", "fp16", "fully_connected", "convolutional"]),
    st.lists(st.integers(0, 3), max_size=2),
)


def is_count(value):
    return value.__class__ is int and value >= 1


def is_positive(value):
    return value.__class__ is float and 0.0 < value < math.inf


def valid_model(model):
    assert model.name.__class__ is str and model.name
    assert model.float_format in FLOAT_FORMATS.values() and model.loss is Loss.MSE
    assert all(map(is_count, (model.dataset_len, model.batch_size, model.epochs)))
    assert model.batch_size <= model.dataset_len
    for layer in model.layers:
        assert layer.activation.__class__ is Activation
        assert all(is_count(getattr(layer, f)) for f in layer._fields if f != "activation")
    for a, b in zip(model.layers, model.layers[1:]):
        assert not (isinstance(a, FullyConnected) and isinstance(b, FullyConnected)
                    and a.outputs != b.inputs)


def valid_table(table):
    assert all(map(is_positive, (table.fa_transistors, table.ha_transistors,
                                 table.xor_transistors, table.scaling_exponent,
                                 table.mult_ref.transistors, table.div_ref.transistors)))
    assert all(map(is_count, (table.newton_iterations, table.mult_ref.bits,
                              table.div_ref.bits)))


def valid_line(line):
    assert all(v.__class__ is float and math.isfinite(v) for v in (line.intercept, line.slope))
    assert line.r_squared.__class__ is float and 0.0 <= line.r_squared <= 1.0
    assert is_count(line.n_points) and line.n_points >= 2


TABLE = {"fa": 10, "ha": 5.0, "xor": 6, "mult_ref_bits": 64, "mult_ref_transistors": 9e4,
         "div_ref_bits": 64, "div_ref_transistors": 1.1e5, "scaling_exponent": 2,
         "newton_iterations": 3}
FITTED = {"intercept_j": 2393.0, "slope_j_per_to": 9.6e-6, "r_squared": 0.99, "n_points": 10}

# (reader, the prefix of its errors, a valid document, the rules of a
# result, and every place in the document as a path of keys and indices)
READERS = [
    (parse_model, "", model_doc([4, 3, 1]), valid_model,
     [("name",), ("float_format",), ("loss",), ("training",), ("layers",),
      *(("training", key) for key in ("dataset_len", "batch_size", "epochs")),
      *(("layers", i) for i in (0, 1)),
      *(("layers", i, key) for i in (0, 1)
        for key in ("kind", "inputs", "outputs", "activation"))]),
    (parse_cost_table, "cost table: ", TABLE, valid_table, [(key,) for key in TABLE]),
    (read_linear_model, "fitted model: ", FITTED, valid_line, [(key,) for key in FITTED]),
]
CASES = [(read, prefix, doc, valid, path)
         for read, prefix, doc, valid, paths in READERS for path in paths]


def place(path):
    """The name a reader gives ``path``: ``layers[0].inputs``."""
    text = ""
    for part in path:
        text += f"[{part}]" if isinstance(part, int) else f".{part}" if text else part
    return text


@pytest.mark.parametrize("read,prefix,doc,valid,path", CASES,
                         ids=[f"{c[0].__name__}:{place(c[-1])}" for c in CASES])
@SETTINGS
@given(value=JSON_VALUES)
def test_any_value_at_a_key_reads_to_a_valid_value_or_names_the_key(
        read, prefix, doc, valid, path, value):
    doc = json.loads(json.dumps(doc))
    target = doc
    for part in path[:-1]:
        target = target[part]
    target[path[-1]] = value
    try:
        result = read(json.dumps(doc))
    except ParseError as e:
        named, where = str(e).removeprefix(prefix).partition(": ")[0], place(path)
        # The key, a place in the value set there, or the object whose keys it broke.
        assert named.startswith(where) or where.startswith(named + "."), str(e)
    except ValidationError as e:  # a rule between fields, such as mismatched layers
        assert type(e) is ValidationError and read is parse_model, str(e)
    else:
        valid(result)
