"""Properties of the document readers: a model, cost-table or fitted-model
document with any JSON value at any one of its keys, or at several at
once, either reads to a value whose fields obey their rules, or raises a
``ValueError``: a ``ParseError`` that names a changed key, or a
``ValidationError`` for a rule between fields. No other error escapes.
A cost table's rule between fields is that its operation costs stay
finite in every float format. A document that names every field of a
cost table or a column adapter reads to the value built from it: the
document's keys are the class's fields."""

import json
import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from transistor_ops import (
    FLOAT_FORMATS,
    Activation,
    ColumnAdapter,
    CostTable,
    FullyConnected,
    Loss,
    ParseError,
    ValidationError,
    fp_cost_vector,
    parse_cost_table,
    parse_model,
)
from transistor_ops.energy import parse_adapter, read_linear_model

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
    assert all(map(is_positive, (table.fa, table.ha, table.xor, table.mult_ref_transistors,
                                 table.div_ref_transistors, table.scaling_exponent)))
    assert all(map(is_count, (table.mult_ref_bits, table.div_ref_bits,
                              table.newton_iterations)))
    for fmt in FLOAT_FORMATS.values():
        assert all(map(math.isfinite, fp_cost_vector(fmt, table)))


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


# The start of each reader's message for a rule between fields: any for
# a model (mismatched layers, batch size over dataset length), the
# overflow rule for a cost table, none for a fitted model.
BETWEEN_FIELDS = {parse_model: "",
                  parse_cost_table: "cost table: the operation costs overflow a float at "}


def read_changed(read, prefix, doc, valid, changes):
    """Read ``doc`` with the value of each path in ``changes`` set in it,
    and hold the outcome to the rules in the module notes."""
    doc = json.loads(json.dumps(doc))
    for path, value in changes.items():
        target = doc
        for part in path[:-1]:
            target = target[part]
        target[path[-1]] = value
    try:
        result = read(json.dumps(doc))
    except ParseError as e:
        named = str(e).removeprefix(prefix).partition(": ")[0]
        # A changed key, a place in the value set there, or the object whose keys it broke.
        assert any(named.startswith(where) or where.startswith(named + ".")
                   for where in map(place, changes)), str(e)
    except ValidationError as e:
        assert type(e) is ValidationError and read in BETWEEN_FIELDS, str(e)
        assert str(e).startswith(BETWEEN_FIELDS[read]), str(e)
    else:
        valid(result)


@pytest.mark.parametrize("read,prefix,doc,valid,path", CASES,
                         ids=[f"{c[0].__name__}:{place(c[-1])}" for c in CASES])
@SETTINGS
@given(value=JSON_VALUES)
def test_any_value_at_a_key_reads_to_a_valid_value_or_names_the_key(
        read, prefix, doc, valid, path, value):
    read_changed(read, prefix, doc, valid, {path: value})


@pytest.mark.parametrize("read,prefix,doc,valid,paths", READERS,
                         ids=[r[0].__name__ for r in READERS])
@settings(SETTINGS, max_examples=100)
@given(data=st.data())
def test_values_at_several_keys_read_to_a_valid_value_or_name_a_changed_key(
        read, prefix, doc, valid, paths, data):
    drawn = data.draw(st.dictionaries(st.sampled_from(paths), JSON_VALUES,
                                      min_size=2, max_size=4))
    # A value set at a key replaces whatever was set inside the old value.
    changes = {path: value for path, value in drawn.items()
               if not any(path[:i] in drawn for i in range(1, len(path)))}
    assume(len(changes) >= 2)
    read_changed(read, prefix, doc, valid, changes)


ADAPTER = {"time_column": "System Time", "power_column": "IA Power",
           "time_format": "%H:%M:%S:%f"}
# Every field away from its default, so a key read into the wrong field shows.
ROUND_TRIP_TABLE = {"fa": 12, "ha": 6.5, "xor": 7.0, "mult_ref_bits": 32,
                    "mult_ref_transistors": 8e4, "div_ref_bits": 48,
                    "div_ref_transistors": 1.2e5, "scaling_exponent": 1.5,
                    "newton_iterations": 4}


@pytest.mark.parametrize("read,cls,doc", [(parse_cost_table, CostTable, ROUND_TRIP_TABLE),
                                          (parse_adapter, ColumnAdapter, ADAPTER)],
                         ids=["CostTable", "ColumnAdapter"])
def test_a_document_naming_every_field_reads_to_the_value_built_from_it(read, cls, doc):
    assert set(doc) == set(cls.__slots__)
    value = read(json.dumps(doc))
    assert value == cls(**doc)
    assert {key: getattr(value, key) for key in doc} == doc
