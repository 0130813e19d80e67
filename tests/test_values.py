"""Semantics of the package's value classes and plain records.

The nine validated classes share one base (``transistor_ops.model.Value``):
equality and hashing by fields within one class, no assignment, a
``_replace`` that validates the copy again, and a check of every field
that names the field. The plain records are ``NamedTuple``s, so they are
tuples and compare equal to tuples.
"""

import copy
import math
import pickle

import pytest

import transistor_ops
from transistor_ops import (
    Activation,
    AnalysisLevel,
    BasicOpCounts,
    ColumnAdapter,
    Convolutional,
    CostTable,
    DEFAULT_COST_TABLE,
    EnergySample,
    FP32,
    FloatFormat,
    FullyConnected,
    LinearModel,
    Loss,
    ModelSpec,
    ValidationError,
    analyze,
    count_model,
    error_metrics,
    fp_cost_vector,
)
from transistor_ops.model import Value

from conftest import fc_model

# Values a count field (an integer >= 1) rejects, and a number field (finite).
COUNT = (True, 2.5, 0)
NUMBER = (math.nan, math.inf, True)

# Each validated class: a factory for one value, a change that breaks one
# of its rules with the error that rule raises, and for each field the
# values that break its own rule.
VALUES = {
    FloatFormat: (lambda: FloatFormat(8, 23), {"fraction_bits": 0}, ValidationError,
                  {"exponent_bits": COUNT, "fraction_bits": COUNT}),
    FullyConnected: (lambda: FullyConnected(4, 3, Activation.TANH), {"inputs": 0},
                     ValidationError,
                     {"inputs": COUNT, "outputs": COUNT, "activation": ("relu", None)}),
    Convolutional: (lambda: Convolutional(3, 2, 1, 5, Activation.GELU), {"kernel": 0},
                    ValidationError,
                    {"out_width": COUNT, "kernel": COUNT, "in_channels": COUNT,
                     "out_channels": COUNT, "activation": ("relu",)}),
    ModelSpec: (lambda: ModelSpec("m", FP32, [FullyConnected(4, 3), FullyConnected(3, 1)],
                                  dataset_len=10, batch_size=5),
                {"batch_size": 11}, ValidationError,
                {"name": ("", 3), "float_format": ("fp32",),
                 "layers": ((), [FullyConnected(4, 1), {"inputs": 1}]), "loss": ("mae",),
                 "dataset_len": COUNT, "batch_size": COUNT, "epochs": COUNT}),
    BasicOpCounts: (lambda: BasicOpCounts(1, 2, 3, 4, 5), {"n_div": -1}, ValueError,
                    dict.fromkeys(BasicOpCounts.__slots__, (True, 2.5, -1))),
    CostTable: (lambda: CostTable(fa=12.0), {"newton_iterations": 0}, ValueError,
                {"fa": NUMBER + (-1.0,), "ha": NUMBER, "xor": NUMBER,
                 "mult_ref_bits": COUNT, "mult_ref_transistors": NUMBER + (0.0,),
                 "div_ref_bits": COUNT, "div_ref_transistors": NUMBER,
                 "scaling_exponent": NUMBER, "newton_iterations": COUNT}),
    EnergySample: (lambda: EnergySample("m", "r", 1.5), {"joules": math.nan}, ValueError,
                   {"model_id": ("", 1), "run_id": (None,), "joules": NUMBER + (-1.0,)}),
    LinearModel: (lambda: LinearModel(1.0, 2.0, 0.5, 3), {"r_squared": 2.0}, ValueError,
                  {"intercept": NUMBER, "slope": NUMBER, "r_squared": NUMBER,
                   "n_points": COUNT + (1,)}),
    ColumnAdapter: (lambda: ColumnAdapter("System Time", "IA Power", "%H:%M:%S:%f"),
                    {"power_column": "System Time"}, ValidationError,
                    {"time_column": ("", 3), "power_column": (None, "System Time"),
                     "time_format": ("", "%Q", "%", True)}),
}
CLASSES = list(VALUES)
BAD_FIELDS = [(cls, field, value) for cls, (*_, bad) in VALUES.items()
              for field, values in bad.items() for value in values]


def make(cls):
    return VALUES[cls][0]()


def fields_of(value):
    return tuple(getattr(value, name) for name in value._fields)


def _other(field):
    """A different value of the same kind, valid for every first field."""
    if isinstance(field, str):
        return field + "x"
    return field + 1


@pytest.mark.parametrize("cls", CLASSES, ids=lambda c: c.__name__)
class TestValueClass:
    def test_equal_values_are_equal_and_hash_alike(self, cls):
        a, b = make(cls), make(cls)
        assert a is not b
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert {a: "found"}[b] == "found"

    def test_a_changed_field_is_unequal(self, cls):
        value = make(cls)
        name = value._fields[0]
        changed = value._replace(**{name: _other(getattr(value, name))})
        assert changed != value

    def test_never_equal_to_another_class_or_a_tuple(self, cls):
        value = make(cls)
        for other in CLASSES:
            if other is not cls:
                assert value != make(other)
        assert value != fields_of(value)
        assert fields_of(value) != value

    def test_assignment_raises(self, cls):
        value = make(cls)
        name = value._fields[0]
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 1
        assert getattr(value, name) == before

    def test_replace_validates_again(self, cls):
        value = make(cls)
        _, change, error, _ = VALUES[cls]
        assert value._replace() == value
        with pytest.raises(error):
            value._replace(**change)
        with pytest.raises(TypeError):
            value._replace(no_such_field=1)

    def test_repr_names_the_class_and_every_field(self, cls):
        value = make(cls)
        text = repr(value)
        assert text.startswith(f"{cls.__name__}(")
        for name in value._fields:
            assert f"{name}={getattr(value, name)!r}" in text

    def test_copies_and_pickles_are_equal(self, cls):
        value = make(cls)
        assert copy.copy(value) == value
        assert copy.deepcopy(value) == value
        assert pickle.loads(pickle.dumps(value)) == value


@pytest.mark.parametrize("cls,field,value", BAD_FIELDS,
                         ids=[f"{c.__name__}.{f}={v!r}" for c, f, v in BAD_FIELDS])
def test_a_field_that_breaks_its_rule_raises_naming_the_field(cls, field, value):
    with pytest.raises(ValidationError, match=rf"^{field}: "):
        make(cls)._replace(**{field: value})


def test_every_field_has_bad_values():
    for cls, (*_, bad) in VALUES.items():
        assert set(bad) == set(cls._fields)


def test_a_constructor_that_sets_too_few_fields_raises():
    class Pair(Value):
        __slots__ = ("a", "b")

        def __init__(self, a, b):
            self._fill(a)

    with pytest.raises(ValueError):
        Pair(1, 2)


def test_a_model_with_bad_loss_and_training_shape_names_a_field():
    layers = (FullyConnected(2, 1),)
    with pytest.raises(ValidationError, match="^loss: unknown loss 'mae'"):
        ModelSpec("m", FP32, layers, "mae", 2.5, 1, True)
    with pytest.raises(ValidationError, match="^dataset_len: expected an integer, got 2.5"):
        ModelSpec("m", FP32, layers, "mse", 2.5, 1, True)
    with pytest.raises(ValidationError, match="^epochs: expected an integer, got True"):
        ModelSpec("m", FP32, layers, "mse", 2, 1, True)


def test_enum_fields_take_the_member_or_its_value():
    assert FullyConnected(4, 3, "tanh") == make(FullyConnected)
    assert FullyConnected(4, 3, "tanh").activation is Activation.TANH
    assert make(ModelSpec)._replace(loss="mse").loss is Loss.MSE


def test_number_fields_are_floats():
    assert CostTable(fa=12).fa.__class__ is float
    assert LinearModel(1, 2, 1, 3) == LinearModel(1.0, 2.0, 1.0, 3)


def test_model_spec_replace_rechecks_batch_size():
    model = make(ModelSpec)
    with pytest.raises(ValidationError, match="batch_size 11 exceeds dataset_len 10"):
        model._replace(batch_size=model.dataset_len + 1)


def test_model_spec_replace_keeps_layers_a_tuple():
    model = make(ModelSpec)
    assert model._replace(layers=list(model.layers)).layers == model.layers
    assert isinstance(model.layers, tuple)


def test_equal_cost_tables_share_the_cost_vector_cache_entry():
    costs = fp_cost_vector(FP32, DEFAULT_COST_TABLE)
    hits = fp_cost_vector.cache_info().hits
    assert fp_cost_vector(FloatFormat(8, 23), CostTable()) is costs
    assert fp_cost_vector.cache_info().hits == hits + 1


def test_plain_records_are_tuples():
    model = fc_model([4, 4, 1], Activation.SIGMOID)
    report = count_model(model, AnalysisLevel.TRAINING)
    profile = analyze(model, AnalysisLevel.TRAINING)
    tally = transistor_ops.run_training_step(model, [0.3] * 4, [0.5])
    records = [report, report.layers[0], profile, profile.per_run,
               error_metrics([1.0], [2.0]), tally]
    for record in records:
        assert isinstance(record, tuple)
        assert record == tuple(record)
        assert record._replace() == record
    assert profile.per_instance == (profile.per_instance.forward,
                                    profile.per_instance.backprop,
                                    profile.per_instance.loss, 0.0)


def test_oracle_names_are_served_on_first_use():
    from transistor_ops import TrainingStepTally, run_training_step
    from transistor_ops import oracle
    assert run_training_step is oracle.run_training_step
    assert TrainingStepTally is oracle.TrainingStepTally
    with pytest.raises(AttributeError, match="no_such_name"):
        transistor_ops.no_such_name


def test_star_import_gives_every_public_name():
    namespace = {}
    exec("from transistor_ops import *", namespace)
    missing = [name for name in transistor_ops.__all__ if name not in namespace]
    assert missing == []
    assert namespace["CountingScalar"] is transistor_ops.oracle.CountingScalar
