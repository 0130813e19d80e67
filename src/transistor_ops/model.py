"""Architecture descriptions and their on-disk document format.

A model document is a strict JSON object describing an ordered stack of
fully-connected and convolutional layers, the floating-point format the
model computes in, and the training shape (dataset length, batch size,
epochs) used to scale per-instance workloads up to full runs.

Parsing is strict: unknown keys are rejected at every level so typos
surface immediately instead of being silently ignored.

All types are immutable after construction; parsing and family
generation are pure functions, so values can be shared freely across
threads.
"""

from __future__ import annotations

import csv
import json
import sys
from enum import Enum
from operator import attrgetter
from typing import IO, Any, Callable, Sequence, TypeVar

T = TypeVar("T")


class ParseError(ValueError):
    """The document text or structure is malformed."""


class ValidationError(ValueError):
    """The document parsed but describes an inconsistent model."""


# How a value class's __init__ sets a field past Value.__setattr__.
_set = object.__setattr__


class Value:
    """Base of the immutable value classes that validate their fields.

    A subclass lists its fields, two or more, in ``__slots__`` (so the
    per-class ``attrgetter`` returns a tuple) and sets each one in its
    own ``__init__`` through ``object.__setattr__``. Instances compare
    equal only to instances of the same class with equal fields, hash by
    their fields, and refuse assignment. :meth:`_replace`, ``copy`` and
    ``pickle`` build new instances through ``__init__``, so every copy
    is validated again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__slots__
        cls._key = attrgetter(*cls.__slots__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}"
                           for name, value in zip(self._fields, self._key(self)))
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self):
        return type(self), self._key(self)

    def _replace(self, **changes):
        """A copy with ``changes`` applied, validated like a new value."""
        return type(self)(**dict(zip(self._fields, self._key(self)), **changes))


class FloatFormat(Value):
    """IEEE-754 style binary float layout: sign, exponent, fraction bits."""

    __slots__ = ("exponent_bits", "fraction_bits", "sign_bits")

    def __init__(self, exponent_bits: int, fraction_bits: int, sign_bits: int = 1) -> None:
        if sign_bits != 1:
            raise ValidationError("float formats carry exactly one sign bit")
        if exponent_bits < 1 or fraction_bits < 1:
            raise ValidationError("exponent and fraction need at least one bit each")
        _set(self, "exponent_bits", exponent_bits)
        _set(self, "fraction_bits", fraction_bits)
        _set(self, "sign_bits", sign_bits)

    @property
    def significand_bits(self) -> int:
        """Fraction width plus the implicit leading bit."""
        return self.fraction_bits + 1


FP16 = FloatFormat(exponent_bits=5, fraction_bits=10)
FP32 = FloatFormat(exponent_bits=8, fraction_bits=23)
FP64 = FloatFormat(exponent_bits=11, fraction_bits=52)

FLOAT_FORMATS = {"fp16": FP16, "fp32": FP32, "fp64": FP64}


class Activation(str, Enum):
    NONE = "none"
    SIGMOID = "sigmoid"
    TANH = "tanh"
    GELU = "gelu"


class Loss(str, Enum):
    MSE = "mse"


class AnalysisLevel(str, Enum):
    """Which run steps are counted.

    Inference covers the forward pass only; validation adds the loss
    evaluation; training additionally covers backpropagation and the
    per-batch parameter updates.
    """

    INFERENCE = "inference"
    VALIDATION = "validation"
    TRAINING = "training"

    @property
    def includes_loss(self) -> bool:
        return self is not AnalysisLevel.INFERENCE

    @property
    def includes_backprop(self) -> bool:
        return self is AnalysisLevel.TRAINING


class FullyConnected(Value):
    """Dense layer with ``inputs`` fan-in and ``outputs`` units."""

    __slots__ = ("inputs", "outputs", "activation")

    def __init__(self, inputs: int, outputs: int,
                 activation: Activation = Activation.NONE) -> None:
        if inputs < 1 or outputs < 1:
            raise ValidationError("fully-connected dimensions must be >= 1")
        _set(self, "inputs", inputs)
        _set(self, "outputs", outputs)
        _set(self, "activation", activation)

    @property
    def output_units(self) -> int:
        return self.outputs

    @property
    def macs(self) -> int:
        """Multiply-accumulates of one forward pass over one instance."""
        return self.inputs * self.outputs


class Convolutional(Value):
    """2-D convolution described by its output window and kernel shape."""

    __slots__ = ("out_width", "kernel", "in_channels", "out_channels", "activation")

    def __init__(self, out_width: int, kernel: int, in_channels: int, out_channels: int,
                 activation: Activation = Activation.NONE) -> None:
        if any(d < 1 for d in (out_width, kernel, in_channels, out_channels)):
            raise ValidationError("convolutional dimensions must be >= 1")
        _set(self, "out_width", out_width)
        _set(self, "kernel", kernel)
        _set(self, "in_channels", in_channels)
        _set(self, "out_channels", out_channels)
        _set(self, "activation", activation)

    @property
    def output_units(self) -> int:
        return self.out_width * self.out_width * self.out_channels

    @property
    def macs(self) -> int:
        """Multiply-accumulates of one forward pass over one instance."""
        return (self.out_width ** 2 * self.out_channels
                * self.in_channels * self.kernel ** 2)


LayerSpec = FullyConnected | Convolutional


class ModelSpec(Value):
    """A validated architecture description.

    ``dataset_len``, ``batch_size`` and ``epochs`` describe one training
    run; they only affect run-level workload scaling, never per-instance
    counts.
    """

    __slots__ = ("name", "float_format", "layers", "loss",
                 "dataset_len", "batch_size", "epochs")

    def __init__(self, name: str, float_format: FloatFormat,
                 layers: tuple[LayerSpec, ...], loss: Loss = Loss.MSE,
                 dataset_len: int = 1, batch_size: int = 1, epochs: int = 1) -> None:
        layers = tuple(layers)
        if not name:
            raise ValidationError("model name must be non-empty")
        if not layers:
            raise ValidationError("model needs at least one layer")
        for i in range(len(layers) - 1):
            a, b = layers[i], layers[i + 1]
            if isinstance(a, FullyConnected) and isinstance(b, FullyConnected):
                if a.outputs != b.inputs:
                    raise ValidationError(
                        f"layer {i + 1} produces {a.outputs} outputs but "
                        f"layer {i + 2} expects {b.inputs} inputs"
                    )
        for field, value in (("dataset_len", dataset_len), ("batch_size", batch_size),
                             ("epochs", epochs)):
            if value < 1:
                raise ValidationError(f"{field} must be >= 1")
        if batch_size > dataset_len:
            raise ValidationError(
                f"batch_size {batch_size} exceeds dataset_len {dataset_len}"
            )
        _set(self, "name", name)
        _set(self, "float_format", float_format)
        _set(self, "layers", layers)
        _set(self, "loss", loss)
        _set(self, "dataset_len", dataset_len)
        _set(self, "batch_size", batch_size)
        _set(self, "epochs", epochs)

    @property
    def steps_per_epoch(self) -> int:
        """Optimizer steps per epoch: ceil(dataset_len / batch_size), in integers."""
        return -(-self.dataset_len // self.batch_size)

    @property
    def instances_per_run(self) -> int:
        """Data instances one run processes: dataset_len * epochs."""
        return self.dataset_len * self.epochs

    @property
    def steps_per_run(self) -> int:
        """Optimizer steps in one run: steps_per_epoch * epochs."""
        return self.steps_per_epoch * self.epochs

    def with_float_format(self, fmt: FloatFormat) -> "ModelSpec":
        return self._replace(float_format=fmt)


def check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    """Reject keys outside ``allowed`` and report any of ``required`` missing."""
    unknown = sorted(set(obj) - allowed)
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {', '.join(unknown)}")
    missing = sorted(required - set(obj))
    if missing:
        raise ParseError(f"{where}: missing key(s) {', '.join(missing)}")


def as_count(value: Any, where: str) -> int:
    """A JSON integer >= 1; bools and fractional numbers are rejected."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer, got {value!r}")
    if value < 1:
        raise ParseError(f"{where}: must be >= 1, got {value}")
    return value


def as_number(value: Any, where: str) -> float:
    """A finite JSON number as a float; bools, NaN and infinities are rejected."""
    if (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max):
        return float(value)
    raise ParseError(f"{where}: expected a finite number, got {value!r}")


def parse_json_object(text: str, where: str) -> dict:
    """Decode a JSON document whose root must be an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    return doc


def read_document(path, parse: Callable[[IO[str]], T]) -> T:
    """Open the input file at ``path`` and parse it with ``parse``; any
    input error is re-raised with the file path in front."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            return parse(fh)
        except (ParseError, ValidationError) as e:
            raise type(e)(f"{path}: {e}") from None
        except (UnicodeDecodeError, csv.Error) as e:
            raise ParseError(f"{path}: {e}") from None


def _as_activation(value: Any, where: str) -> Activation:
    try:
        return Activation(value)
    except ValueError:
        names = ", ".join(a.value for a in Activation)
        raise ParseError(f"{where}: unknown activation {value!r} (one of: {names})") from None


def _parse_layer(obj: Any, index: int) -> LayerSpec:
    where = f"layers[{index}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    kind = obj.get("kind")
    if kind == "fully_connected":
        check_keys(obj, {"kind", "inputs", "outputs", "activation"},
                    {"kind", "inputs", "outputs", "activation"}, where)
        return FullyConnected(
            inputs=as_count(obj["inputs"], f"{where}.inputs"),
            outputs=as_count(obj["outputs"], f"{where}.outputs"),
            activation=_as_activation(obj["activation"], f"{where}.activation"),
        )
    if kind == "convolutional":
        check_keys(obj, {"kind", "out_width", "kernel", "in_channels", "out_channels", "activation"},
                    {"kind", "out_width", "kernel", "in_channels", "out_channels", "activation"}, where)
        return Convolutional(
            out_width=as_count(obj["out_width"], f"{where}.out_width"),
            kernel=as_count(obj["kernel"], f"{where}.kernel"),
            in_channels=as_count(obj["in_channels"], f"{where}.in_channels"),
            out_channels=as_count(obj["out_channels"], f"{where}.out_channels"),
            activation=_as_activation(obj["activation"], f"{where}.activation"),
        )
    raise ParseError(f"{where}.kind: expected 'fully_connected' or 'convolutional', got {kind!r}")


def parse_model(text: str) -> ModelSpec:
    """Parse a model document into a validated :class:`ModelSpec`.

    Raises :class:`ParseError` for malformed documents (with line/field
    context) and :class:`ValidationError` for structurally inconsistent
    models, e.g. mismatched layer dimensions.
    """
    doc = parse_json_object(text, "document root")
    check_keys(doc, {"name", "float_format", "loss", "training", "layers"},
                {"name", "float_format", "loss", "training", "layers"}, "document root")
    name = doc["name"]
    if not isinstance(name, str) or not name:
        raise ParseError("name: expected a non-empty string")
    fmt_key = doc["float_format"]
    if fmt_key not in FLOAT_FORMATS:
        raise ParseError(f"float_format: expected one of {sorted(FLOAT_FORMATS)}, got {fmt_key!r}")
    try:
        loss = Loss(doc["loss"])
    except ValueError:
        raise ParseError(f"loss: unknown loss kind {doc['loss']!r} (one of: "
                         f"{', '.join(l.value for l in Loss)})") from None
    training = doc["training"]
    if not isinstance(training, dict):
        raise ParseError("training: expected an object")
    check_keys(training, {"dataset_len", "batch_size", "epochs"},
                {"dataset_len", "batch_size", "epochs"}, "training")
    layers_doc = doc["layers"]
    if not isinstance(layers_doc, list) or not layers_doc:
        raise ParseError("layers: expected a non-empty list")
    layers = tuple(_parse_layer(layer, i) for i, layer in enumerate(layers_doc))
    return ModelSpec(
        name=name,
        float_format=FLOAT_FORMATS[fmt_key],
        layers=layers,
        loss=loss,
        dataset_len=as_count(training["dataset_len"], "training.dataset_len"),
        batch_size=as_count(training["batch_size"], "training.batch_size"),
        epochs=as_count(training["epochs"], "training.epochs"),
    )


def parse_model_file(path) -> ModelSpec:
    return read_document(path, lambda fh: parse_model(fh.read()))


def _layer_to_doc(layer: LayerSpec) -> dict:
    if isinstance(layer, FullyConnected):
        return {"kind": "fully_connected", "inputs": layer.inputs,
                "outputs": layer.outputs, "activation": layer.activation.value}
    return {"kind": "convolutional", "out_width": layer.out_width, "kernel": layer.kernel,
            "in_channels": layer.in_channels, "out_channels": layer.out_channels,
            "activation": layer.activation.value}


def serialize_model(model: ModelSpec) -> str:
    """Inverse of :func:`parse_model`: reparsing the output yields an equal spec."""
    fmt_key = next(k for k, v in FLOAT_FORMATS.items() if v == model.float_format)
    doc = {
        "name": model.name,
        "float_format": fmt_key,
        "loss": model.loss.value,
        "training": {"dataset_len": model.dataset_len, "batch_size": model.batch_size,
                     "epochs": model.epochs},
        "layers": [_layer_to_doc(layer) for layer in model.layers],
    }
    return json.dumps(doc, indent=2) + "\n"


def model_family(base: ModelSpec, widths: Sequence[int],
                 activations: Sequence[Activation]) -> list[ModelSpec]:
    """Generate the width x activation sweep family around ``base``.

    Every hidden layer is resized to each width and re-activated with
    each activation; the first layer keeps the base fan-in, the last
    layer keeps the base fan-out and its original activation. Output
    order is width-major, then activations in the order given.
    """
    widths = list(widths)
    activations = list(activations)
    if not widths or not activations:
        raise ValueError("widths and activations must be non-empty")
    if len(base.layers) < 2:
        raise ValueError("base model needs at least one hidden layer")
    if not all(isinstance(layer, FullyConnected) for layer in base.layers):
        raise ValueError("family generation is defined for fully-connected models only")
    first = base.layers[0]
    last = base.layers[-1]
    depth = len(base.layers)
    family = []
    for width in widths:
        for act in activations:
            layers = []
            for i in range(depth):
                inputs = first.inputs if i == 0 else width
                outputs = last.outputs if i == depth - 1 else width
                activation = last.activation if i == depth - 1 else act
                layers.append(FullyConnected(inputs, outputs, activation))
            family.append(base._replace(name=f"{base.name}-w{width}-{act.value}",
                                        layers=tuple(layers)))
    return family
