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
from contextlib import contextmanager
from enum import Enum
from operator import attrgetter
from typing import IO, Any, Callable, Iterator, Sequence, TypeVar

T = TypeVar("T")
E = TypeVar("E", bound=Enum)


class ParseError(ValueError):
    """The document text or structure is malformed."""


class ValidationError(ValueError):
    """A value breaks a rule: one field's own, or one between fields,
    such as mismatched layer dimensions."""


class FieldError(ValidationError):
    """One field's value breaks the field's own rule; the message is
    ``<field>: <problem>``."""


def as_int(value: Any, name: str) -> int:
    """An integer; bools and fractional numbers are rejected."""
    if value.__class__ is not int and (isinstance(value, bool) or not isinstance(value, int)):
        raise FieldError(f"{name}: expected an integer, got {value!r}")
    return value


def as_count(value: Any, name: str) -> int:
    """An integer >= 1."""
    if as_int(value, name) < 1:
        raise FieldError(f"{name}: must be >= 1, got {value}")
    return value


def as_number(value: Any, name: str) -> float:
    """A finite number as a float; bools, NaN and infinities are rejected."""
    if ((value.__class__ is float or isinstance(value, (int, float))
         and not isinstance(value, bool)) and abs(value) <= sys.float_info.max):
        return float(value)
    raise FieldError(f"{name}: expected a finite number, got {value!r}")


def as_positive(value: Any, name: str) -> float:
    """A finite number > 0 as a float."""
    value = as_number(value, name)
    if value <= 0:
        raise FieldError(f"{name}: must be positive, got {value}")
    return value


def as_member(value: Any, enum: type[E], name: str) -> E:
    """A member of ``enum``, given as itself or as its value."""
    if value.__class__ is enum:
        return value
    try:
        return enum(value)
    except ValueError:
        names = ", ".join(member.value for member in enum)
        raise FieldError(f"{name}: unknown {name} {value!r} (one of: {names})") from None


def as_name(value: Any, name: str) -> str:
    """A non-empty string."""
    if not (isinstance(value, str) and value):
        raise FieldError(f"{name}: expected a non-empty string, got {value!r}")
    return value


class Value:
    """Base of the immutable value classes that validate their fields.

    A subclass lists its fields, two or more, in ``__slots__`` (so the
    per-class ``attrgetter`` returns a tuple); its ``__init__`` checks
    each one, raising :class:`FieldError` naming the field, and sets
    them all with :meth:`_fill`. Instances compare equal only to
    instances of the same class with equal fields, hash by their fields,
    and refuse assignment. :meth:`_replace`, ``copy`` and ``pickle``
    build new instances through ``__init__``, so every copy is validated
    again.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        cls._fields = cls.__slots__
        cls._key = attrgetter(*cls.__slots__)
        cls._setters = tuple(vars(cls)[name].__set__ for name in cls.__slots__)

    def _fill(self, *values) -> None:
        """Set the fields to ``values``, in ``__slots__`` order."""
        for set_field, value in zip(self._setters, values, strict=True):
            set_field(self, value)

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
        if as_count(sign_bits, "sign_bits") != 1:
            raise FieldError(f"sign_bits: float formats carry exactly one sign bit, "
                             f"got {sign_bits}")
        self._fill(as_count(exponent_bits, "exponent_bits"),
                   as_count(fraction_bits, "fraction_bits"), sign_bits)

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
        self._fill(as_count(inputs, "inputs"), as_count(outputs, "outputs"),
                   as_member(activation, Activation, "activation"))

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
        self._fill(as_count(out_width, "out_width"), as_count(kernel, "kernel"),
                   as_count(in_channels, "in_channels"),
                   as_count(out_channels, "out_channels"),
                   as_member(activation, Activation, "activation"))

    @property
    def output_units(self) -> int:
        return self.out_width * self.out_width * self.out_channels

    @property
    def macs(self) -> int:
        """Multiply-accumulates of one forward pass over one instance."""
        return (self.out_width ** 2 * self.out_channels
                * self.in_channels * self.kernel ** 2)


LayerSpec = FullyConnected | Convolutional

# The layer class of each layer document ``kind``; the document's other
# keys are the class's fields.
LAYER_KINDS = {"fully_connected": FullyConnected, "convolutional": Convolutional}
_KIND_OF = {cls: kind for kind, cls in LAYER_KINDS.items()}


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
        name = as_name(name, "name")
        if not isinstance(float_format, FloatFormat):
            raise FieldError(f"float_format: expected a FloatFormat, got {float_format!r}")
        layers = tuple(layers)
        if not layers:
            raise FieldError("layers: a model needs at least one layer")
        for i, layer in enumerate(layers):
            if layer.__class__ not in _KIND_OF:
                raise FieldError(f"layers: item {i} is not a layer, got {layer!r}")
        self._fill(name, float_format, layers, as_member(loss, Loss, "loss"),
                   as_count(dataset_len, "dataset_len"), as_count(batch_size, "batch_size"),
                   as_count(epochs, "epochs"))
        for i, (a, b) in enumerate(zip(layers, layers[1:]), start=1):
            if a.__class__ is b.__class__ is FullyConnected and a.outputs != b.inputs:
                raise ValidationError(f"layer {i} produces {a.outputs} outputs but "
                                      f"layer {i + 1} expects {b.inputs} inputs")
        if batch_size > dataset_len:
            raise ValidationError(
                f"batch_size {batch_size} exceeds dataset_len {dataset_len}"
            )

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
    unknown = obj.keys() - allowed
    if unknown:
        raise ParseError(f"{where}: unknown key(s) {', '.join(sorted(unknown))}")
    missing = required - obj.keys()
    if missing:
        raise ParseError(f"{where}: missing key(s) {', '.join(sorted(missing))}")


def unique_dict(pairs: list[tuple[Any, T]], what: str = "key") -> dict[Any, T]:
    """``pairs`` as a dict; a key given twice is a :class:`ParseError`
    that names the first such key as ``duplicate <what> <key>``."""
    doc = dict(pairs)
    if len(doc) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ParseError(f"duplicate {what} {next(k for k in keys if keys.count(k) > 1)!r}")
    return doc


def parse_json_object(text: str, where: str) -> dict:
    """Decode a JSON document whose root must be an object, with no key
    repeated in any object."""
    try:
        doc = json.loads(text, object_pairs_hook=unique_dict)
    except json.JSONDecodeError as e:
        raise ParseError(f"line {e.lineno}, column {e.colno}: {e.msg}") from None
    if not isinstance(doc, dict):
        raise ParseError(f"{where}: expected an object")
    return doc


@contextmanager
def located(where: str) -> Iterator[None]:
    """Put ``where: `` in front of an input error raised inside; each keeps
    its class, but a Unicode or CSV quoting error becomes a :class:`ParseError`,
    and an ``OverflowError`` (a count too large for a float) says so."""
    try:
        yield
    except (UnicodeError, csv.Error) as e:
        raise ParseError(f"{where}: {e}") from None
    except ValueError as e:
        raise type(e)(f"{where}: {e}") from None
    except OverflowError:
        raise OverflowError(f"{where}: the workload overflows a float") from None


def read_document(path, parse: Callable[[IO[str]], T]) -> T:
    """Open the input file at ``path`` and parse it with ``parse``; any
    input error is re-raised with the file path in front."""
    with open(path, "r", encoding="utf-8", newline="") as fh, located(path):
        return parse(fh)


def placed(place: Callable[[str], str], build: Callable[..., T], *args, **kwargs) -> T:
    """``build(*args, **kwargs)``, with a :class:`FieldError` raised again
    as a :class:`ParseError` that names where the field sits in the
    document, ``place(field)``."""
    try:
        return build(*args, **kwargs)
    except FieldError as e:
        field, _, problem = str(e).partition(": ")
        raise ParseError(f"{place(field)}: {problem}") from None


def _parse_layer(obj: Any, index: int) -> LayerSpec:
    where = f"layers[{index}]"
    if not isinstance(obj, dict):
        raise ParseError(f"{where}: expected an object")
    kind = obj.get("kind")
    cls = LAYER_KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ParseError(f"{where}.kind: expected one of {sorted(LAYER_KINDS)}, got {kind!r}")
    keys = {"kind", *cls.__slots__}
    check_keys(obj, keys, keys, where)
    return placed(lambda field: f"{where}.{field}", cls, *map(obj.get, cls.__slots__))


_MODEL_KEYS = {"name", "float_format", "loss", "training", "layers"}
_TRAINING_KEYS = {"dataset_len", "batch_size", "epochs"}


def parse_model(text: str) -> ModelSpec:
    """Parse a model document into a validated :class:`ModelSpec`.

    Raises :class:`ParseError` for malformed documents and bad field
    values (naming the key) and :class:`ValidationError` for
    structurally inconsistent models, e.g. mismatched layer dimensions.
    """
    doc = parse_json_object(text, "document root")
    check_keys(doc, _MODEL_KEYS, _MODEL_KEYS, "document root")
    fmt_key = doc["float_format"]
    if not (isinstance(fmt_key, str) and fmt_key in FLOAT_FORMATS):
        raise ParseError(f"float_format: expected one of {sorted(FLOAT_FORMATS)}, got {fmt_key!r}")
    training = doc["training"]
    if not isinstance(training, dict):
        raise ParseError("training: expected an object")
    check_keys(training, _TRAINING_KEYS, _TRAINING_KEYS, "training")
    layers = doc["layers"]
    if not isinstance(layers, list):
        raise ParseError("layers: expected a list")
    return placed(lambda field: f"training.{field}" if field in training else field,
                  ModelSpec, doc["name"], FLOAT_FORMATS[fmt_key],
                  [_parse_layer(layer, i) for i, layer in enumerate(layers)],
                  doc["loss"], **training)


def parse_model_file(path) -> ModelSpec:
    return read_document(path, lambda fh: parse_model(fh.read()))


def _layer_to_doc(layer: LayerSpec) -> dict:
    return {"kind": _KIND_OF[layer.__class__], **dict(zip(layer._fields, layer._key(layer)))}


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
    first, last = base.layers[0], base.layers[-1]
    hidden = len(base.layers) - 2
    family = []
    for width in widths:
        output = FullyConnected(width, last.outputs, last.activation)
        for act in activations:
            # Values are immutable, so the hidden layers share one instance.
            layers = (FullyConnected(first.inputs, width, act),
                      *[FullyConnected(width, width, act)] * hidden, output)
            family.append(ModelSpec(f"{base.name}-w{width}-{act.value}", base.float_format,
                                    layers, base.loss, base.dataset_len, base.batch_size,
                                    base.epochs))
    return family
