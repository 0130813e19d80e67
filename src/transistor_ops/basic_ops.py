"""Per-layer basic-operation census.

Every layer computation is decomposed into five software-level operation
categories: add, sub, mul, div and root. The root slot is a unified
transcendental category: both exponentials (sigmoid, tanh, GELU) and
square roots land there, priced later by Newton-Raphson simulation.

Activation decompositions (per activated unit):

* sigmoid(x) = 1 / (1 + exp(-x))      -> 1 sub, 1 root, 1 add, 1 div
* gelu(x)    = x * sigmoid(1.702 x)   -> sigmoid ops plus 2 mul
* tanh(x)    = 2 * sigmoid(2 x) - 1   -> sigmoid ops plus 2 mul, 1 sub

Backpropagation is counted per data instance as what a scalar executor
performs: one delta-scale multiply per unit (upstream gradient times the
activation derivative, executed even for the identity activation),
derivative-construction ops per activation kind, weight/bias gradient
accumulation, and the input-delta pass for every layer but the first.
Parameter updates are a separate per-batch census (one multiply and one
subtract per parameter).

Each closed form is written once, as a function on plain
``(add, sub, mul, div, root)`` int tuples; :func:`census` walks a model's
layers with them and feeds both :func:`count_model` and
:func:`transistor_ops.circuits.analyze`. :class:`BasicOpCounts` is built
only at the public boundary, where it validates values given from outside.
All functions are pure; counts are value-independent and validated
against the instrumented scalar executor in :mod:`transistor_ops.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .model import (
    Activation,
    AnalysisLevel,
    FullyConnected,
    LayerSpec,
    Loss,
    ModelSpec,
)


class UnsupportedError(ValueError):
    """The requested analysis is not defined for this layer or level."""


@dataclass(frozen=True)
class BasicOpCounts:
    """Counts of the five basic operations, ordered [add, sub, mul, div, root]."""

    n_add: int = 0
    n_sub: int = 0
    n_mul: int = 0
    n_div: int = 0
    n_root: int = 0

    def __post_init__(self) -> None:
        for name, value in self.__dict__.items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ValueError(f"{name} must be an int, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative, got {value}")

    def __add__(self, other: "BasicOpCounts") -> "BasicOpCounts":
        return BasicOpCounts(*_total((self.as_tuple(), other.as_tuple())))

    def __mul__(self, factor: int) -> "BasicOpCounts":
        if isinstance(factor, bool) or not isinstance(factor, int):
            raise ValueError(f"scale factor must be an int, got {factor!r}")
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return BasicOpCounts(*_scaled(self.as_tuple(), factor))

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n_add, self.n_sub, self.n_mul, self.n_div, self.n_root)


Counts = tuple[int, int, int, int, int]
_ZERO: Counts = (0, 0, 0, 0, 0)

# Forward ops per activated unit, as (add, sub, mul, div, root).
_ACT_FORWARD: dict[Activation, Counts] = {
    Activation.NONE: _ZERO,
    Activation.SIGMOID: (1, 1, 0, 1, 1),
    Activation.GELU: (1, 1, 2, 1, 1),
    Activation.TANH: (1, 2, 2, 1, 1),
}

# Backprop ops per unit: delta-scale multiply plus derivative construction.
#   none:    delta = g * 1                                -> 1 mul
#   sigmoid: s' = y (1 - y)                               -> 1 sub, 2 mul
#   tanh:    t' = 1 - y^2                                 -> 1 sub, 2 mul
#   gelu:    g' = s + u s (1 - s), s and u rebuilt from
#            the stored forward values                    -> 2 sub, 5 mul, 1 div, 1 root
_ACT_BACKWARD: dict[Activation, Counts] = {
    Activation.NONE: (0, 0, 1, 0, 0),
    Activation.SIGMOID: (0, 1, 2, 0, 0),
    Activation.TANH: (0, 1, 2, 0, 0),
    Activation.GELU: (0, 2, 5, 1, 1),
}


def _scaled(counts: Counts, factor: int) -> Counts:
    a, s, m, d, r = counts
    return (a * factor, s * factor, m * factor, d * factor, r * factor)


def _total(vectors: Iterable[Counts]) -> Counts:
    """Componentwise sum of a non-empty sequence of census vectors."""
    return tuple(map(sum, zip(*vectors)))


def scale_to_run(per_instance: Counts, update_per_batch: Counts,
                 model: ModelSpec) -> Counts:
    """Scale a per-instance census to one run: dataset_len * epochs
    instances plus the per-batch update census times every optimizer step."""
    instances, steps = model.instances_per_run, model.steps_per_run
    return tuple(n * instances + u * steps for n, u in zip(per_instance, update_per_batch))


def _forward(layer: LayerSpec) -> tuple[Counts, Counts]:
    """Per-instance forward census and its activation part. Each output
    accumulates its products and adds the bias, so adds == muls."""
    a, s, m, d, r = act = _scaled(_ACT_FORWARD[layer.activation], layer.output_units)
    macs = layer.macs
    return (a + macs, s, m + macs, d, r), act


def _backprop(layer: FullyConnected, is_first_layer: bool) -> tuple[Counts, Counts]:
    """Per-instance backprop census and its activation-derivative part.

    The linear part covers weight-gradient accumulation (I*O mul + I*O
    add), bias-gradient accumulation (O add) and, unless this is the
    first layer, the input-delta pass (I*O mul + I*(O-1) add).
    """
    i, o = layer.inputs, layer.outputs
    a, s, m, d, r = derivative = _scaled(_ACT_BACKWARD[layer.activation], o)
    deltas = 0 if is_first_layer else i  # fan-in of the input-delta pass
    return (a + i * o + o + deltas * (o - 1), s, m + i * o + deltas * o, d, r), derivative


def _update(layer: FullyConnected) -> Counts:
    """Per-batch-step SGD update: each parameter costs one multiply
    (learning rate) and one subtract."""
    params = layer.inputs * layer.outputs + layer.outputs
    return (0, params, params, 0, 0)


def _loss(output_layer: LayerSpec, loss: Loss) -> Counts:
    """MSE over O outputs: O subtractions, O squarings, O-1 accumulation
    adds and one division for the mean."""
    if loss is not Loss.MSE:
        raise UnsupportedError(f"unsupported loss kind: {loss!r}")
    units = output_layer.output_units
    return (units - 1, units, units, 1, 0)


def count_activation(act: Activation, units: int) -> BasicOpCounts:
    """Forward activation ops for ``units`` activated values."""
    if units < 0:
        raise ValueError(f"units must be non-negative, got {units}")
    return BasicOpCounts(*_scaled(_ACT_FORWARD[act], units))


def count_forward(layer: LayerSpec) -> BasicOpCounts:
    """Per-instance forward ops for one layer."""
    return BasicOpCounts(*_forward(layer)[0])


def count_loss(output_layer: LayerSpec, loss: Loss) -> BasicOpCounts:
    """Per-instance loss ops over the output layer's units."""
    return BasicOpCounts(*_loss(output_layer, loss))


def count_backprop(layer: LayerSpec, is_first_layer: bool) -> BasicOpCounts:
    """Per-instance backprop ops for one layer."""
    if not isinstance(layer, FullyConnected):
        raise UnsupportedError("backpropagation counting is defined for "
                               "fully-connected layers only")
    return BasicOpCounts(*_backprop(layer, is_first_layer)[0])


def count_update(layer: LayerSpec) -> BasicOpCounts:
    """Per-batch-step SGD update ops for one layer."""
    if not isinstance(layer, FullyConnected):
        raise UnsupportedError("update counting is defined for "
                               "fully-connected layers only")
    return BasicOpCounts(*_update(layer))


def census(model: ModelSpec, level: AnalysisLevel
           ) -> tuple[list[tuple[Counts, Counts, Counts]], Counts, Counts, Counts]:
    """The model's census at ``level`` as int tuples: the per-layer
    (forward, backprop, update) vectors, the loss, the update total per
    batch step and the per-instance non-linear aggregate. Phases the
    level excludes are zero."""
    training = level.includes_backprop
    layers, nonlinear = [], []
    for index, layer in enumerate(model.layers):
        if training and not isinstance(layer, FullyConnected):
            raise UnsupportedError(f"training-level analysis requires fully-connected "
                                   f"layers only; layer {index + 1} is convolutional")
        forward, act = _forward(layer)
        nonlinear.append(act)
        if training:
            backprop, derivative = _backprop(layer, index == 0)
            nonlinear.append(derivative)
            layers.append((forward, backprop, _update(layer)))
        else:
            layers.append((forward, _ZERO, _ZERO))
    loss = _loss(model.layers[-1], model.loss) if level.includes_loss else _ZERO
    nonlinear.append(loss)
    update = _total(update for _, _, update in layers)
    return layers, loss, update, _total(nonlinear)


@dataclass(frozen=True)
class LayerBoProfile:
    """Per-layer census: forward and backprop are per data instance,
    ``update_per_batch`` is per optimizer step."""

    forward: BasicOpCounts
    backprop: BasicOpCounts
    update_per_batch: BasicOpCounts


@dataclass(frozen=True)
class ModelBoReport:
    """Whole-model census at a given analysis level.

    ``per_instance`` aggregates the per-instance phases the level
    includes; ``per_run`` scales those by dataset_len * epochs and, at
    training level, adds the update census times the total number of
    optimizer steps. The ``nonlinear_*`` aggregates cover everything a
    multiply-accumulate-only count ignores: activations, activation
    derivatives, the loss, and parameter updates.
    """

    layers: tuple[LayerBoProfile, ...]
    loss: BasicOpCounts
    update_per_batch: BasicOpCounts
    per_instance: BasicOpCounts
    per_run: BasicOpCounts
    nonlinear_per_instance: BasicOpCounts
    nonlinear_per_run: BasicOpCounts
    instances_per_run: int
    steps_per_run: int


def count_model(model: ModelSpec, level: AnalysisLevel) -> ModelBoReport:
    """Run the census over every layer and aggregate it for ``level``."""
    layers, loss, update, nonlinear = census(model, level)
    per_instance = _total([phase for layer in layers for phase in layer[:2]] + [loss])
    return ModelBoReport(
        layers=tuple(LayerBoProfile(*(BasicOpCounts(*phase) for phase in layer))
                     for layer in layers),
        loss=BasicOpCounts(*loss),
        update_per_batch=BasicOpCounts(*update),
        per_instance=BasicOpCounts(*per_instance),
        per_run=BasicOpCounts(*scale_to_run(per_instance, update, model)),
        nonlinear_per_instance=BasicOpCounts(*nonlinear),
        nonlinear_per_run=BasicOpCounts(*scale_to_run(nonlinear, update, model)),
        instances_per_run=model.instances_per_run,
        steps_per_run=model.steps_per_run,
    )
