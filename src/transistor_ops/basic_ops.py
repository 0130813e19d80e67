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

Each closed form is written once, in :func:`census`, which walks a
model's layers once on plain ``(add, sub, mul, div, root)`` int tuples
and feeds both :func:`count_model` and
:func:`transistor_ops.circuits.analyze`. :class:`BasicOpCounts` is built
only at the public boundary, where it validates values given from outside.
All functions are pure; counts are value-independent and validated
against the instrumented scalar executor in :mod:`transistor_ops.oracle`.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .model import (
    Activation,
    AnalysisLevel,
    FieldError,
    FullyConnected,
    ModelSpec,
    Value,
    as_int,
)


class UnsupportedError(ValueError):
    """The requested analysis is not defined for this layer or level."""


class BasicOpCounts(Value):
    """Counts of the five basic operations, ordered [add, sub, mul, div, root]."""

    __slots__ = ("n_add", "n_sub", "n_mul", "n_div", "n_root")

    def __init__(self, n_add: int = 0, n_sub: int = 0, n_mul: int = 0,
                 n_div: int = 0, n_root: int = 0) -> None:
        counts = (n_add, n_sub, n_mul, n_div, n_root)
        for name, value in zip(self.__slots__, counts):
            if as_int(value, name) < 0:
                raise FieldError(f"{name}: must be non-negative, got {value}")
        self._fill(*counts)

    def __add__(self, other: "BasicOpCounts") -> "BasicOpCounts":
        return BasicOpCounts(*_total((self.as_tuple(), other.as_tuple())))

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


def _total(vectors: Iterable[Counts]) -> Counts:
    """Componentwise sum of a non-empty sequence of census vectors."""
    return tuple(map(sum, zip(*vectors)))


def scale_to_run(per_instance: Counts, update_per_batch: Counts,
                 instances: int, steps: int) -> Counts:
    """One run's census: the per-instance census times ``instances``
    (dataset_len * epochs) plus the per-batch update times ``steps``."""
    a, s, m, d, r = per_instance
    ua, us, um, ud, ur = update_per_batch
    return (a * instances + ua * steps, s * instances + us * steps, m * instances + um * steps,
            d * instances + ud * steps, r * instances + ur * steps)


def _update(params: int) -> Counts:
    """Per-batch-step SGD update of ``params`` parameters: each costs one
    multiply (learning rate) and one subtract."""
    return (0, params, params, 0, 0)


def census(model: ModelSpec, level: AnalysisLevel
           ) -> tuple[list[tuple[Counts, Counts, Counts]], Counts, Counts, Counts]:
    """The model's census at ``level`` as int tuples: the per-layer
    (forward, backprop, update) vectors, the loss, the update total per
    batch step and the per-instance non-linear aggregate (activations,
    their derivatives and the loss). Phases the level excludes are zero.

    A layer's forward pass is its activation's ops per unit plus its MACs
    (each output adds its products and the bias). Its backprop is the
    derivative ops per unit, the weight and bias gradients (I*O mul, I*O + O
    add) and, but for the first layer, the input deltas (I*O mul, I*(O-1)
    add). The MSE loss over O outputs is O sub, O mul, O-1 add and 1 div.
    """
    training = level.includes_backprop
    units = model.layers[-1].output_units
    loss = (units - 1, units, units, 1, 0) if level.includes_loss else _ZERO
    layers = []
    # The parameters to update and the non-linear census from the loss on, as exact ints.
    params, (na, ns, nm, nd, nr) = 0, loss
    for index, layer in enumerate(model.layers):
        if training and layer.__class__ is not FullyConnected:
            raise UnsupportedError(f"training-level analysis requires fully-connected "
                                   f"layers only; layer {index + 1} is convolutional")
        units, macs = layer.output_units, layer.macs
        a, s, m, d, r = _ACT_FORWARD[layer.activation]
        a, s, m, d, r = a * units, s * units, m * units, d * units, r * units
        na, ns, nm, nd, nr = na + a, ns + s, nm + m, nd + d, nr + r
        forward = (a + macs, s, m + macs, d, r)
        if not training:
            layers.append((forward, _ZERO, _ZERO))
            continue
        a, s, m, d, r = _ACT_BACKWARD[layer.activation]
        a, s, m, d, r = a * units, s * units, m * units, d * units, r * units
        na, ns, nm, nd, nr = na + a, ns + s, nm + m, nd + d, nr + r
        deltas = layer.inputs if index else 0  # fan-in of the input-delta pass
        n = macs + units  # a dense layer's weights and biases
        params += n
        backprop = (a + n + deltas * (units - 1), s, m + macs + deltas * units, d, r)
        layers.append((forward, backprop, _update(n)))
    return layers, loss, _update(params), (na, ns, nm, nd, nr)


class LayerBoProfile(NamedTuple):
    """Per-layer census: forward and backprop are per data instance,
    ``update_per_batch`` is per optimizer step."""

    forward: BasicOpCounts
    backprop: BasicOpCounts
    update_per_batch: BasicOpCounts


class ModelBoReport(NamedTuple):
    """Whole-model census at a given analysis level.

    ``per_instance`` aggregates the per-instance phases the level
    includes; ``per_run`` scales those by dataset_len * epochs and, at
    training level, adds the update census times the total number of
    optimizer steps.
    """

    layers: tuple[LayerBoProfile, ...]
    loss: BasicOpCounts
    update_per_batch: BasicOpCounts
    per_instance: BasicOpCounts
    per_run: BasicOpCounts


def count_model(model: ModelSpec, level: AnalysisLevel) -> ModelBoReport:
    """Run the census over every layer and aggregate it for ``level``."""
    layers, loss, update, _ = census(model, level)
    per_instance = _total([phase for layer in layers for phase in layer[:2]] + [loss])
    return ModelBoReport(
        layers=tuple(LayerBoProfile(*(BasicOpCounts(*phase) for phase in layer))
                     for layer in layers),
        loss=BasicOpCounts(*loss),
        update_per_batch=BasicOpCounts(*update),
        per_instance=BasicOpCounts(*per_instance),
        per_run=BasicOpCounts(*scale_to_run(per_instance, update, model.instances_per_run,
                                            model.steps_per_run)),
    )
