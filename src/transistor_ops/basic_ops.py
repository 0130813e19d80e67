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

All functions are pure; counts are value-independent and validated
against the instrumented scalar executor in :mod:`transistor_ops.oracle`.
"""

from __future__ import annotations

from dataclasses import dataclass

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
        return BasicOpCounts(
            self.n_add + other.n_add,
            self.n_sub + other.n_sub,
            self.n_mul + other.n_mul,
            self.n_div + other.n_div,
            self.n_root + other.n_root,
        )

    def __mul__(self, factor: int) -> "BasicOpCounts":
        if isinstance(factor, bool) or not isinstance(factor, int):
            raise ValueError(f"scale factor must be an int, got {factor!r}")
        if factor < 0:
            raise ValueError(f"scale factor must be non-negative, got {factor}")
        return BasicOpCounts(
            self.n_add * factor,
            self.n_sub * factor,
            self.n_mul * factor,
            self.n_div * factor,
            self.n_root * factor,
        )

    __rmul__ = __mul__

    def as_tuple(self) -> tuple[int, int, int, int, int]:
        return (self.n_add, self.n_sub, self.n_mul, self.n_div, self.n_root)


# Forward ops per activated unit.
_ACT_FORWARD = {
    Activation.NONE: BasicOpCounts(),
    Activation.SIGMOID: BasicOpCounts(n_add=1, n_sub=1, n_div=1, n_root=1),
    Activation.GELU: BasicOpCounts(n_add=1, n_sub=1, n_mul=2, n_div=1, n_root=1),
    Activation.TANH: BasicOpCounts(n_add=1, n_sub=2, n_mul=2, n_div=1, n_root=1),
}

# Backprop ops per unit: delta-scale multiply plus derivative construction.
#   none:    delta = g * 1                                -> 1 mul
#   sigmoid: s' = y (1 - y)                               -> 1 sub, 2 mul
#   tanh:    t' = 1 - y^2                                 -> 1 sub, 2 mul
#   gelu:    g' = s + u s (1 - s), s and u rebuilt from
#            the stored forward values                    -> 2 sub, 5 mul, 1 div, 1 root
_ACT_BACKWARD = {
    Activation.NONE: BasicOpCounts(n_mul=1),
    Activation.SIGMOID: BasicOpCounts(n_sub=1, n_mul=2),
    Activation.TANH: BasicOpCounts(n_sub=1, n_mul=2),
    Activation.GELU: BasicOpCounts(n_sub=2, n_mul=5, n_div=1, n_root=1),
}


def count_activation(act: Activation, units: int) -> BasicOpCounts:
    """Forward activation ops for ``units`` activated values."""
    if units < 0:
        raise ValueError(f"units must be non-negative, got {units}")
    return _ACT_FORWARD[act] * units


def count_forward_parts(layer: LayerSpec) -> tuple[BasicOpCounts, BasicOpCounts]:
    """Forward census split into (linear multiply-accumulate, activation) parts."""
    # Each output accumulates its products and adds the bias, so adds == muls.
    linear = BasicOpCounts(n_add=layer.macs, n_mul=layer.macs)
    return linear, count_activation(layer.activation, layer.output_units)


def count_forward(layer: LayerSpec) -> BasicOpCounts:
    """Per-instance forward ops for one layer."""
    linear, act = count_forward_parts(layer)
    return linear + act


def count_loss(output_layer: LayerSpec, loss: Loss) -> BasicOpCounts:
    """Per-instance loss ops over the output layer's units.

    MSE over O outputs: O subtractions, O squarings, O-1 accumulation
    adds and one division for the mean.
    """
    if loss is not Loss.MSE:
        raise UnsupportedError(f"unsupported loss kind: {loss!r}")
    units = output_layer.output_units
    return BasicOpCounts(n_add=units - 1, n_sub=units, n_mul=units, n_div=1)


def count_backprop_parts(layer: LayerSpec,
                         is_first_layer: bool) -> tuple[BasicOpCounts, BasicOpCounts]:
    """Backprop census split into (activation-derivative, linear) parts.

    The linear part covers weight-gradient accumulation (I*O mul + I*O
    add), bias-gradient accumulation (O add) and, unless this is the
    first layer, the input-delta pass (I*O mul + I*(O-1) add).
    """
    if not isinstance(layer, FullyConnected):
        raise UnsupportedError("backpropagation counting is defined for "
                               "fully-connected layers only")
    i, o = layer.inputs, layer.outputs
    af = _ACT_BACKWARD[layer.activation] * o
    n_add = i * o + o
    n_mul = i * o
    if not is_first_layer:
        n_add += i * (o - 1)
        n_mul += i * o
    return af, BasicOpCounts(n_add=n_add, n_mul=n_mul)


def count_backprop(layer: LayerSpec, is_first_layer: bool) -> BasicOpCounts:
    """Per-instance backprop ops for one layer."""
    af, linear = count_backprop_parts(layer, is_first_layer)
    return af + linear


def count_update(layer: LayerSpec) -> BasicOpCounts:
    """Per-batch-step SGD update ops: each parameter costs one multiply
    (learning rate) and one subtract."""
    if not isinstance(layer, FullyConnected):
        raise UnsupportedError("update counting is defined for "
                               "fully-connected layers only")
    params = layer.inputs * layer.outputs + layer.outputs
    return BasicOpCounts(n_sub=params, n_mul=params)


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
    if level.includes_backprop:
        for index, layer in enumerate(model.layers):
            if not isinstance(layer, FullyConnected):
                raise UnsupportedError(
                    f"training-level analysis requires fully-connected layers "
                    f"only; layer {index + 1} is convolutional"
                )

    zero = BasicOpCounts()
    profiles = []
    per_instance = zero
    nonlinear = zero
    update_total = zero
    for index, layer in enumerate(model.layers):
        linear_fwd, act_fwd = count_forward_parts(layer)
        forward = linear_fwd + act_fwd
        if level.includes_backprop:
            af_bp, linear_bp = count_backprop_parts(layer, is_first_layer=index == 0)
            backprop = af_bp + linear_bp
            update = count_update(layer)
        else:
            af_bp = backprop = update = zero
        profiles.append(LayerBoProfile(forward, backprop, update))
        per_instance = per_instance + forward + backprop
        nonlinear = nonlinear + act_fwd + af_bp
        update_total = update_total + update

    if level.includes_loss:
        loss = count_loss(model.layers[-1], model.loss)
        per_instance = per_instance + loss
        nonlinear = nonlinear + loss
    else:
        loss = zero

    instances = model.instances_per_run
    steps = model.steps_per_run
    per_run = per_instance * instances + update_total * steps
    nonlinear_run = nonlinear * instances + update_total * steps

    return ModelBoReport(
        layers=tuple(profiles),
        loss=loss,
        update_per_batch=update_total,
        per_instance=per_instance,
        per_run=per_run,
        nonlinear_per_instance=nonlinear,
        nonlinear_per_run=nonlinear_run,
        instances_per_run=instances,
        steps_per_run=steps,
    )
