"""Instrumented scalar executor used as ground truth for the op census.

Tiny fully-connected networks are executed one scalar at a time with
every arithmetic operation routed through a shared tally: +, -, * and /
each bump their counter, and transcendental evaluations bump the root
counter. Activations run in their decomposed forms (the same ones the
census in :mod:`transistor_ops.basic_ops` prices), so the tallies land
in the same five-category space.

Tallies are value-independent: no operation is conditional on a value,
so any weight or input draw produces identical counts. Weights and
inputs default to seeded draws from (0.1, 0.9), which also keep every
pre-activation non-zero (the GELU backward step divides by it).

Each run owns its tally; runs are independent and freely parallel.
"""

from __future__ import annotations

import math
import random
from operator import mul
from typing import NamedTuple, Sequence

from .basic_ops import BasicOpCounts, UnsupportedError
from .model import Activation, FullyConnected, ModelSpec


class _Tally:
    __slots__ = ("add", "sub", "mul", "div", "root")

    def __init__(self) -> None:
        self.add = self.sub = self.mul = self.div = self.root = 0

    def take(self) -> BasicOpCounts:
        """The counts since the last take; counting restarts from zero."""
        counts = BasicOpCounts(self.add, self.sub, self.mul, self.div, self.root)
        self.__init__()
        return counts


class CountingScalar:
    """A float whose arithmetic increments a shared tally."""

    __slots__ = ("value", "tally")

    def __init__(self, value: float, tally: _Tally) -> None:
        self.value = value
        self.tally = tally

    def __add__(self, other: "CountingScalar") -> "CountingScalar":
        self.tally.add += 1
        return CountingScalar(self.value + other.value, self.tally)

    def __sub__(self, other: "CountingScalar") -> "CountingScalar":
        self.tally.sub += 1
        return CountingScalar(self.value - other.value, self.tally)

    def __mul__(self, other: "CountingScalar") -> "CountingScalar":
        self.tally.mul += 1
        return CountingScalar(self.value * other.value, self.tally)

    def __truediv__(self, other: "CountingScalar") -> "CountingScalar":
        self.tally.div += 1
        return CountingScalar(self.value / other.value, self.tally)

    def exp(self) -> "CountingScalar":
        self.tally.root += 1
        return CountingScalar(math.exp(self.value), self.tally)


def _sigmoid(x: CountingScalar, lift) -> CountingScalar:
    # 1 / (1 + exp(-x)): sub, root, add, div.
    e = (lift(0.0) - x).exp()
    return lift(1.0) / (lift(1.0) + e)


def _apply_activation(act: Activation, xi: CountingScalar, lift) -> CountingScalar:
    if act is Activation.NONE:
        return xi
    if act is Activation.SIGMOID:
        return _sigmoid(xi, lift)
    if act is Activation.GELU:
        return xi * _sigmoid(lift(1.702) * xi, lift)
    return lift(2.0) * _sigmoid(lift(2.0) * xi, lift) - lift(1.0)  # TANH


def _activation_delta(act: Activation, g: CountingScalar, xi: CountingScalar,
                      y: CountingScalar, lift) -> CountingScalar:
    """delta = g * act'(xi), reusing the stored forward values.

    The delta-scale multiply runs for every kind, identity included.
    """
    if act is Activation.NONE:
        ap = lift(1.0)
    elif act is Activation.SIGMOID:
        ap = y * (lift(1.0) - y)
    elif act is Activation.TANH:
        ap = lift(1.0) - y * y
    else:  # GELU
        # gelu'(x) = s + u s (1 - s) with u = 1.702 x and s = sigmoid(u).
        # s is recovered from the stored output (y = x s), 1 - s is built
        # as exp(-u) * s, and the final sum is folded into a subtraction
        # of the negated second term.
        s = y / xi
        u = lift(1.702) * xi
        neg_u = lift(0.0) - u
        e = neg_u.exp()
        one_minus_s = e * s
        sp = one_minus_s * s
        t = neg_u * sp
        ap = s - t
    return g * ap


def _dense(layer) -> FullyConnected:
    if not isinstance(layer, FullyConnected):
        raise UnsupportedError("the scalar executor supports fully-connected layers only")
    return layer


def _draws(rng: random.Random, n: int) -> list[float]:
    return [rng.uniform(0.1, 0.9) for _ in range(n)]


def default_weights(model: ModelSpec, seed: int | None = None):
    """Per-layer (weights, biases) drawn uniformly from (0.1, 0.9) by
    ``random.Random(seed)``; no seed means seed 0. Positive weights and
    inputs keep every pre-activation positive."""
    rng = random.Random(seed or 0)
    return [([_draws(rng, layer.outputs) for _ in range(layer.inputs)],
             _draws(rng, layer.outputs)) for layer in map(_dense, model.layers)]


def default_inputs(model: ModelSpec, seed: int | None = None) -> list[float]:
    """The first layer's inputs, drawn like :func:`default_weights`'s."""
    return _draws(random.Random((seed or 0) ^ 0x5EED), _dense(model.layers[0]).inputs)


class _LayerTrace(NamedTuple):
    layer: FullyConnected
    inputs: list
    pre_act: list
    outputs: list
    weights: list
    biases: list


def _dot(ws: Sequence[CountingScalar], xs: Sequence[CountingScalar]) -> CountingScalar:
    """w0*x0 + w1*x1 + ..., added left to right: n multiplies, n - 1 adds."""
    products = map(mul, ws, xs)
    acc = next(products)
    for product in products:
        acc = acc + product
    return acc


def _forward_pass(model: ModelSpec, inputs: Sequence[float], weights, lift):
    first = model.layers[0]
    if len(inputs) != first.inputs:
        raise ValueError(f"expected {first.inputs} inputs, got {len(inputs)}")
    xs = [lift(float(v)) for v in inputs]
    traces = []
    for layer, (w, b) in zip(model.layers, weights):
        w_s = [[lift(wij) for wij in row] for row in w]
        b_s = [lift(bj) for bj in b]
        pre = [bj + _dot(column, xs) for column, bj in zip(zip(*w_s), b_s)]
        out = [_apply_activation(layer.activation, xi, lift) for xi in pre]
        traces.append(_LayerTrace(layer, xs, pre, out, w_s, b_s))
        xs = out
    return traces


class TrainingStepTally(NamedTuple):
    """Per-segment tallies for one forward/loss/backprop/update step.

    ``updated_weights`` holds the post-step (weights, biases) values per
    layer so gradients can be recovered as (old - new) / learning_rate.
    """

    forward: BasicOpCounts
    loss: BasicOpCounts
    backprop_layers: tuple[BasicOpCounts, ...]
    update_layers: tuple[BasicOpCounts, ...]
    loss_value: float
    updated_weights: tuple

    @property
    def backprop(self) -> BasicOpCounts:
        return sum(self.backprop_layers, BasicOpCounts())

    @property
    def update(self) -> BasicOpCounts:
        return sum(self.update_layers, BasicOpCounts())


def run_training_step(model: ModelSpec, inputs: Sequence[float],
                      targets: Sequence[float], weights=None,
                      learning_rate: float = 0.1) -> TrainingStepTally:
    """Execute one instance of forward + loss + backprop + SGD update.

    The backprop seed reuses the stored per-output differences from the
    loss segment; the 1/O mean factor and the square's derivative
    constant are folded into the learning rate, so seeding costs no ops.
    """
    if weights is None:
        weights = default_weights(model)
    tally = _Tally()
    lift = lambda v: CountingScalar(v, tally)

    traces = _forward_pass(model, inputs, weights, lift)
    forward = tally.take()

    # Loss: mean of squared differences over the output units.
    outputs = traces[-1].outputs
    if len(targets) != len(outputs):
        raise ValueError(f"expected {len(outputs)} targets, got {len(targets)}")
    diffs = [y - lift(float(t)) for y, t in zip(outputs, targets)]
    loss_value = (_dot(diffs, diffs) / lift(float(len(outputs)))).value
    loss = tally.take()

    # Backprop, output layer first. Gradients accumulate into lifted
    # zeros so every accumulation add is executed and counted.
    grads, bp_layers = [], []
    upstream = diffs
    for trace in reversed(traces):
        deltas = [_activation_delta(trace.layer.activation, g, xi, y, lift)
                  for g, xi, y in zip(upstream, trace.pre_act, trace.outputs)]
        grads.append(([[lift(0.0) + d * x for d in deltas] for x in trace.inputs],
                      [lift(0.0) + d for d in deltas]))
        if trace is not traces[0]:
            upstream = [_dot(row, deltas) for row in trace.weights]
        bp_layers.append(tally.take())
    bp_layers.reverse()
    grads.reverse()

    lr = lift(float(learning_rate))
    update_layers, updated = [], []
    for trace, (gw, gb) in zip(traces, grads):
        updated.append((
            [[(w - lr * g).value for w, g in zip(w_row, g_row)]
             for w_row, g_row in zip(trace.weights, gw)],
            [(b - lr * g).value for b, g in zip(trace.biases, gb)],
        ))
        update_layers.append(tally.take())

    return TrainingStepTally(
        forward=forward,
        loss=loss,
        backprop_layers=tuple(bp_layers),
        update_layers=tuple(update_layers),
        loss_value=loss_value,
        updated_weights=tuple(updated),
    )
