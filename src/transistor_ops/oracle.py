"""Instrumented scalar executor used as ground truth for the op census.

Tiny fully-connected networks are executed one scalar at a time with
every arithmetic operation routed through a shared tally: +, -, * and /
each bump their counter, and transcendental evaluations bump the root
counter. Activations run in their decomposed forms (the same ones the
census in :mod:`transistor_ops.basic_ops` prices), so the tallies land
in the same five-category space.

Tallies are value-independent: no operation is conditional on a value,
so any weight or input draw produces identical counts. Weights and
inputs default to fixed positive values, which also keeps every
pre-activation non-zero (the GELU backward step divides by it).

Each run owns its tally; runs are independent and freely parallel.
"""

from __future__ import annotations

import math
import random
from operator import sub
from typing import NamedTuple, Sequence

from .basic_ops import BasicOpCounts, UnsupportedError
from .model import Activation, FullyConnected, ModelSpec


class _Tally:
    __slots__ = ("add", "sub", "mul", "div", "root")

    def __init__(self) -> None:
        self.add = self.sub = self.mul = self.div = self.root = 0

    def snapshot(self) -> BasicOpCounts:
        return BasicOpCounts(self.add, self.sub, self.mul, self.div, self.root)


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
        u = lift(1.702) * xi
        return xi * _sigmoid(u, lift)
    if act is Activation.TANH:
        s = _sigmoid(lift(2.0) * xi, lift)
        return lift(2.0) * s - lift(1.0)
    raise UnsupportedError(f"unknown activation: {act!r}")


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
    elif act is Activation.GELU:
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
    else:
        raise UnsupportedError(f"unknown activation: {act!r}")
    return g * ap


def default_weights(model: ModelSpec, seed: int | None = None):
    """Per-layer (weights, biases) with strictly positive values.

    With ``seed`` set, values are drawn uniformly from (0.1, 0.9);
    otherwise a fixed deterministic pattern is used. Positive weights
    and inputs keep every pre-activation positive.
    """
    rng = random.Random(seed) if seed is not None else None
    layers = []
    for layer in model.layers:
        if not isinstance(layer, FullyConnected):
            raise UnsupportedError("the scalar executor supports "
                                   "fully-connected layers only")
        if rng is None:
            w = [[0.15 + 0.07 * ((i + 2 * j) % 5) for j in range(layer.outputs)]
                 for i in range(layer.inputs)]
            b = [0.1 + 0.05 * (j % 3) for j in range(layer.outputs)]
        else:
            w = [[rng.uniform(0.1, 0.9) for _ in range(layer.outputs)]
                 for i in range(layer.inputs)]
            b = [rng.uniform(0.1, 0.9) for _ in range(layer.outputs)]
        layers.append((w, b))
    return layers


def default_inputs(model: ModelSpec, seed: int | None = None) -> list[float]:
    first = model.layers[0]
    if not isinstance(first, FullyConnected):
        raise UnsupportedError("the scalar executor supports "
                               "fully-connected layers only")
    if seed is None:
        return [0.2 + 0.1 * (i % 4) for i in range(first.inputs)]
    rng = random.Random(seed ^ 0x5EED)
    return [rng.uniform(0.1, 0.9) for _ in range(first.inputs)]


class _LayerTrace(NamedTuple):
    layer: FullyConnected
    inputs: list
    pre_act: list
    outputs: list
    weights: list
    biases: list


def _forward_pass(model: ModelSpec, inputs: Sequence[float], weights, tally: _Tally):
    lift = lambda v: CountingScalar(v, tally)
    first = model.layers[0]
    if len(inputs) != first.inputs:
        raise ValueError(f"expected {first.inputs} inputs, got {len(inputs)}")
    xs = [lift(float(v)) for v in inputs]
    traces = []
    for layer, (w, b) in zip(model.layers, weights):
        w_s = [[lift(wij) for wij in row] for row in w]
        b_s = [lift(bj) for bj in b]
        pre, out = [], []
        for j in range(layer.outputs):
            acc = w_s[0][j] * xs[0]
            for i in range(1, layer.inputs):
                acc = acc + w_s[i][j] * xs[i]
            xi = b_s[j] + acc
            pre.append(xi)
            out.append(_apply_activation(layer.activation, xi, lift))
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

    traces = _forward_pass(model, inputs, weights, tally)
    forward_counts = tally.snapshot()

    # Loss: mean of squared differences over the output units.
    out_layer = traces[-1]
    n_out = len(out_layer.outputs)
    if len(targets) != n_out:
        raise ValueError(f"expected {n_out} targets, got {len(targets)}")
    diffs = [y - lift(float(t)) for y, t in zip(out_layer.outputs, targets)]
    total = diffs[0] * diffs[0]
    for d in diffs[1:]:
        total = total + d * d
    loss_value = (total / lift(float(n_out))).value
    loss_counts = _diff(tally.snapshot(), forward_counts)

    # Backprop, output layer first. Gradients accumulate into lifted
    # zeros so every accumulation add is executed and counted.
    grads = []
    upstream = diffs
    seen = tally.snapshot()
    bp_layers = []
    for index in reversed(range(len(traces))):
        trace = traces[index]
        layer = trace.layer
        deltas = [
            _activation_delta(layer.activation, upstream[j], trace.pre_act[j],
                              trace.outputs[j], lift)
            for j in range(layer.outputs)
        ]
        gw = [[lift(0.0) for _ in range(layer.outputs)] for _ in range(layer.inputs)]
        gb = [lift(0.0) for _ in range(layer.outputs)]
        for i in range(layer.inputs):
            for j in range(layer.outputs):
                gw[i][j] = gw[i][j] + deltas[j] * trace.inputs[i]
        for j in range(layer.outputs):
            gb[j] = gb[j] + deltas[j]
        grads.append((gw, gb))
        if index > 0:
            nxt = []
            for i in range(layer.inputs):
                acc = trace.weights[i][0] * deltas[0]
                for j in range(1, layer.outputs):
                    acc = acc + trace.weights[i][j] * deltas[j]
                nxt.append(acc)
            upstream = nxt
        now = tally.snapshot()
        bp_layers.append(_diff(now, seen))
        seen = now
    bp_layers.reverse()
    grads.reverse()

    lr = lift(float(learning_rate))
    update_layers = []
    updated = []
    for trace, (gw, gb) in zip(traces, grads):
        for i in range(trace.layer.inputs):
            for j in range(trace.layer.outputs):
                trace.weights[i][j] = trace.weights[i][j] - lr * gw[i][j]
        for j in range(trace.layer.outputs):
            trace.biases[j] = trace.biases[j] - lr * gb[j]
        now = tally.snapshot()
        update_layers.append(_diff(now, seen))
        seen = now
        updated.append((
            [[w.value for w in row] for row in trace.weights],
            [b.value for b in trace.biases],
        ))

    return TrainingStepTally(
        forward=forward_counts,
        loss=loss_counts,
        backprop_layers=tuple(bp_layers),
        update_layers=tuple(update_layers),
        loss_value=loss_value,
        updated_weights=tuple(updated),
    )


def _diff(after: BasicOpCounts, before: BasicOpCounts) -> BasicOpCounts:
    return BasicOpCounts(*map(sub, after.as_tuple(), before.as_tuple()))
