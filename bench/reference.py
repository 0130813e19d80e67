"""Closed-form census and circuit costs, written from the README's rules.

This is the benchmark's own reference for what the analyzer must print.
It works on the model *documents* the benchmark generates (plain dicts),
never on the package's types, and keeps every quantity exact with
``fractions.Fraction`` so a check can compare the program's floats to a
tight relative tolerance without inheriting its rounding.

Counts are 5-tuples in census order: (add, sub, mul, div, root).
"""

from __future__ import annotations

import math
from fractions import Fraction

ZERO = (0, 0, 0, 0, 0)

# Per activated unit, forward: sigmoid = negate, exp, add, reciprocal;
# gelu = x * sigmoid(1.702 x); tanh = 2 * sigmoid(2x) - 1.
ACT_FORWARD = {
    "none": ZERO,
    "sigmoid": (1, 1, 0, 1, 1),
    "gelu": (1, 1, 2, 1, 1),
    "tanh": (1, 2, 2, 1, 1),
}

# Per unit, backprop: derivative construction plus the delta-scale mul
# that runs for every kind, identity included.
ACT_DERIVATIVE = {
    "none": ZERO,
    "sigmoid": (0, 1, 1, 0, 0),
    "tanh": (0, 1, 1, 0, 0),
    "gelu": (0, 2, 4, 1, 1),
}

# (exponent bits, fraction bits) of the IEEE-754 layouts.
FORMATS = {"fp16": (5, 10), "fp32": (8, 23), "fp64": (11, 52)}


def vadd(*vectors):
    return tuple(sum(parts) for parts in zip(*vectors))


def vscale(vector, factor):
    return tuple(n * factor for n in vector)


def macs(layer: dict) -> int:
    if layer["kind"] == "fully_connected":
        return layer["inputs"] * layer["outputs"]
    return (layer["out_width"] ** 2 * layer["out_channels"]
            * layer["in_channels"] * layer["kernel"] ** 2)


def units(layer: dict) -> int:
    if layer["kind"] == "fully_connected":
        return layer["outputs"]
    return layer["out_width"] ** 2 * layer["out_channels"]


def census(doc: dict, level: str) -> dict:
    """Per-layer and aggregate counts for a model document at ``level``.

    Returns ``forward``/``backprop``/``update`` per layer, ``loss``,
    ``per_instance``, ``update_total`` (per optimizer step),
    ``per_run``, ``nonlinear_instance``, ``instances`` and ``steps``.
    """
    training = level == "training"
    layers = doc["layers"]
    forward, backprop, update = [], [], []
    nonlinear = ZERO
    for index, layer in enumerate(layers):
        m, u = macs(layer), units(layer)
        act = vscale(ACT_FORWARD[layer["activation"]], u)
        forward.append(vadd((m, 0, m, 0, 0), act))
        nonlinear = vadd(nonlinear, act)
        if training:
            i, o = layer["inputs"], layer["outputs"]
            deriv = vadd(vscale(ACT_DERIVATIVE[layer["activation"]], o), (0, 0, o, 0, 0))
            grad_add = i * o + o + (i * (o - 1) if index else 0)
            grad_mul = i * o + (i * o if index else 0)
            backprop.append(vadd(deriv, (grad_add, 0, grad_mul, 0, 0)))
            nonlinear = vadd(nonlinear, deriv)
            params = i * o + o
            update.append((0, params, params, 0, 0))
        else:
            backprop.append(ZERO)
            update.append(ZERO)
    if level == "inference":
        loss = ZERO
    else:
        o = units(layers[-1])
        loss = (o - 1, o, o, 1, 0)
    nonlinear = vadd(nonlinear, loss)
    per_instance = vadd(*forward, *backprop, loss)
    update_total = vadd(*update)
    train = doc["training"]
    instances = train["dataset_len"] * train["epochs"]
    steps = math.ceil(train["dataset_len"] / train["batch_size"]) * train["epochs"]
    per_run = vadd(vscale(per_instance, instances), vscale(update_total, steps))
    return {
        "forward": forward, "backprop": backprop, "update": update,
        "loss": loss, "per_instance": per_instance, "update_total": update_total,
        "per_run": per_run, "nonlinear_instance": nonlinear,
        "instances": instances, "steps": steps,
    }


def adder(bits: int) -> Fraction:
    """(bits - 1) full adders at 10 transistors plus a half adder at 5."""
    return Fraction(10 * (bits - 1) + 5)


def cost_vector(fmt: str) -> tuple[Fraction, ...]:
    """Exact TO cost of (add, sub, mul, div, root) under the default table."""
    exponent, fraction = FORMATS[fmt]
    significand = fraction + 1
    add = adder(significand)
    width = Fraction(significand, 64) ** 2
    mul = 6 + 90_000 * width + adder(exponent)
    div = 6 + 110_000 * width + adder(exponent)
    root = 3 * (div + mul + add)
    return (add, add, mul, div, root)


def lower(counts, fmt: str) -> Fraction:
    return sum((n * c for n, c in zip(counts, cost_vector(fmt))), Fraction(0))


def tos(doc: dict, level: str, scale: str) -> Fraction:
    """Total TOs per instance, per optimizer step or per run."""
    c = census(doc, level)
    fmt = doc["float_format"]
    if scale == "instance":
        return lower(c["per_instance"], fmt)
    run = lower(c["per_run"], fmt)
    return run if scale == "run" else run / c["steps"]


def tos_report(doc: dict, level: str) -> dict[tuple[str, str], Fraction]:
    """Every (scope, quantity) row of ``tos`` output, exactly."""
    c = census(doc, level)
    fmt = doc["float_format"]
    lo = lambda counts: lower(counts, fmt)  # noqa: E731
    rows: dict[tuple[str, str], Fraction] = {}
    for index, counts in enumerate(c["forward"], start=1):
        rows["per_instance", f"layer_{index}_forward"] = lo(counts)
    if level == "training":
        for index, counts in enumerate(c["backprop"], start=1):
            rows["per_instance", f"layer_{index}_backprop"] = lo(counts)
    fwd = lo(vadd(*c["forward"]))
    bp = lo(vadd(*c["backprop"]))
    loss = lo(c["loss"])
    upd = lo(c["update_total"])
    n, s = c["instances"], c["steps"]
    rows["per_instance", "forward_total"] = fwd
    rows["per_instance", "backprop_total"] = bp
    rows["per_instance", "loss"] = loss
    rows["per_instance", "total"] = fwd + bp + loss
    rows["per_batch", "update"] = upd
    rows["per_run", "forward_total"] = fwd * n
    rows["per_run", "backprop_total"] = bp * n
    rows["per_run", "loss"] = loss * n
    rows["per_run", "update_total"] = upd * s
    run_total = (fwd + bp + loss) * n + upd * s
    rows["per_run", "total"] = run_total
    rows["per_step", "total"] = run_total / s
    nonlinear = lo(c["nonlinear_instance"]) * n + upd * s
    rows["all", "nonlinear_share"] = nonlinear / run_total if run_total else Fraction(0)
    return rows


def macs_at(doc: dict, level: str, scale: str) -> Fraction:
    """Baseline MACs: sum of I*O (or the convolution formula), three
    passes' worth at training level, scaled like the TOs."""
    per_instance = sum(macs(layer) for layer in doc["layers"])
    if level == "training":
        per_instance *= 3
    c = census(doc, level)
    if scale == "instance":
        return Fraction(per_instance)
    run = Fraction(per_instance * c["instances"])
    return run if scale == "run" else run / c["steps"]
