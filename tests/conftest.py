import json
from fractions import Fraction
from math import prod

import pytest

from transistor_ops import (
    Activation,
    FP32,
    FullyConnected,
    Loss,
    ModelSpec,
)


def fc_model(dims, activation, out_activation=Activation.SIGMOID, name="m",
             fmt=FP32, dataset_len=1372, batch_size=64, epochs=2000):
    """Chain of fully-connected layers through the given dimensions."""
    layers = []
    for i in range(len(dims) - 1):
        act = out_activation if i == len(dims) - 2 else activation
        layers.append(FullyConnected(dims[i], dims[i + 1], act))
    return ModelSpec(name, fmt, tuple(layers), Loss.MSE,
                     dataset_len, batch_size, epochs)


@pytest.fixture
def width4_dnn():
    """3 hidden layers of width 4, 4 inputs, 1 sigmoid output."""
    return fc_model([4, 4, 4, 4, 1], Activation.SIGMOID, name="w4")


def model_doc(dims, activation="sigmoid", out_activation="sigmoid",
              name="m", float_format="fp32", dataset_len=1372,
              batch_size=64, epochs=2000):
    layers = []
    for i in range(len(dims) - 1):
        act = out_activation if i == len(dims) - 2 else activation
        layers.append({"kind": "fully_connected", "inputs": dims[i],
                       "outputs": dims[i + 1], "activation": act})
    return {
        "name": name,
        "float_format": float_format,
        "loss": "mse",
        "training": {"dataset_len": dataset_len, "batch_size": batch_size,
                     "epochs": epochs},
        "layers": layers,
    }


def write_model_doc(path, doc):
    path.write_text(json.dumps(doc, indent=2), encoding="utf-8")
    return str(path)


def quadratic_through(xs, ys, x):
    """The quadratic through the three points ``(xs[i], ys[i])``, at ``x``:
    Lagrange's form over fractions, so the only rounding is the final one."""
    xs, ys, x = list(map(Fraction, xs)), list(map(Fraction, ys)), Fraction(x)
    return float(sum(yi * prod((x - xj) / (xi - xj) for xj in xs if xj != xi)
                     for xi, yi in zip(xs, ys)))
