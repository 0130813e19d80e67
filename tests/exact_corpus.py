"""A seeded corpus of model documents, and the sha256 of what the package
makes of them: the parsed models, their census and their lowering, each
by ``repr``, so a moved count or a moved last bit of a float changes it.

It covers every level, float format and activation, convolution + dense
models at the forward levels, short last batches and one custom cost
table. It imports only the package and the standard library, so
``tests/test_circuits.py`` pins the digests and ``tests/test_runtime.py``
computes them again under each other interpreter on PATH.
"""

import hashlib
import json
import random

from transistor_ops import CostTable, DEFAULT_COST_TABLE, analyze, count_model
from transistor_ops.model import AnalysisLevel, parse_model

ACTIVATIONS = ["none", "sigmoid", "tanh", "gelu"]
TABLES = (DEFAULT_COST_TABLE, CostTable(fa=12.0, scaling_exponent=1.7, newton_iterations=4))


def _training(rng):
    dataset_len = rng.randint(2, 5000)
    # Below dataset_len, so that most draws (53 of the 54) leave a short last batch.
    batch_size = rng.randint(1, dataset_len - 1)
    return {"dataset_len": dataset_len, "batch_size": batch_size, "epochs": rng.randint(1, 300)}


def _dense(rng, inputs, outputs, activation=None):
    return {"kind": "fully_connected", "inputs": inputs, "outputs": outputs,
            "activation": activation or rng.choice(ACTIVATIONS)}


def corpus():
    """[(model document text, level, cost table)], the same on every run."""
    rng = random.Random(53)
    cases = []
    for fmt in ("fp16", "fp32", "fp64"):
        for activation in ACTIVATIONS:
            for level in AnalysisLevel:
                dims = [rng.randint(1, 40) for _ in range(rng.randint(2, 6))]
                layers = [_dense(rng, i, o, activation) for i, o in zip(dims, dims[1:-1])]
                layers.append(_dense(rng, dims[-2], dims[-1]))
                cases.append((fmt, layers, level))
        for level in (AnalysisLevel.INFERENCE, AnalysisLevel.VALIDATION):
            for _ in range(3):
                layers = [{"kind": "convolutional", "out_width": rng.randint(1, 12),
                           "kernel": rng.randint(1, 5), "in_channels": rng.randint(1, 8),
                           "out_channels": rng.randint(1, 8),
                           "activation": rng.choice(ACTIVATIONS)}
                          for _ in range(rng.randint(1, 3))]
                last = layers[-1]
                units = last["out_width"] ** 2 * last["out_channels"]
                layers.append(_dense(rng, units, rng.randint(1, 10)))
                cases.append((fmt, layers, level))
    return [(json.dumps({"name": f"case-{i}", "float_format": fmt, "loss": "mse",
                         "training": _training(rng), "layers": layers}),
             level, TABLES[i % 2])
            for i, (fmt, layers, level) in enumerate(cases)]


def _digest(values):
    return hashlib.sha256(repr(values).encode()).hexdigest()[:16]


def digests():
    """name -> the sha256 (first 16 hex digits) of the ``repr`` of every
    corpus case's ``parse_model``, ``count_model`` or ``analyze`` result."""
    cases = [(parse_model(text), level, table) for text, level, table in corpus()]
    return {"parse_model": _digest([model for model, _, _ in cases]),
            "count_model": _digest([count_model(model, level) for model, level, _ in cases]),
            "analyze": _digest([analyze(model, level, table) for model, level, table in cases])}
