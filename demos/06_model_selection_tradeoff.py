#!/usr/bin/env python3
# Pick a deployable model by weighing predicted energy against task
# loss: minimize alpha * energy + (1 - alpha) * loss over candidates.

import numpy as np

from transistor_ops import (
    Activation,
    AnalysisLevel,
    FP32,
    FullyConnected,
    Loss,
    ModelSpec,
    analyze,
    model_family,
    tradeoff_select,
)
from transistor_ops.energy import LinearModel

base = ModelSpec("pick-base", FP32,
                 tuple([FullyConnected(4, 4, Activation.SIGMOID)] * 3
                       + [FullyConnected(4, 1, Activation.SIGMOID)]),
                 Loss.MSE, 1372, 64, 2000)

# Candidate pool: widths 4..12, sigmoid. Energies come from a fitted
# workload-to-energy line; losses are a synthetic diminishing-returns
# curve (wider helps, but less and less).
lm = LinearModel(intercept=2393.0, slope=9.605e-6, r_squared=1.0, n_points=10)
rng = np.random.default_rng(3)
candidates = []
for member in model_family(base, range(4, 13), [Activation.SIGMOID]):
    width = member.layers[0].outputs
    tos = analyze(member, AnalysisLevel.TRAINING).per_step.total
    energy = lm.predict(tos)
    loss = 0.05 + 0.8 / width + float(rng.uniform(0, 0.01))
    candidates.append((member.name, energy, loss))

print(f"{'model':>22s} {'energy (J)':>12s} {'loss':>8s}")
for name, energy, loss in candidates:
    print(f"{name:>22s} {energy:12.1f} {loss:8.4f}")

# Boundary cases: alpha=1 is pure energy minimization, alpha=0 pure
# loss minimization. In between, the knob trades one for the other.
# Energies are joules (thousands) and losses are unitless (~0.1), so on
# raw values tiny alphas already emphasize energy; scale accordingly.
print()
for alpha in (0.0, 1e-5, 5e-5, 1e-4, 1.0):
    choice = tradeoff_select(candidates, alpha)
    print(f"alpha = {alpha:<8g} -> {choice}")
