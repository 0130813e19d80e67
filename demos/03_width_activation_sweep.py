#!/usr/bin/env python3
# Sweep hidden-layer width and activation function, and watch how the
# transistor-operation workload scales while the MAC baseline stays
# blind to the activation choice.

import math

from transistor_ops import (
    Activation,
    AnalysisLevel,
    FP32,
    FullyConnected,
    Loss,
    ModelSpec,
    analyze,
    flops_model,
    model_family,
)

base = ModelSpec("sweep-base", FP32,
                 tuple([FullyConnected(4, 4, Activation.SIGMOID)] * 3
                       + [FullyConnected(4, 1, Activation.SIGMOID)]),
                 Loss.MSE, 1372, 64, 2000)

widths = range(4, 14)
acts = [Activation.SIGMOID, Activation.TANH, Activation.GELU]
family = model_family(base, widths, acts)

# Forward-level workload per instance, one row per width.
print(f"{'width':>5s} {'sigmoid':>12s} {'tanh':>12s} {'gelu':>12s} {'flops':>8s}")
totals = {}
for member in family:
    w = member.layers[0].outputs
    act = member.layers[0].activation
    totals[(w, act)] = analyze(member, AnalysisLevel.INFERENCE).per_instance.total
for w in widths:
    flops = 2 * flops_model(
        model_family(base, [w], [Activation.SIGMOID])[0],
        AnalysisLevel.INFERENCE)
    print(f"{w:5d} "
          + " ".join(f"{totals[(w, a)]:12.0f}" for a in acts)
          + f" {flops:8d}")

# Two structural facts fall out of the census:
#  - tanh and gelu cost almost the same (they differ by one sub per unit
#    on the forward pass), while sigmoid is strictly cheaper than gelu;
#  - the FLOPs column is identical for all three, by construction.
w = 10
gap = abs(totals[(w, Activation.TANH)] - totals[(w, Activation.GELU)])
print(f"\nwidth {w}: |tanh - gelu| / gelu = "
      f"{gap / totals[(w, Activation.GELU)]:.3%}")

# Workload grows exactly quadratically in hidden width: three
# evaluations pin the parabola, a fourth lands on it.
probe_w = [4.0, 5.0, 6.0]
probe_y = [totals[(int(w), Activation.SIGMOID)] for w in probe_w]


def parabola(x):
    # Lagrange form of the quadratic through the three probes.
    return sum(yi * math.prod((x - wj) / (wi - wj) for wj in probe_w if wj != wi)
               for wi, yi in zip(probe_w, probe_y))


for w in (9, 13):
    predicted = parabola(w)
    actual = totals[(w, Activation.SIGMOID)]
    print(f"parabola from widths 4..6 predicts width {w:2d}: "
          f"{predicted:12.2f} vs actual {actual:12.2f}")

# Training-level workloads per optimizer step, the scale measured
# energies live at.
print(f"\n{'width':>5s} {'TOs/step (sigmoid)':>20s}")
for w in (4, 8, 13):
    member = model_family(base, [w], [Activation.SIGMOID])[0]
    per_step = analyze(member, AnalysisLevel.TRAINING).per_step.total
    print(f"{w:5d} {per_step:20.4g}")
