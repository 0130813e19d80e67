#!/usr/bin/env python3
# Walk through the per-layer basic-operation census: how a network
# description turns into counts of add / sub / mul / div / root.

from transistor_ops import (
    Activation,
    AnalysisLevel,
    Convolutional,
    FP32,
    FullyConnected,
    Loss,
    ModelSpec,
    count_model,
)


def census(*layers, level=AnalysisLevel.INFERENCE):
    """The per-layer census of a model made of ``layers``."""
    return count_model(ModelSpec("demo", FP32, layers), level).layers


# A single dense layer: 4 inputs, 5 sigmoid units.
# The linear part costs I*O multiplies and I*O adds (accumulation plus
# bias); each sigmoid adds one sub, one exp (root slot), one add, one div.
layer = FullyConnected(4, 5, Activation.SIGMOID)
print("dense 4->5 sigmoid, forward:", census(layer)[0].forward.as_tuple())

# Activation menus, per unit: a 1->1 layer's forward census less that of
# the bare linear layer. Note tanh and gelu differ by a single sub.
bare = census(FullyConnected(1, 1, Activation.NONE))[0].forward.as_tuple()
for act in Activation:
    ops = census(FullyConnected(1, 1, act))[0].forward.as_tuple()
    print(f"  {act.value:8s} per unit:", tuple(n - b for n, b in zip(ops, bare)))

# A convolution counts the same way: every output window element does
# c_in * k^2 multiply-accumulates, then its activation.
conv = Convolutional(2, 3, 1, 2, Activation.GELU)
print("conv m=2 k=3 cin=1 cout=2 gelu, forward:", census(conv)[0].forward.as_tuple())

# Backprop is dearer than forward: derivative construction, weight and
# bias gradient accumulation, and (except at the first layer) the
# input-delta pass back to the previous layer.
training = AnalysisLevel.TRAINING
hidden = census(FullyConnected(4, 4, Activation.SIGMOID), layer, level=training)[1]
print("dense 4->5 sigmoid, backprop (hidden):", hidden.backprop.as_tuple())
print("dense 4->5 sigmoid, backprop (first): ",
      census(layer, level=training)[0].backprop.as_tuple())

# Whole model: 4 inputs, three hidden layers of width 4, one output.
model = ModelSpec(
    name="demo-dnn",
    float_format=FP32,
    layers=(
        FullyConnected(4, 4, Activation.SIGMOID),
        FullyConnected(4, 4, Activation.SIGMOID),
        FullyConnected(4, 4, Activation.SIGMOID),
        FullyConnected(4, 1, Activation.SIGMOID),
    ),
    loss=Loss.MSE,
    dataset_len=1372,
    batch_size=64,
    epochs=2000,
)

for level in AnalysisLevel:
    report = count_model(model, level)
    print(f"{level.value:10s} per instance:", report.per_instance.as_tuple())

# Per-run totals scale per-instance work by dataset_len * epochs and add
# the per-batch update census once per optimizer step.
report = count_model(model, AnalysisLevel.TRAINING)
print("loss per instance:        ", report.loss.as_tuple())
print("update per batch step:    ", report.update_per_batch.as_tuple())
print("instances per run:        ", model.instances_per_run)
print("optimizer steps per run:  ", model.steps_per_run)
print("training ops per full run:", report.per_run.as_tuple())
