"""Multiply-accumulate baseline: the count the transistor-operation
model improves on.

Only the linear layers' multiply-accumulates are counted; activations,
loss and optimizer work contribute nothing. The consequence, exercised
in the tests, is that the baseline cannot distinguish activation
functions: every activation variant of a skeleton gets the same count.

Conventions: FLOPs = 2 * MACs, and training costs three forward-passes
worth of MACs (forward plus two backward traversals).
"""

from __future__ import annotations

from .model import AnalysisLevel, ModelSpec


def flops_model(model: ModelSpec, level: AnalysisLevel) -> int:
    """MACs per data instance at ``level``."""
    macs = sum(layer.macs for layer in model.layers)
    return 3 * macs if level.includes_backprop else macs
