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

from dataclasses import dataclass

from .model import AnalysisLevel, LayerSpec, ModelSpec


@dataclass(frozen=True)
class FlopsCount:
    macs: int

    @property
    def flops(self) -> int:
        return 2 * self.macs


@dataclass(frozen=True)
class FlopsReport:
    per_instance: FlopsCount
    per_run: FlopsCount
    instances_per_run: int
    steps_per_run: int

    @property
    def per_step_flops(self) -> float:
        """Per-optimizer-step average FLOPs, for run-scale comparisons."""
        return self.per_run.flops / self.steps_per_run


def flops_forward(layer: LayerSpec) -> FlopsCount:
    """Forward MACs for one layer; activation contributes zero."""
    return FlopsCount(layer.macs)


def flops_model(model: ModelSpec, level: AnalysisLevel) -> FlopsReport:
    """Sum the baseline over all layers and scale it to a full run."""
    macs = sum(layer.macs for layer in model.layers)
    if level.includes_backprop:
        macs *= 3
    return FlopsReport(
        per_instance=FlopsCount(macs),
        per_run=FlopsCount(macs * model.instances_per_run),
        instances_per_run=model.instances_per_run,
        steps_per_run=model.steps_per_run,
    )
