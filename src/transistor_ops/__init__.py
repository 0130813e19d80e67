"""Hardware-agnostic energy scaling analysis for neural networks.

The pipeline: an architecture description is reduced to per-layer basic
operation counts (add, sub, mul, div, root), lowered to a transistor
operation workload through an arithmetic-circuit cost model, and mapped
to joules by a fitted linear model. A multiply-accumulate baseline and
an instrumented scalar executor round out the toolkit for comparison
and verification.
"""

from .basic_ops import (
    BasicOpCounts,
    LayerBoProfile,
    ModelBoReport,
    UnsupportedError,
    count_activation,
    count_backprop,
    count_forward,
    count_loss,
    count_model,
    count_update,
)
from .circuits import (
    CostTable,
    DEFAULT_COST_TABLE,
    OpKind,
    PhaseTos,
    ScaledUnitRef,
    ToProfile,
    adder_tos,
    analyze,
    fp_op_tos,
    load_cost_table,
    parse_cost_table,
    scaled_unit_tos,
    tos_from_bos,
)
from .energy import (
    ColumnAdapter,
    DegenerateFitError,
    EnergySample,
    ErrorReport,
    LinearModel,
    PowerTrace,
    TraceError,
    error_metrics,
    fit,
    integrate_power,
    read_power_trace,
    trace_samples,
    tradeoff_select,
    trimmed_mean,
)
from .flops import FlopsCount, FlopsReport, flops_forward, flops_model
from .model import (
    Activation,
    AnalysisLevel,
    Convolutional,
    FLOAT_FORMATS,
    FP16,
    FP32,
    FP64,
    FloatFormat,
    FullyConnected,
    LayerSpec,
    Loss,
    ModelSpec,
    ParseError,
    ValidationError,
    model_family,
    parse_model,
    parse_model_file,
    serialize_model,
)

__version__ = "0.1.0"

# The scalar oracle is imported on first use: the CLI needs it only for
# its `oracle` subcommand.
_ORACLE_NAMES = {"CountingScalar", "TrainingStepTally", "run_forward", "run_training_step"}


def __getattr__(name):
    if name in _ORACLE_NAMES:
        from . import oracle
        return getattr(oracle, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Activation",
    "AnalysisLevel",
    "BasicOpCounts",
    "ColumnAdapter",
    "Convolutional",
    "CostTable",
    "CountingScalar",
    "DEFAULT_COST_TABLE",
    "DegenerateFitError",
    "EnergySample",
    "ErrorReport",
    "FLOAT_FORMATS",
    "FP16",
    "FP32",
    "FP64",
    "FloatFormat",
    "FlopsCount",
    "FlopsReport",
    "FullyConnected",
    "LayerBoProfile",
    "LayerSpec",
    "LinearModel",
    "Loss",
    "ModelBoReport",
    "ModelSpec",
    "OpKind",
    "ParseError",
    "PhaseTos",
    "PowerTrace",
    "ScaledUnitRef",
    "ToProfile",
    "TraceError",
    "TrainingStepTally",
    "UnsupportedError",
    "ValidationError",
    "adder_tos",
    "analyze",
    "count_activation",
    "count_backprop",
    "count_forward",
    "count_loss",
    "count_model",
    "count_update",
    "error_metrics",
    "fit",
    "flops_forward",
    "flops_model",
    "fp_op_tos",
    "integrate_power",
    "load_cost_table",
    "model_family",
    "parse_cost_table",
    "parse_model",
    "parse_model_file",
    "read_power_trace",
    "run_forward",
    "run_training_step",
    "scaled_unit_tos",
    "serialize_model",
    "tos_from_bos",
    "trace_samples",
    "tradeoff_select",
    "trimmed_mean",
]
