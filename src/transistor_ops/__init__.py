"""Hardware-agnostic energy scaling analysis for neural networks.

The pipeline: an architecture description is reduced to per-layer basic
operation counts (add, sub, mul, div, root), lowered to a transistor
operation workload through an arithmetic-circuit cost model, and mapped
to joules by a fitted linear model. A multiply-accumulate baseline and
an instrumented scalar executor round out the toolkit for comparison
and verification.

Importing the package loads none of its modules: each public name, and
each module below, is imported on first use.
"""

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "basic_ops": ("BasicOpCounts", "LayerBoProfile", "ModelBoReport", "UnsupportedError",
                  "count_model"),
    "circuits": ("CostTable", "DEFAULT_COST_TABLE", "PhaseTos", "ToProfile", "adder_tos",
                 "analyze", "fp_cost_vector", "load_cost_table", "parse_cost_table",
                 "scaled_unit_tos"),
    "energy": ("ColumnAdapter", "DegenerateFitError", "EnergySample", "ErrorReport",
               "LinearModel", "TraceError", "error_metrics", "fit", "integrate_power",
               "read_power_trace", "trace_samples", "tradeoff_select", "trimmed_mean"),
    "flops": ("flops_model",),
    "model": ("Activation", "AnalysisLevel", "Convolutional", "FLOAT_FORMATS", "FP16",
              "FP32", "FP64", "FloatFormat", "FullyConnected", "LayerSpec", "Loss",
              "ModelSpec", "ParseError", "ValidationError", "model_family", "parse_model",
              "parse_model_file"),
    "oracle": ("CountingScalar", "TrainingStepTally", "run_training_step"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None and name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    home = import_module(f"{__name__}.{module or name}")
    return getattr(home, name) if module else home


def __dir__():
    return sorted({*globals(), *__all__})
