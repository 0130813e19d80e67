"""Command-line surface for the analysis pipeline.

Subcommands mirror the pipeline stages: ``count`` (per-layer basic
operations), ``tos`` (transistor-operation lowering), ``ingest`` (power
traces to energy samples), ``fit`` (workload-to-energy regression),
``estimate`` (predict energies), ``sweep`` (width x activation families),
``compare`` (scorecard against measurements) and ``tradeoff`` (energy
versus loss selection).

Each command is deterministic and returns its output; ``main`` writes it
once the command has succeeded. Tables are CSV with a header row, and
numbers have 6 significant digits unless ``--raw`` asks for all of them.
Exit codes: 0 success, 2 input or parse error, 3 unsupported configuration.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

from .basic_ops import BasicOpCounts, UnsupportedError, count_model
from .circuits import (
    CostTable,
    DEFAULT_COST_TABLE,
    ToProfile,
    analyze,
    load_cost_table,
)
from .energy import (
    EnergySample,
    error_metrics,
    finite_float,
    fit,
    load_adapter,
    load_linear_model,
    read_power_trace,
    read_table,
    tradeoff_select,
    trimmed_mean,
    write_energy_samples,
    write_linear_model,
    write_table,
)
from .flops import flops_model
from .model import (
    Activation,
    AnalysisLevel,
    FLOAT_FORMATS,
    FullyConnected,
    ModelSpec,
    located,
    model_family,
    parse_model_file,
    read_document,
    unique_dict,
)

COST_TABLE_ENV = "TOS_COST_TABLE"

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_UNSUPPORTED = 3

# The most models (widths x activations) one sweep builds.
MAX_FAMILY = 10_000

# The most weights and biases one oracle run builds.
MAX_ORACLE_PARAMETERS = 100_000

# The run id of each model's aggregate row in the `ingest` table.
AGGREGATE_RUN = "trimmed_mean"


def _fmt(value: float, raw: bool) -> str:
    """The only number formatter: no non-finite value reaches the output."""
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(f"the result {value!r} is not finite; it overflows a float")
    return repr(value) if raw else format(value, ".6g")


def _in_model(path: str, model_id: str):
    """A :func:`located` scope naming the input file and the model."""
    return located(f"{path}: model {model_id!r}")


def _load_model(path: str, fmt_key: str | None) -> ModelSpec:
    model = parse_model_file(path)
    if fmt_key:
        model = model._replace(float_format=FLOAT_FORMATS[fmt_key])
    return model


def _load_table(path: str | None) -> CostTable:
    if path is None:
        path = os.environ.get(COST_TABLE_ENV) or None
    return DEFAULT_COST_TABLE if path is None else load_cost_table(path)


def _parse_widths(text: str, activations: int) -> range:
    """``a..b`` or ``a``, checked from its bounds: no width below 1, and
    no more than MAX_FAMILY members with the given activations."""
    text = text.strip()
    lo_s, dots, hi_s = text.partition("..")
    try:
        lo = int(lo_s)
        hi = int(hi_s) if dots else lo
    except ValueError:
        raise ValueError(f"--widths {text!r}: expected 'a..b' or a single integer") from None
    if lo < 1:
        raise ValueError(f"--widths {text!r}: widths must be >= 1")
    if hi < lo:
        raise ValueError(f"--widths {text!r}: the range is empty")
    members = (hi - lo + 1) * activations
    if members > MAX_FAMILY:
        raise ValueError(f"--widths {text!r} with {activations} activation(s) makes "
                         f"{members} models; a sweep takes at most {MAX_FAMILY}")
    return range(lo, hi + 1)


def _parse_activations(text: str) -> list[Activation]:
    with located(f"--activations {text!r}"):
        activations = [Activation(part.strip()) for part in text.split(",") if part.strip()]
        if len(set(activations)) < len(activations):
            raise ValueError("an activation is named twice")
    if not activations:
        raise ValueError("--activations: the list is empty")
    return activations


def _read_rows(path: str, columns: dict) -> list[tuple]:
    return read_document(path, lambda fh: list(read_table(fh, columns)))


def _read_by_id(path: str, column: str) -> dict[str, float]:
    """A ``model_id -> column`` table in file order; ids must be unique."""
    rows = _read_rows(path, {"model_id": str, column: finite_float})
    with located(path):
        return unique_dict(rows, "model_id")


def _counts_row(counts: BasicOpCounts) -> list[str]:
    return [str(n) for n in counts.as_tuple()]


def cmd_count(args) -> str:
    model = _load_model(args.model, None)
    level = AnalysisLevel(args.level)
    with _in_model(args.model, model.name):
        report = count_model(model, level)
    phases = [("per_instance", "forward", "forward")]  # (scope, phase, LayerProfile field)
    if level.includes_backprop:
        phases += [("per_instance", "backprop", "backprop"),
                   ("per_batch", "update", "update_per_batch")]
    rows = [["scope", "layer", "phase", "n_add", "n_sub", "n_mul", "n_div", "n_root"]]
    for scope, phase, field in phases:
        for index, profile in enumerate(report.layers, start=1):
            rows.append([scope, str(index), phase] + _counts_row(getattr(profile, field)))
    if level.includes_loss:
        rows.append(["per_instance", "all", "loss"] + _counts_row(report.loss))
    rows.append(["per_instance", "all", "total"] + _counts_row(report.per_instance))
    rows.append(["per_run", "all", "total"] + _counts_row(report.per_run))
    return write_table(rows)


def cmd_tos(args) -> str:
    model = _load_model(args.model, args.format)
    level = AnalysisLevel(args.level)
    table = _load_table(args.cost_table)
    raw = args.raw
    rows = [["scope", "quantity", "value"]]
    with _in_model(args.model, model.name):
        profile = analyze(model, level, table)
        for index, value in enumerate(profile.layer_forward, start=1):
            rows.append(["per_instance", f"layer_{index}_forward", _fmt(value, raw)])
        if level.includes_backprop:
            for index, value in enumerate(profile.layer_backprop, start=1):
                rows.append(["per_instance", f"layer_{index}_backprop", _fmt(value, raw)])
        rows.append(["per_instance", "forward_total", _fmt(profile.per_instance.forward, raw)])
        rows.append(["per_instance", "backprop_total", _fmt(profile.per_instance.backprop, raw)])
        rows.append(["per_instance", "loss", _fmt(profile.per_instance.loss, raw)])
        rows.append(["per_instance", "total", _fmt(profile.per_instance.total, raw)])
        rows.append(["per_batch", "update", _fmt(profile.update_per_batch, raw)])
        for name, value in (("forward_total", profile.per_run.forward),
                            ("backprop_total", profile.per_run.backprop),
                            ("loss", profile.per_run.loss),
                            ("update_total", profile.per_run.update),
                            ("total", profile.per_run.total)):
            rows.append(["per_run", name, _fmt(value, raw)])
        rows.append(["per_step", "total", _fmt(profile.per_step.total, raw)])
        rows.append(["all", "nonlinear_share", _fmt(profile.nonlinear_share, raw)])
    return write_table(rows)


def _trace_identity(path: str) -> tuple[str, str]:
    """(model id, run id) from a ``<model>__<run>.csv`` file name; a name
    without ``__`` is run ``run0`` of the model its stem names."""
    model_id, sep, run_id = Path(path).stem.partition("__")
    if not sep:
        return model_id, "run0"
    with located(path):
        if not (model_id and run_id):
            raise ValueError(f"the {'run' if model_id else 'model'} id is empty; "
                             f"name a trace file <model>__<run>.csv")
        if run_id == AGGREGATE_RUN:
            raise ValueError(f"the run id {AGGREGATE_RUN!r} is reserved for the aggregate row")
    return model_id, run_id


def cmd_ingest(args) -> str:
    if args.trim_k < 0:
        raise ValueError(f"--trim-k {args.trim_k}: must be non-negative")
    adapter = load_adapter(args.adapter) if args.adapter else None
    runs_of: dict[str, dict[str, tuple[str, float]]] = {}
    for path in args.traces:
        model_id, run_id = _trace_identity(path)
        runs = runs_of.setdefault(model_id, {})
        if run_id in runs:
            raise ValueError(f"{runs[run_id][0]}, {path}: both are run {run_id!r} "
                             f"of model {model_id!r}")
        runs[run_id] = path, read_power_trace(path, adapter)
    samples, aggregated = [], []
    for model_id, runs in sorted(runs_of.items()):
        samples += [EnergySample(model_id, run_id, joules)
                    for run_id, (_, joules) in sorted(runs.items())]
        paths, values = zip(*runs.values())
        with _in_model(", ".join(paths), model_id):
            aggregated.append(EnergySample(model_id, AGGREGATE_RUN,
                                           trimmed_mean(values, args.trim_k)))
    return write_energy_samples(samples + aggregated)


def cmd_fit(args) -> str:
    pairs = _read_rows(args.pairs, {"tos": finite_float, "joules": finite_float})
    with located(args.pairs):
        model = fit(pairs)
    return write_linear_model(model)


def _at_scale(scale: str, model: ModelSpec, profile: ToProfile,
              macs: int = 0) -> tuple[float, float, float]:
    """TOs, MACs and FLOPs (2 x MACs) at ``--scale``, from the profile and
    the per-instance MACs. A count stays an exact integer up to the one
    true division by the steps per run at step scale."""
    tos = getattr(profile, f"per_{scale}").total
    if scale != "instance":
        macs *= model.instances_per_run
    if scale == "step":
        steps = model.steps_per_run
        return tos, macs / steps, 2 * macs / steps
    return tos, float(macs), float(2 * macs)


def cmd_estimate(args) -> str:
    lr = load_linear_model(args.fitted)
    level = AnalysisLevel(args.level)
    table = _load_table(args.cost_table)
    rows = [["model_id", "tos", "predicted_j"]]
    entries: list[tuple[str, str, float]] = []
    if args.tos_file:
        entries = [(args.tos_file, model_id, tos)
                   for model_id, tos in _read_by_id(args.tos_file, "tos").items()]
        with located(args.tos_file):
            if not (entries or args.models):
                raise ValueError("the table lists no model")
    elif not args.models:
        raise ValueError("estimate needs model files or --tos-file")
    for path in args.models:
        model = _load_model(path, args.format)
        with _in_model(path, model.name):
            entries.append((path, model.name,
                            _at_scale(args.scale, model, analyze(model, level, table))[0]))
    first_source: dict[str, str] = {}
    for source, model_id, tos in entries:
        with _in_model(source, model_id):
            if model_id in first_source:
                first = first_source[model_id]
                raise ValueError("duplicate model_id, " + (
                    "the file is given twice" if first == source else f"first from {first}"))
            first_source[model_id] = source
            rows.append([model_id, _fmt(tos, args.raw), _fmt(lr.predict(tos), args.raw)])
    return write_table(rows)


def _sweep_svg(points: dict[str, list[tuple[float, float]]]) -> str:
    """Minimal polyline rendering of workload versus width."""
    width, height, margin = 640, 400, 50
    xs = [x for series in points.values() for x, _ in series]
    ys = [y for series in points.values() for _, y in series]
    x_lo, x_hi = min(xs), max(xs)
    y_lo, y_hi = 0.0, max(ys)
    x_span = (x_hi - x_lo) or 1.0
    y_span = (y_hi - y_lo) or 1.0

    def sx(x: float) -> float:
        return margin + (x - x_lo) / x_span * (width - 2 * margin)

    def sy(y: float) -> float:
        return height - margin - (y - y_lo) / y_span * (height - 2 * margin)

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
        f'<line x1="{margin}" y1="{margin}" x2="{margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i, (label, series) in enumerate(sorted(points.items())):
        coords = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in series)
        color = colors[i % len(colors)]
        parts.append(f'<polyline points="{coords}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - margin + 4}" '
                     f'y="{sy(series[-1][1]):.2f}" font-size="12" '
                     f'fill="{color}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def cmd_sweep(args) -> str:
    base = _load_model(args.base, args.format)
    activations = _parse_activations(args.activations)
    widths = _parse_widths(args.widths, len(activations))
    level = AnalysisLevel(args.level)
    table = _load_table(args.cost_table)
    lr = load_linear_model(args.fitted_model) if args.fitted_model else None
    with _in_model(args.base, base.name):
        family = model_family(base, widths, activations)
    rows = [["width", "activation", "tos", "macs", "flops", "predicted_j"]]
    svg_points: dict[str, list[tuple[float, float]]] = {}
    for member in family:
        first = member.layers[0]  # it carries the member's width and activation
        with _in_model(args.base, member.name):
            tos, macs, flops = _at_scale(args.scale, member,
                                         analyze(member, level, table),
                                         flops_model(member, level))
            predicted = _fmt(lr.predict(tos), args.raw) if lr else ""
            rows.append([str(first.outputs), first.activation.value, _fmt(tos, args.raw),
                         _fmt(macs, args.raw), _fmt(flops, args.raw), predicted])
        svg_points.setdefault(first.activation.value, []).append((float(first.outputs), tos))
    if args.svg:
        Path(args.svg).write_text(_sweep_svg(svg_points), encoding="utf-8")
    return write_table(rows)


def cmd_compare(args) -> str:
    pred_tos = _read_by_id(args.predictions_tos, "predicted_j")
    pred_flops = _read_by_id(args.predictions_flops, "predicted_j")
    actual = _read_by_id(args.actual, "joules")
    ids = list(actual)
    for path, predicted in ((args.predictions_tos, pred_tos),
                            (args.predictions_flops, pred_flops)):
        missing = [i for i in ids if i not in predicted]
        extra = [i for i in predicted if i not in actual]
        with located(path):
            if missing or extra:
                raise ValueError(f"model {missing[0]!r} of {args.actual} is missing" if missing
                                 else f"model {extra[0]!r} is not in {args.actual}")

    actual_values = list(actual.values())
    tos_values = [pred_tos[i] for i in ids]
    flops_values = [pred_flops[i] for i in ids]
    reports = []
    for path, values in ((args.predictions_tos, tos_values),
                         (args.predictions_flops, flops_values)):
        with located(f"{path} against {args.actual}"):
            reports.append(error_metrics(values, actual_values))
    tos_report, flops_report = reports

    raw = args.raw
    rows = [["model_id", "actual_j", "tos_predicted_j", "tos_precision_pct",
             "flops_predicted_j", "flops_precision_pct"]]
    for i, model_id in enumerate(ids):
        rows.append([model_id, _fmt(actual_values[i], raw),
                     _fmt(tos_values[i], raw), _fmt(tos_report.precision[i], raw),
                     _fmt(flops_values[i], raw), _fmt(flops_report.precision[i], raw)])
    summary = [["method", "precision_min_pct", "precision_max_pct",
                "avg_abs_error_j", "max_signed_error_j"]]
    for name, report in (("tos", tos_report), ("flops", flops_report)):
        summary.append([name, _fmt(min(report.precision), raw),
                        _fmt(max(report.precision), raw),
                        _fmt(report.avg_error, raw), _fmt(report.max_error, raw)])
    return write_table(rows) + "\n" + write_table(summary)


def cmd_tradeoff(args) -> str:
    candidates = _read_rows(args.candidates, {"model_id": str, "energy_j": finite_float,
                                              "loss": finite_float})
    with located(args.candidates):
        unique_dict([(row[0], row) for row in candidates], "model_id")
    with located(f"{args.candidates} with --alpha {args.alpha}"):
        return tradeoff_select(candidates, args.alpha) + "\n"


def cmd_oracle(args) -> str:
    from .oracle import default_inputs, default_weights, run_training_step
    model = _load_model(args.model, None)
    with _in_model(args.model, model.name):
        if sum((layer.inputs + 1) * layer.outputs for layer in model.layers
               if isinstance(layer, FullyConnected)) > MAX_ORACLE_PARAMETERS:
            raise ValueError(f"the oracle runs at most {MAX_ORACLE_PARAMETERS} weights "
                             f"and biases; this model has more")
        weights = default_weights(model, args.seed)
        inputs = default_inputs(model, args.seed)
        targets = [0.5] * model.layers[-1].output_units
        tally = run_training_step(model, inputs, targets, weights=weights)
    rows = [["segment", "n_add", "n_sub", "n_mul", "n_div", "n_root"]]
    rows.append(["forward"] + _counts_row(tally.forward))
    rows.append(["loss"] + _counts_row(tally.loss))
    for index, counts in enumerate(tally.backprop_layers, start=1):
        rows.append([f"backprop_layer_{index}"] + _counts_row(counts))
    rows.append(["backprop"] + _counts_row(tally.backprop))
    rows.append(["update"] + _counts_row(tally.update))
    return write_table(rows)


# The options several commands share, as (flag, add_argument keywords).
LEVEL = ("--level", dict(choices=[l.value for l in AnalysisLevel],
                         default=AnalysisLevel.INFERENCE.value,
                         help="run steps to count (default: %(default)s)"))
OUT = ("--out", dict(help="write the output table to this file"))
FORMAT = ("--format", dict(choices=sorted(FLOAT_FORMATS),
                           help="override the model file's float format"))
COST_TABLE = ("--cost-table", dict(help=f"cost-table file (default: ${COST_TABLE_ENV} "
                                        f"or built-in defaults)"))
RAW = ("--raw", dict(action="store_true", help="print full-precision values"))
SCALE = ("--scale", dict(choices=["instance", "step", "run"], default="instance",
                         help="workload scale for emitted values"))

# name -> (help, handler, its arguments as (flag, add_argument keywords)),
# in the order `--help` lists them. `oracle`, a debugging aid that runs
# the instrumented scalar executor, has no help and so is not listed.
COMMANDS = {
    "count": ("per-layer basic-operation census", cmd_count, [("model", {}), LEVEL, OUT]),
    "tos": ("transistor-operation workload report", cmd_tos,
            [("model", {}), LEVEL, OUT, FORMAT, COST_TABLE, RAW]),
    "ingest": ("integrate power traces into energy samples", cmd_ingest, [
        ("traces", dict(nargs="+")),
        ("--adapter", dict(help="column-mapping config for vendor trace layouts")),
        ("--trim-k", dict(type=int, default=5, help="drop the k largest and smallest "
                                                    "runs per model (default %(default)s)")),
        ("--out", dict(help="write the sample table to this file"))]),
    "fit": ("fit the workload-to-energy line", cmd_fit, [
        ("pairs", dict(help="CSV with header tos,joules")),
        ("--out", dict(help="write the fitted model file here"))]),
    "estimate": ("predict energies from a fitted model", cmd_estimate, [
        ("models", dict(nargs="*")),
        ("--fitted", dict(required=True, help="fitted model file")),
        ("--tos-file", dict(help="CSV of precomputed workloads (model_id,tos)")),
        LEVEL, OUT, FORMAT, COST_TABLE, RAW, SCALE]),
    "sweep": ("width x activation family sweep", cmd_sweep, [
        ("base", {}),
        ("--widths", dict(required=True, help="width range, e.g. 4..13")),
        ("--activations", dict(default="sigmoid,tanh,gelu",
                               help="comma-separated activation names")),
        ("--fitted-model", dict(help="optional fitted model for energy estimates")),
        ("--svg", dict(help="also render a polyline chart to this file")),
        LEVEL, OUT, FORMAT, COST_TABLE, RAW, SCALE]),
    "compare": ("score two prediction sets against measurements", cmd_compare, [
        ("predictions_tos", {}), ("predictions_flops", {}), ("actual", {}),
        ("--out", dict(help="write the report to this file")), RAW]),
    "tradeoff": ("select a model by energy/loss trade-off", cmd_tradeoff, [
        ("candidates", dict(help="CSV with header model_id,energy_j,loss")),
        ("--alpha", dict(type=float, required=True, help="energy weight in [0, 1]"))]),
    "oracle": (None, cmd_oracle,
               [("model", {}), ("--seed", dict(type=int, default=None)), ("--out", {})]),
}


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for ``argv``: with only the subparser of the command
    that ``argv[0]`` names, or with all of them when it names none (no
    argv, ``--help``, an option or an unknown command)."""
    parser = argparse.ArgumentParser(
        prog="tos-analyzer",
        description="Transistor-operation workload and energy scaling analysis.",
    )
    if argv and argv[0] in COMMANDS:
        names = [argv[0]]
        # The usage line of an unrecognized-argument error names every
        # command. Only here: a metavar would also rename the positional
        # in the full parser's invalid-choice and missing-command errors.
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(COMMANDS) + "}")
    else:
        names = list(COMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, handler, arguments = COMMANDS[name]
        # `help=None` would still list the command; leaving it out does not.
        p = sub.add_parser(name) if help_text is None else sub.add_parser(name, help=help_text)
        for flag, options in arguments:
            p.add_argument(flag, **options)
        p.set_defaults(handler=handler, out=None)  # `tradeoff` has no --out: it prints one id
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as e:  # --help, or a usage error argparse has printed
        return e.code
    try:
        text = args.handler(args)
        if args.out:
            Path(args.out).write_text(text, encoding="utf-8")
        else:
            sys.stdout.write(text)
        return EXIT_OK
    except UnsupportedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_UNSUPPORTED
    except (ValueError, OverflowError, OSError) as e:
        # ParseError, ValidationError, TraceError and DegenerateFitError
        # are all ValueErrors; an OverflowError comes from finite input
        # values too large for a float.
        print(f"error: {e}", file=sys.stderr)
        return EXIT_INPUT


def entry() -> None:
    sys.exit(main())
