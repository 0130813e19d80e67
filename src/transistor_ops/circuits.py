"""Transistor-operation lowering through an arithmetic-circuit cost model.

Basic-operation counts are priced by opening the arithmetic unit one
level further: an n-bit ripple adder costs (n-1) full adders plus one
half adder; multipliers and dividers are priced from 64-bit reference
circuits (a Booth-Wallace style multiplier at 90k transistors, an SRT
style divider at 110k) scaled by a power law in operand width; the root
slot, covering exponentials and square roots alike, is simulated as
Newton-Raphson iterations of one divide, one multiply and one add.

Floating-point operations decompose per the binary interchange layout:
add/sub run a significand-wide adder (exponent alignment shifts are not
priced); mul/div run a sign XOR, a significand-wide multiplier or
divider, and an exponent-wide adder.

Transistor-operation totals are a real-valued workload index, not a
physical transistor census, so fractional values are kept exact.

The cost table is immutable after load and every function here is pure.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from operator import mul

from .basic_ops import BasicOpCounts, census, scale_to_run
from .model import (
    AnalysisLevel,
    FloatFormat,
    ModelSpec,
    ParseError,
    as_count,
    as_number,
    check_keys,
    parse_json_object,
    read_document,
)


class OpKind(Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    ROOT = "root"


@dataclass(frozen=True)
class ScaledUnitRef:
    """Reference circuit: transistor count at a known operand width."""

    bits: int
    transistors: float

    def __post_init__(self) -> None:
        if self.bits < 1:
            raise ValueError("reference bit width must be >= 1")
        if self.transistors <= 0:
            raise ValueError("reference transistor count must be positive")


@dataclass(frozen=True)
class CostTable:
    """Transistor costs for circuit primitives plus scaling parameters."""

    fa_transistors: float = 10.0
    ha_transistors: float = 5.0
    xor_transistors: float = 6.0
    mult_ref: ScaledUnitRef = ScaledUnitRef(64, 90_000.0)
    div_ref: ScaledUnitRef = ScaledUnitRef(64, 110_000.0)
    scaling_exponent: float = 2.0
    newton_iterations: int = 3

    def __post_init__(self) -> None:
        for name in ("fa_transistors", "ha_transistors", "xor_transistors"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.scaling_exponent <= 0:
            raise ValueError("scaling_exponent must be positive")
        if self.newton_iterations < 1:
            raise ValueError("newton_iterations must be >= 1")


DEFAULT_COST_TABLE = CostTable()

_TABLE_KEYS = {
    "fa", "ha", "xor",
    "mult_ref_bits", "mult_ref_transistors",
    "div_ref_bits", "div_ref_transistors",
    "scaling_exponent", "newton_iterations",
}


def parse_cost_table(text: str) -> CostTable:
    """Parse a cost-table document; every key is optional, unknown keys
    are rejected, and each value must be a finite number (an integer for
    the bit widths and the iteration count)."""
    doc = parse_json_object(text, "cost table")
    check_keys(doc, _TABLE_KEYS, set(), "cost table")
    base = DEFAULT_COST_TABLE

    def get(key, default, read=as_number):
        return read(doc[key], key) if key in doc else default

    try:
        return CostTable(
            fa_transistors=get("fa", base.fa_transistors),
            ha_transistors=get("ha", base.ha_transistors),
            xor_transistors=get("xor", base.xor_transistors),
            mult_ref=ScaledUnitRef(
                get("mult_ref_bits", base.mult_ref.bits, as_count),
                get("mult_ref_transistors", base.mult_ref.transistors),
            ),
            div_ref=ScaledUnitRef(
                get("div_ref_bits", base.div_ref.bits, as_count),
                get("div_ref_transistors", base.div_ref.transistors),
            ),
            scaling_exponent=get("scaling_exponent", base.scaling_exponent),
            newton_iterations=get("newton_iterations", base.newton_iterations, as_count),
        )
    except ValueError as e:
        raise ParseError(f"cost table: {e}") from None


def load_cost_table(path) -> CostTable:
    return read_document(path, lambda fh: parse_cost_table(fh.read()))


def adder_tos(bits: int, table: CostTable = DEFAULT_COST_TABLE) -> float:
    """An n-bit adder: (n-1) full adders plus one half adder."""
    if bits < 1:
        raise ValueError(f"adder width must be >= 1, got {bits}")
    return (bits - 1) * table.fa_transistors + table.ha_transistors


def scaled_unit_tos(bits: int, ref: ScaledUnitRef, exponent: float) -> float:
    """Power-law width scaling around a reference circuit; exact at the
    reference width for any exponent."""
    if bits < 1:
        raise ValueError(f"unit width must be >= 1, got {bits}")
    return ref.transistors * (bits / ref.bits) ** exponent


def fp_op_tos(op: OpKind, fmt: FloatFormat,
              table: CostTable = DEFAULT_COST_TABLE) -> float:
    """Transistor operations for one floating-point basic operation."""
    frac = fmt.significand_bits
    if op is OpKind.ADD or op is OpKind.SUB:
        # Subtraction runs through the adder via two's complement.
        return adder_tos(frac, table)
    if op is OpKind.MUL:
        return (table.xor_transistors
                + scaled_unit_tos(frac, table.mult_ref, table.scaling_exponent)
                + adder_tos(fmt.exponent_bits, table))
    if op is OpKind.DIV:
        return (table.xor_transistors
                + scaled_unit_tos(frac, table.div_ref, table.scaling_exponent)
                + adder_tos(fmt.exponent_bits, table))
    if op is OpKind.ROOT:
        per_iter = (fp_op_tos(OpKind.DIV, fmt, table)
                    + fp_op_tos(OpKind.MUL, fmt, table)
                    + fp_op_tos(OpKind.ADD, fmt, table))
        return table.newton_iterations * per_iter
    raise ValueError(f"unknown op kind: {op!r}")


@lru_cache(maxsize=64)
def fp_cost_vector(fmt: FloatFormat,
                   table: CostTable = DEFAULT_COST_TABLE) -> tuple[float, ...]:
    """Costs for (add, sub, mul, div, root) in census order."""
    return tuple(fp_op_tos(op, fmt, table) for op in
                 (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.ROOT))


def _dot(counts: tuple[int, ...], costs: tuple[float, ...]) -> float:
    """The n*c products summed left to right from 0, in census order."""
    return float(sum(map(mul, counts, costs)))


def tos_from_bos(bos: BasicOpCounts, fmt: FloatFormat,
                 table: CostTable = DEFAULT_COST_TABLE) -> float:
    """Lower a census vector to transistor operations (linear in the census)."""
    return _dot(bos.as_tuple(), fp_cost_vector(fmt, table))


@dataclass(frozen=True)
class PhaseTos:
    """Transistor operations split by run step."""

    forward: float = 0.0
    backprop: float = 0.0
    loss: float = 0.0
    update: float = 0.0

    @property
    def total(self) -> float:
        return self.forward + self.backprop + self.loss + self.update


@dataclass(frozen=True)
class ToProfile:
    """Per-layer and aggregate transistor-operation workload.

    ``per_instance`` covers one data instance (updates are per batch
    step, so its update slot is zero and the per-step census is exposed
    separately as ``update_per_batch``). ``per_run`` covers one full run
    (dataset_len * epochs instances plus every optimizer step), and
    ``per_step`` is the per-optimizer-step average, per_run divided by
    the total step count.

    ``nonlinear_share`` is the fraction of the run total attributable to
    operations outside the layers' multiply-accumulates: activations,
    activation derivatives, the loss and parameter updates.
    """

    layer_forward: tuple[float, ...]
    layer_backprop: tuple[float, ...]
    update_per_batch: float
    per_instance: PhaseTos
    per_run: PhaseTos
    per_step: PhaseTos
    nonlinear_share: float
    instances_per_run: int
    steps_per_run: int


def analyze(model: ModelSpec, level: AnalysisLevel,
            table: CostTable = DEFAULT_COST_TABLE) -> ToProfile:
    """Lower the model's census at ``level`` to transistor operations."""
    layers, loss_counts, update_counts, nonlinear = census(model, level)
    costs = fp_cost_vector(model.float_format, table)
    instances, steps = model.instances_per_run, model.steps_per_run

    layer_forward = tuple(_dot(forward, costs) for forward, _, _ in layers)
    layer_backprop = tuple(_dot(backprop, costs) for _, backprop, _ in layers)
    update_per_batch = _dot(update_counts, costs)
    loss = _dot(loss_counts, costs)

    per_instance = PhaseTos(sum(layer_forward), sum(layer_backprop), loss)
    per_run = PhaseTos(per_instance.forward * instances, per_instance.backprop * instances,
                       per_instance.loss * instances, update_per_batch * steps)
    step = 1.0 / steps
    per_step = PhaseTos(per_run.forward * step, per_run.backprop * step,
                        per_run.loss * step, per_run.update * step)

    nonlinear_run = _dot(scale_to_run(nonlinear, update_counts, model), costs)
    share = nonlinear_run / per_run.total if per_run.total > 0 else 0.0

    return ToProfile(
        layer_forward=layer_forward,
        layer_backprop=layer_backprop,
        update_per_batch=update_per_batch,
        per_instance=per_instance,
        per_run=per_run,
        per_step=per_step,
        nonlinear_share=share,
        instances_per_run=instances,
        steps_per_run=steps,
    )
