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

from enum import Enum
from functools import lru_cache
from operator import mul
from typing import NamedTuple

from .basic_ops import BasicOpCounts, census, scale_to_run
from .model import (
    AnalysisLevel,
    FieldError,
    FloatFormat,
    ModelSpec,
    Value,
    as_count,
    as_positive,
    check_keys,
    parse_json_object,
    placed,
    read_document,
)


class OpKind(Enum):
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    DIV = "div"
    ROOT = "root"


class ScaledUnitRef(Value):
    """Reference circuit: transistor count at a known operand width."""

    __slots__ = ("bits", "transistors")

    def __init__(self, bits: int, transistors: float) -> None:
        self._fill(as_count(bits, "bits"), as_positive(transistors, "transistors"))


class CostTable(Value):
    """Transistor costs for circuit primitives plus scaling parameters."""

    __slots__ = ("fa_transistors", "ha_transistors", "xor_transistors",
                 "mult_ref", "div_ref", "scaling_exponent", "newton_iterations")

    def __init__(self, fa_transistors: float = 10.0, ha_transistors: float = 5.0,
                 xor_transistors: float = 6.0,
                 mult_ref: ScaledUnitRef = ScaledUnitRef(64, 90_000.0),
                 div_ref: ScaledUnitRef = ScaledUnitRef(64, 110_000.0),
                 scaling_exponent: float = 2.0, newton_iterations: int = 3) -> None:
        for name, ref in (("mult_ref", mult_ref), ("div_ref", div_ref)):
            if not isinstance(ref, ScaledUnitRef):
                raise FieldError(f"{name}: expected a ScaledUnitRef, got {ref!r}")
        self._fill(as_positive(fa_transistors, "fa_transistors"),
                   as_positive(ha_transistors, "ha_transistors"),
                   as_positive(xor_transistors, "xor_transistors"), mult_ref, div_ref,
                   as_positive(scaling_exponent, "scaling_exponent"),
                   as_count(newton_iterations, "newton_iterations"))


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

    def ref(prefix: str, default: ScaledUnitRef) -> ScaledUnitRef:
        return placed(lambda field: f"cost table: {prefix}_{field}", ScaledUnitRef,
                      doc.get(f"{prefix}_bits", default.bits),
                      doc.get(f"{prefix}_transistors", default.transistors))

    # A key is its field's name without "_transistors": "fa" sets fa_transistors.
    return placed(lambda field: f"cost table: {field.removesuffix('_transistors')}",
                  CostTable, doc.get("fa", base.fa_transistors),
                  doc.get("ha", base.ha_transistors), doc.get("xor", base.xor_transistors),
                  ref("mult_ref", base.mult_ref), ref("div_ref", base.div_ref),
                  doc.get("scaling_exponent", base.scaling_exponent),
                  doc.get("newton_iterations", base.newton_iterations))


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


@lru_cache(maxsize=64)
def fp_cost_vector(fmt: FloatFormat,
                   table: CostTable = DEFAULT_COST_TABLE) -> tuple[float, ...]:
    """Transistor operations of one floating-point (add, sub, mul, div,
    root), in census order, by the decomposition in the module notes."""
    frac, exponent_add = fmt.significand_bits, adder_tos(fmt.exponent_bits, table)
    add = adder_tos(frac, table)
    times, divide = (table.xor_transistors + scaled_unit_tos(frac, ref, table.scaling_exponent)
                     + exponent_add for ref in (table.mult_ref, table.div_ref))
    return add, add, times, divide, table.newton_iterations * (divide + times + add)


def fp_op_tos(op: OpKind, fmt: FloatFormat,
              table: CostTable = DEFAULT_COST_TABLE) -> float:
    """Transistor operations for one floating-point basic operation."""
    return fp_cost_vector(fmt, table)[list(OpKind).index(op)]


def _dot(counts: tuple[int, ...], costs: tuple[float, ...]) -> float:
    """The n*c products summed left to right from 0, in census order."""
    return float(sum(map(mul, counts, costs)))


def tos_from_bos(bos: BasicOpCounts, fmt: FloatFormat,
                 table: CostTable = DEFAULT_COST_TABLE) -> float:
    """Lower a census vector to transistor operations (linear in the census)."""
    return _dot(bos.as_tuple(), fp_cost_vector(fmt, table))


class PhaseTos(NamedTuple):
    """Transistor operations split by run step."""

    forward: float = 0.0
    backprop: float = 0.0
    loss: float = 0.0
    update: float = 0.0

    @property
    def total(self) -> float:
        return self.forward + self.backprop + self.loss + self.update


class ToProfile(NamedTuple):
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
    )
