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

from functools import lru_cache
from math import isfinite
from typing import NamedTuple

from .basic_ops import census, scale_to_run
from .model import (
    FLOAT_FORMATS,
    AnalysisLevel,
    FloatFormat,
    ModelSpec,
    ValidationError,
    Value,
    as_count,
    as_positive,
    check_keys,
    parse_json_object,
    placed,
    read_document,
)


class CostTable(Value):
    """Transistor costs for circuit primitives plus scaling parameters; the
    fields are the cost-table document's keys."""

    __slots__ = ("fa", "ha", "xor", "mult_ref_bits", "mult_ref_transistors",
                 "div_ref_bits", "div_ref_transistors", "scaling_exponent",
                 "newton_iterations")

    def __init__(self, fa: float = 10.0, ha: float = 5.0, xor: float = 6.0,
                 mult_ref_bits: int = 64, mult_ref_transistors: float = 90_000.0,
                 div_ref_bits: int = 64, div_ref_transistors: float = 110_000.0,
                 scaling_exponent: float = 2.0, newton_iterations: int = 3) -> None:
        self._fill(as_positive(fa, "fa"), as_positive(ha, "ha"), as_positive(xor, "xor"),
                   as_count(mult_ref_bits, "mult_ref_bits"),
                   as_positive(mult_ref_transistors, "mult_ref_transistors"),
                   as_count(div_ref_bits, "div_ref_bits"),
                   as_positive(div_ref_transistors, "div_ref_transistors"),
                   as_positive(scaling_exponent, "scaling_exponent"),
                   as_count(newton_iterations, "newton_iterations"))


DEFAULT_COST_TABLE = CostTable()


def parse_cost_table(text: str) -> CostTable:
    """Parse a cost-table document; every key is optional, unknown keys
    are rejected, and each value must be a finite number (an integer for
    the bit widths and the iteration count). The costs of one operation
    must stay finite in every float format, since ``--format`` can pair
    the table with any of them."""
    doc = parse_json_object(text, "cost table")
    check_keys(doc, set(CostTable.__slots__), set(), "cost table")
    table = placed(lambda field: f"cost table: {field}", CostTable, **doc)
    for name, fmt in FLOAT_FORMATS.items():
        try:
            finite = all(map(isfinite, fp_cost_vector(fmt, table)))
        except OverflowError:  # the power law of a reference circuit
            finite = False
        if not finite:
            raise ValidationError(f"cost table: the operation costs overflow a float at {name}")
    return table


def load_cost_table(path) -> CostTable:
    return read_document(path, lambda fh: parse_cost_table(fh.read()))


def adder_tos(bits: int, table: CostTable = DEFAULT_COST_TABLE) -> float:
    """An n-bit adder: (n-1) full adders plus one half adder."""
    if bits < 1:
        raise ValueError(f"adder width must be >= 1, got {bits}")
    return (bits - 1) * table.fa + table.ha


def scaled_unit_tos(bits: int, ref_bits: int, ref_transistors: float,
                    exponent: float) -> float:
    """Power-law width scaling around a reference circuit of
    ``ref_transistors`` at ``ref_bits``; exact at the reference width for
    any exponent."""
    if bits < 1:
        raise ValueError(f"unit width must be >= 1, got {bits}")
    return ref_transistors * (bits / ref_bits) ** exponent


@lru_cache(maxsize=64)
def fp_cost_vector(fmt: FloatFormat,
                   table: CostTable = DEFAULT_COST_TABLE) -> tuple[float, ...]:
    """Transistor operations of one floating-point (add, sub, mul, div,
    root), in census order, by the decomposition in the module notes.

    This is the one lowering primitive: a census vector lowers to TOs as
    its dot product with this vector, which is what :func:`analyze` does."""
    frac, exponent_add = fmt.significand_bits, adder_tos(fmt.exponent_bits, table)
    add = adder_tos(frac, table)
    times, divide = (table.xor + scaled_unit_tos(frac, *ref, table.scaling_exponent)
                     + exponent_add
                     for ref in ((table.mult_ref_bits, table.mult_ref_transistors),
                                 (table.div_ref_bits, table.div_ref_transistors)))
    return add, add, times, divide, table.newton_iterations * (divide + times + add)


def _dot(counts: tuple[int, ...], costs: tuple[float, ...]) -> float:
    """The n*c products summed left to right, in census order."""
    a, s, m, d, r = counts
    ca, cs, cm, cd, cr = costs
    return a * ca + s * cs + m * cm + d * cd + r * cr


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

    layer_forward, layer_backprop = [], []
    forward = backprop = 0.0  # each layer added left to right, as by `left_sum`
    for forward_counts, backprop_counts, _ in layers:
        tos = _dot(forward_counts, costs)
        layer_forward.append(tos)
        forward += tos
        tos = _dot(backprop_counts, costs)
        layer_backprop.append(tos)
        backprop += tos
    loss, update = _dot(loss_counts, costs), _dot(update_counts, costs)

    per_run = PhaseTos(forward * instances, backprop * instances, loss * instances,
                       update * steps)
    step, total = 1.0 / steps, per_run.total
    nonlinear_run = _dot(scale_to_run(nonlinear, update_counts, instances, steps), costs)
    # ToProfile's fields: per layer, update per batch, per instance/run/step, share.
    return ToProfile(tuple(layer_forward), tuple(layer_backprop), update,
                     PhaseTos(forward, backprop, loss), per_run,
                     PhaseTos(*[tos * step for tos in per_run]),
                     nonlinear_run / total if total > 0 else 0.0)
