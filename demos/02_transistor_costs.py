#!/usr/bin/env python3
# Price the five basic operations in transistor operations (TOs): open
# the arithmetic unit into adders, multipliers, dividers and a
# Newton-Raphson loop for the transcendental slot.

from operator import mul

from transistor_ops import (
    Activation,
    AnalysisLevel,
    BasicOpCounts,
    CostTable,
    DEFAULT_COST_TABLE,
    FP16,
    FP32,
    FP64,
    FullyConnected,
    Loss,
    ModelSpec,
    adder_tos,
    analyze,
    fp_cost_vector,
    scaled_unit_tos,
)

table = DEFAULT_COST_TABLE
OPS = ("add", "sub", "mul", "div", "root")  # census order

# Bit-level building blocks. A 24-bit adder is 23 full adders (10
# transistors each) plus a half adder (5): the fp32 significand path.
print("24-bit adder:", adder_tos(24, table))
print(" 8-bit adder:", adder_tos(8, table))

# Multiplier/divider budgets scale from 64-bit reference circuits by a
# power law in operand width (exponent 2 by default).
mult_ref = (table.mult_ref_bits, table.mult_ref_transistors)
div_ref = (table.div_ref_bits, table.div_ref_transistors)
print("64-bit multiplier:", scaled_unit_tos(64, *mult_ref, table.scaling_exponent))
print("24-bit multiplier:", scaled_unit_tos(24, *mult_ref, table.scaling_exponent))
print("24-bit divider:   ", scaled_unit_tos(24, *div_ref, table.scaling_exponent))

# Full floating-point operations: mul/div add a sign XOR and an
# exponent-wide adder on top of the significand unit.
print("\nper-op TO costs by float format")
print(f"{'op':>6s} {'fp16':>12s} {'fp32':>12s} {'fp64':>12s}")
by_format = [fp_cost_vector(fmt, table) for fmt in (FP16, FP32, FP64)]
for op, costs in zip(OPS, zip(*by_format)):
    print(f"{op:>6s} " + " ".join(f"{c:12.2f}" for c in costs))

# The asymmetry is the whole point: one division costs ~66 adds at fp32,
# one transcendental (3 Newton-Raphson iterations) costs ~364 adds. A
# census that only tracked multiply-accumulates would miss all of it.
fp32 = fp_cost_vector(FP32, table)
print("\nrelative to one fp32 add:")
for op, cost in zip(OPS, fp32):
    print(f"  {op:5s} = {cost / fp32[0]:7.1f} adds")

# Lowering a census vector is a dot product with those costs.
census = BasicOpCounts(n_add=65, n_sub=13, n_mul=52, n_div=13, n_root=13)
print("\ndemo census lowered at fp32:", sum(map(mul, census.as_tuple(), fp32)))

# A custom cost table swaps in different circuit assumptions.
cheap_root = fp_cost_vector(FP32, CostTable(newton_iterations=1))
print("same census, 1 Newton iteration:", sum(map(mul, census.as_tuple(), cheap_root)))

# Whole-model view, including the share of work a MAC-only count misses.
model = ModelSpec("demo", FP32,
                  tuple([FullyConnected(4, 4, Activation.SIGMOID)] * 3
                        + [FullyConnected(4, 1, Activation.SIGMOID)]),
                  Loss.MSE, 1372, 64, 2000)
profile = analyze(model, AnalysisLevel.TRAINING, table)
print("\ntraining TOs per instance:", f"{profile.per_instance.total:.1f}")
print("training TOs per run:     ", f"{profile.per_run.total:.4g}")
print("non-linear share of total: ", f"{profile.nonlinear_share:.1%}")
