import random
from functools import reduce
from operator import add, mul

import pytest

from transistor_ops import (
    Activation,
    AnalysisLevel,
    BasicOpCounts,
    Convolutional,
    CostTable,
    DEFAULT_COST_TABLE,
    FP16,
    FP32,
    FP64,
    FullyConnected,
    Loss,
    ModelSpec,
    ParseError,
    PhaseTos,
    ToProfile,
    UnsupportedError,
    adder_tos,
    analyze,
    count_model,
    fp_cost_vector,
    model_family,
    parse_cost_table,
    scaled_unit_tos,
)

from conftest import fc_model, quadratic_through
from exact_corpus import digests


class TestAdder:
    @pytest.mark.parametrize("bits,expected", [(24, 235.0), (8, 75.0), (1, 5.0)])
    def test_full_plus_half_adder_pricing(self, bits, expected):
        assert adder_tos(bits) == expected

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            adder_tos(0)


# The default table's multiplier and divider reference circuits.
MULT_REF = (DEFAULT_COST_TABLE.mult_ref_bits, DEFAULT_COST_TABLE.mult_ref_transistors)
DIV_REF = (DEFAULT_COST_TABLE.div_ref_bits, DEFAULT_COST_TABLE.div_ref_transistors)


class TestScaledUnit:
    def test_multiplier_reference(self):
        assert scaled_unit_tos(64, *MULT_REF, 2.0) == 90_000.0

    def test_divider_reference(self):
        assert scaled_unit_tos(64, *DIV_REF, 2.0) == 110_000.0

    def test_scaled_down_values(self):
        assert scaled_unit_tos(24, *MULT_REF, 2.0) == 12_656.25
        assert scaled_unit_tos(24, *DIV_REF, 2.0) == 15_468.75

    def test_reference_exact_for_any_exponent(self):
        rng = random.Random(3)
        for _ in range(20):
            gamma = rng.uniform(0.2, 4.0)
            assert scaled_unit_tos(64, 64, 90_000.0, gamma) == 90_000.0

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            scaled_unit_tos(0, *MULT_REF, 2.0)


def fold(values):
    """``values`` added left to right from 0.0, the order the lowering sums
    in on every interpreter (the built-in ``sum`` of floats is compensated
    from Python 3.12 on)."""
    return reduce(add, values, 0.0)


def lower(counts, fmt=FP32, table=DEFAULT_COST_TABLE):
    """A census vector's TOs: its dot product with the cost vector."""
    return fold(map(mul, counts.as_tuple(), fp_cost_vector(fmt, table)))


# The cost-vector slot of each basic operation, in census order.
OPS = ("add", "sub", "mul", "div", "root")
ADD, SUB, MUL, DIV, ROOT = range(5)


class TestFpOps:
    def test_fp32_fixtures(self):
        costs = fp_cost_vector(FP32)
        assert (costs[ADD], costs[MUL], costs[DIV]) == (235.0, 12_737.25, 15_549.75)

    def test_fp64_sub_equals_add(self):
        assert fp_cost_vector(FP64)[SUB] == fp_cost_vector(FP64)[ADD] == 525.0

    @pytest.mark.parametrize("fmt", [FP16, FP32, FP64])
    def test_sub_equals_add_everywhere(self, fmt):
        assert fp_cost_vector(fmt)[SUB] == fp_cost_vector(fmt)[ADD]

    def test_root_is_newton_iterations_of_div_mul_add(self):
        for table in (DEFAULT_COST_TABLE, CostTable(newton_iterations=5)):
            add, _, times, divide, root = fp_cost_vector(FP32, table)
            assert root == table.newton_iterations * (divide + times + add)

    @pytest.mark.parametrize("op", range(5), ids=OPS)
    def test_wider_formats_cost_more(self, op):
        assert fp_cost_vector(FP16)[op] < fp_cost_vector(FP32)[op] < fp_cost_vector(FP64)[op]


class TestLowering:
    def test_one_add_one_mul(self):
        assert lower(BasicOpCounts(n_add=1, n_mul=1)) == 12_972.25

    def test_zero_census_costs_nothing(self):
        assert lower(BasicOpCounts(), FP16) == 0.0

    def test_single_div_equals_its_op_cost(self):
        assert lower(BasicOpCounts(n_div=1)) == fp_cost_vector(FP32)[DIV]

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(30):
            a = BasicOpCounts(*(rng.randint(0, 40) for _ in range(5)))
            b = BasicOpCounts(*(rng.randint(0, 40) for _ in range(5)))
            assert lower(a + b) == pytest.approx(lower(a) + lower(b), rel=1e-15)


class TestCostTableParsing:
    def test_empty_document_gives_defaults(self):
        assert parse_cost_table("{}") == DEFAULT_COST_TABLE

    def test_overrides(self):
        table = parse_cost_table(
            '{"fa": 12, "scaling_exponent": 1.5, "newton_iterations": 2}'
        )
        assert table == CostTable(fa=12.0, scaling_exponent=1.5, newton_iterations=2)

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="nand"):
            parse_cost_table('{"nand": 4}')

    def test_invalid_value_rejected(self):
        with pytest.raises(ParseError):
            parse_cost_table('{"fa": -1}')

    def test_table_validation(self):
        with pytest.raises(ValueError):
            CostTable(newton_iterations=0)
        with pytest.raises(ValueError):
            CostTable(scaling_exponent=0.0)


class TestAnalyze:
    def test_width4_inference_composition(self, width4_dnn):
        profile = analyze(width4_dnn, AnalysisLevel.INFERENCE)
        want = lower(BasicOpCounts(65, 13, 52, 13, 13))
        assert profile.per_instance.total == pytest.approx(want, rel=1e-15)
        # brute-force check: summing the per-layer lowering agrees
        assert sum(profile.layer_forward) == pytest.approx(want, rel=1e-15)

    def test_totals_are_definitionally_consistent(self, width4_dnn):
        profile = analyze(width4_dnn, AnalysisLevel.TRAINING)
        for phase in (profile.per_instance, profile.per_run, profile.per_step):
            assert phase.total == pytest.approx(
                phase.forward + phase.backprop + phase.loss + phase.update,
                rel=1e-15)
        assert profile.per_instance.update == 0.0
        assert profile.per_run.update == pytest.approx(
            profile.update_per_batch * width4_dnn.steps_per_run, rel=1e-15)

    def test_per_step_is_per_run_over_steps(self, width4_dnn):
        profile = analyze(width4_dnn, AnalysisLevel.TRAINING)
        assert profile.per_step.total == pytest.approx(
            profile.per_run.total / width4_dnn.steps_per_run, rel=1e-15)

    def test_gelu_costs_more_than_sigmoid(self):
        sig = fc_model([4, 10, 10, 10, 1], Activation.SIGMOID)
        gel = fc_model([4, 10, 10, 10, 1], Activation.GELU)
        for level in AnalysisLevel:
            assert analyze(sig, level).per_run.total \
                < analyze(gel, level).per_run.total

    def test_fp64_dominates_fp32(self, width4_dnn):
        fp32_total = analyze(width4_dnn, AnalysisLevel.TRAINING).per_run.total
        fp64_total = analyze(width4_dnn._replace(float_format=FP64),
                             AnalysisLevel.TRAINING).per_run.total
        assert fp64_total > fp32_total

    def test_tanh_tracks_gelu_closely_at_forward_level(self, width4_dnn):
        family = model_family(width4_dnn, range(4, 19),
                              [Activation.TANH, Activation.GELU])
        for i in range(0, len(family), 2):
            tanh_total = analyze(family[i], AnalysisLevel.INFERENCE).per_instance.total
            gelu_total = analyze(family[i + 1], AnalysisLevel.INFERENCE).per_instance.total
            assert abs(tanh_total - gelu_total) / gelu_total < 0.02

    def test_inference_workload_is_quadratic_in_width(self, width4_dnn):
        family = model_family(width4_dnn, [4, 5, 6, 9], [Activation.SIGMOID])
        widths = [4.0, 5.0, 6.0, 9.0]
        totals = [analyze(m, AnalysisLevel.INFERENCE).per_instance.total
                  for m in family]
        held_out = quadratic_through(widths[:3], totals[:3], widths[3])
        assert held_out == pytest.approx(totals[3], rel=1e-9)

    def test_nonlinear_share_is_positive_fraction(self, width4_dnn):
        for level in AnalysisLevel:
            share = analyze(width4_dnn, level).nonlinear_share
            assert 0.0 < share < 1.0

    def test_training_propagates_unsupported(self):
        from transistor_ops import Convolutional, FP32, Loss, ModelSpec
        m = ModelSpec("c", FP32, (Convolutional(2, 3, 1, 2, Activation.GELU),),
                      Loss.MSE, 4, 2, 1)
        with pytest.raises(UnsupportedError):
            analyze(m, AnalysisLevel.TRAINING)
        # validation-level lowering of a conv stack still works
        profile = analyze(m, AnalysisLevel.VALIDATION)
        assert profile.per_instance.loss > 0.0


# Activation ops per unit, (add, sub, mul, div, root): forward, and the
# backprop delta-scale multiply plus derivative construction.
ACT_FORWARD = {Activation.NONE: (0, 0, 0, 0, 0), Activation.SIGMOID: (1, 1, 0, 1, 1),
               Activation.GELU: (1, 1, 2, 1, 1), Activation.TANH: (1, 2, 2, 1, 1)}
ACT_BACKWARD = {Activation.NONE: (0, 0, 1, 0, 0), Activation.SIGMOID: (0, 1, 2, 0, 0),
                Activation.TANH: (0, 1, 2, 0, 0), Activation.GELU: (0, 2, 5, 1, 1)}


def nonlinear_run_census(model, level, report):
    """What a MAC count misses over one run: activation (and, in training,
    derivative) ops times each layer's units plus the loss, per instance,
    and the parameter updates per optimizer step."""
    tables = (ACT_FORWARD, ACT_BACKWARD) if level.includes_backprop else (ACT_FORWARD,)
    per_instance = list(report.loss.as_tuple())
    for layer in model.layers:
        for table in tables:
            for j, n in enumerate(table[layer.activation]):
                per_instance[j] += n * layer.output_units
    return BasicOpCounts(*(n * model.instances_per_run + u * model.steps_per_run
                           for n, u in zip(per_instance, report.update_per_batch.as_tuple())))


def lowered_report(model, level, table):
    """Lower the ``count_model`` report by dot products with
    ``fp_cost_vector``, in the order the lowering has always summed: each
    layer's census vector, then the layer sums, then the run and step
    scaling."""
    report = count_model(model, level)

    def lowered(bos):
        return float(lower(bos, model.float_format, table))

    layer_forward = tuple(lowered(p.forward) for p in report.layers)
    layer_backprop = tuple(lowered(p.backprop) for p in report.layers)
    update = lowered(report.update_per_batch)
    per_instance = PhaseTos(fold(layer_forward), fold(layer_backprop), lowered(report.loss), 0.0)
    instances, steps = model.instances_per_run, model.steps_per_run
    per_run = PhaseTos(per_instance.forward * instances, per_instance.backprop * instances,
                       per_instance.loss * instances, update * steps)
    step = 1.0 / steps
    per_step = PhaseTos(per_run.forward * step, per_run.backprop * step,
                        per_run.loss * step, per_run.update * step)
    total = per_run.total
    share = lowered(nonlinear_run_census(model, level, report)) / total if total > 0 else 0.0
    return ToProfile(layer_forward, layer_backprop, update, per_instance, per_run,
                     per_step, share)


class TestCensusLowering:
    """``analyze`` lowers the integer census directly; every field must be
    ``==`` to lowering the ``count_model`` report."""

    TABLES = (DEFAULT_COST_TABLE,
              CostTable(fa=12.0, scaling_exponent=1.7, newton_iterations=4))

    @staticmethod
    def training_shape(rng):
        dataset_len = rng.randint(1, 5000)
        return dict(dataset_len=dataset_len, batch_size=rng.randint(1, dataset_len),
                    epochs=rng.randint(1, 300))

    def test_random_fc_stacks_at_every_level_and_format(self):
        rng = random.Random(31)
        for _ in range(200):
            dims = [rng.randint(1, 64) for _ in range(rng.randint(2, 8))]
            layers = tuple(FullyConnected(i, o, rng.choice(list(Activation)))
                           for i, o in zip(dims, dims[1:]))
            table = rng.choice(self.TABLES)
            for fmt in (FP16, FP32, FP64):
                model = ModelSpec("fc", fmt, layers, Loss.MSE, **self.training_shape(rng))
                for level in AnalysisLevel:
                    assert analyze(model, level, table) == lowered_report(model, level, table)

    def test_random_conv_fc_models_at_forward_levels(self):
        rng = random.Random(37)
        for _ in range(60):
            layers = [Convolutional(rng.randint(1, 12), rng.randint(1, 5), rng.randint(1, 8),
                                    rng.randint(1, 8), rng.choice(list(Activation)))
                      for _ in range(rng.randint(1, 3))]
            rng.randint(1, 50)  # unused: it keeps the seeded draws of the later shapes
            layers.append(FullyConnected(layers[-1].output_units, rng.randint(1, 10),
                                         rng.choice(list(Activation))))
            table = rng.choice(self.TABLES)
            for fmt in (FP16, FP32, FP64):
                model = ModelSpec("conv", fmt, tuple(layers), Loss.MSE,
                                  **self.training_shape(rng))
                for level in (AnalysisLevel.INFERENCE, AnalysisLevel.VALIDATION):
                    assert analyze(model, level, table) == lowered_report(model, level, table)


# name -> the sha256 (first 16 hex digits) of the repr of that function's
# results over `exact_corpus.corpus()`.
EXACT = {"parse_model": "f00d8a4b4d2da73c", "count_model": "0a2984db7173bd63",
         "analyze": "8f46d37918fcca2e"}


class TestExactValues:
    """The parsed models, their census and their lowering, pinned bit for
    bit: a reordered float sum moves a last digit, and so the digest."""

    @pytest.mark.parametrize("name", sorted(EXACT))
    def test_seeded_corpus(self, name):
        assert digests()[name] == EXACT[name]
