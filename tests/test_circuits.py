import random

import numpy as np
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
    OpKind,
    ParseError,
    PhaseTos,
    ScaledUnitRef,
    ToProfile,
    UnsupportedError,
    adder_tos,
    analyze,
    count_model,
    fp_op_tos,
    model_family,
    parse_cost_table,
    scaled_unit_tos,
    tos_from_bos,
)

from conftest import fc_model

ALL_OPS = (OpKind.ADD, OpKind.SUB, OpKind.MUL, OpKind.DIV, OpKind.ROOT)


class TestAdder:
    @pytest.mark.parametrize("bits,expected", [(24, 235.0), (8, 75.0), (1, 5.0)])
    def test_full_plus_half_adder_pricing(self, bits, expected):
        assert adder_tos(bits) == expected

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            adder_tos(0)


class TestScaledUnit:
    def test_multiplier_reference(self):
        assert scaled_unit_tos(64, DEFAULT_COST_TABLE.mult_ref, 2.0) == 90_000.0

    def test_divider_reference(self):
        assert scaled_unit_tos(64, DEFAULT_COST_TABLE.div_ref, 2.0) == 110_000.0

    def test_scaled_down_values(self):
        assert scaled_unit_tos(24, DEFAULT_COST_TABLE.mult_ref, 2.0) == 12_656.25
        assert scaled_unit_tos(24, DEFAULT_COST_TABLE.div_ref, 2.0) == 15_468.75

    def test_reference_exact_for_any_exponent(self):
        rng = random.Random(3)
        ref = ScaledUnitRef(64, 90_000.0)
        for _ in range(20):
            gamma = rng.uniform(0.2, 4.0)
            assert scaled_unit_tos(64, ref, gamma) == 90_000.0

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            scaled_unit_tos(0, DEFAULT_COST_TABLE.mult_ref, 2.0)


class TestFpOps:
    def test_fp32_fixtures(self):
        assert fp_op_tos(OpKind.ADD, FP32) == 235.0
        assert fp_op_tos(OpKind.MUL, FP32) == 12_737.25
        assert fp_op_tos(OpKind.DIV, FP32) == 15_549.75

    def test_fp64_sub_equals_add(self):
        assert fp_op_tos(OpKind.SUB, FP64) == fp_op_tos(OpKind.ADD, FP64) == 525.0

    @pytest.mark.parametrize("fmt", [FP16, FP32, FP64])
    def test_sub_equals_add_everywhere(self, fmt):
        assert fp_op_tos(OpKind.SUB, fmt) == fp_op_tos(OpKind.ADD, fmt)

    def test_root_is_newton_iterations_of_div_mul_add(self):
        per_iter = (fp_op_tos(OpKind.DIV, FP32) + fp_op_tos(OpKind.MUL, FP32)
                    + fp_op_tos(OpKind.ADD, FP32))
        assert fp_op_tos(OpKind.ROOT, FP32) == 3 * per_iter

    @pytest.mark.parametrize("op", ALL_OPS)
    def test_wider_formats_cost_more(self, op):
        assert fp_op_tos(op, FP16) < fp_op_tos(op, FP32) < fp_op_tos(op, FP64)


class TestLowering:
    def test_one_add_one_mul(self):
        assert tos_from_bos(BasicOpCounts(n_add=1, n_mul=1), FP32) == 12_972.25

    def test_zero_census_costs_nothing(self):
        assert tos_from_bos(BasicOpCounts(), FP16) == 0.0

    def test_single_div_equals_its_op_cost(self):
        assert tos_from_bos(BasicOpCounts(n_div=1), FP32) == fp_op_tos(OpKind.DIV, FP32)

    def test_linearity(self):
        rng = random.Random(11)
        for _ in range(30):
            a = BasicOpCounts(*(rng.randint(0, 40) for _ in range(5)))
            b = BasicOpCounts(*(rng.randint(0, 40) for _ in range(5)))
            lhs = tos_from_bos(a + b, FP32)
            rhs = tos_from_bos(a, FP32) + tos_from_bos(b, FP32)
            assert lhs == pytest.approx(rhs, rel=1e-15)


class TestCostTableParsing:
    def test_empty_document_gives_defaults(self):
        assert parse_cost_table("{}") == DEFAULT_COST_TABLE

    def test_overrides(self):
        table = parse_cost_table(
            '{"fa": 12, "scaling_exponent": 1.5, "newton_iterations": 2}'
        )
        assert table.fa_transistors == 12.0
        assert table.scaling_exponent == 1.5
        assert table.newton_iterations == 2
        assert table.mult_ref == DEFAULT_COST_TABLE.mult_ref

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
        want = tos_from_bos(BasicOpCounts(65, 13, 52, 13, 13), FP32)
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
            profile.update_per_batch * profile.steps_per_run, rel=1e-15)

    def test_per_step_is_per_run_over_steps(self, width4_dnn):
        profile = analyze(width4_dnn, AnalysisLevel.TRAINING)
        assert profile.per_step.total == pytest.approx(
            profile.per_run.total / profile.steps_per_run, rel=1e-15)

    def test_gelu_costs_more_than_sigmoid(self):
        sig = fc_model([4, 10, 10, 10, 1], Activation.SIGMOID)
        gel = fc_model([4, 10, 10, 10, 1], Activation.GELU)
        for level in AnalysisLevel:
            assert analyze(sig, level).per_run.total \
                < analyze(gel, level).per_run.total

    def test_fp64_dominates_fp32(self, width4_dnn):
        fp32_total = analyze(width4_dnn, AnalysisLevel.TRAINING).per_run.total
        fp64_total = analyze(width4_dnn.with_float_format(FP64),
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
        coeffs = np.polyfit(widths[:3], totals[:3], 2)
        held_out = float(np.polyval(coeffs, widths[3]))
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


def lowered_report(model, level, table):
    """Lower the ``count_model`` report with ``tos_from_bos``, in the order
    the lowering has always summed: each layer's census vector, then the
    layer sums, then the run and step scaling."""
    report = count_model(model, level)

    def lower(bos):
        return tos_from_bos(bos, model.float_format, table)

    layer_forward = tuple(lower(p.forward) for p in report.layers)
    layer_backprop = tuple(lower(p.backprop) for p in report.layers)
    update = lower(report.update_per_batch)
    per_instance = PhaseTos(sum(layer_forward), sum(layer_backprop), lower(report.loss), 0.0)
    instances, steps = report.instances_per_run, report.steps_per_run
    per_run = PhaseTos(per_instance.forward * instances, per_instance.backprop * instances,
                       per_instance.loss * instances, update * steps)
    step = 1.0 / steps
    per_step = PhaseTos(per_run.forward * step, per_run.backprop * step,
                        per_run.loss * step, per_run.update * step)
    total = per_run.total
    share = lower(report.nonlinear_per_run) / total if total > 0 else 0.0
    return ToProfile(layer_forward, layer_backprop, update, per_instance, per_run,
                     per_step, share, instances, steps)


class TestCensusLowering:
    """``analyze`` lowers the integer census directly; every field must be
    ``==`` to lowering the ``count_model`` report."""

    TABLES = (DEFAULT_COST_TABLE,
              CostTable(fa_transistors=12.0, scaling_exponent=1.7, newton_iterations=4))

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
            layers.append(FullyConnected(rng.randint(1, 50), rng.randint(1, 10),
                                         rng.choice(list(Activation))))
            table = rng.choice(self.TABLES)
            for fmt in (FP16, FP32, FP64):
                model = ModelSpec("conv", fmt, tuple(layers), Loss.MSE,
                                  **self.training_shape(rng))
                for level in (AnalysisLevel.INFERENCE, AnalysisLevel.VALIDATION):
                    assert analyze(model, level, table) == lowered_report(model, level, table)
