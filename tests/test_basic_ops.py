import random

import pytest

from transistor_ops import (
    Activation,
    AnalysisLevel,
    BasicOpCounts,
    Convolutional,
    FP32,
    FullyConnected,
    Loss,
    ModelSpec,
    UnsupportedError,
    ValidationError,
    count_model,
    model_family,
)

from conftest import fc_model

INFERENCE, VALIDATION, TRAINING = (AnalysisLevel.INFERENCE, AnalysisLevel.VALIDATION,
                                   AnalysisLevel.TRAINING)


def report_of(*layers, level=INFERENCE):
    """The ``count_model`` report of a model made of ``layers``."""
    return count_model(ModelSpec("m", FP32, layers), level)


def forward_of(layer):
    return report_of(layer).layers[0].forward.as_tuple()


class TestBasicOpCounts:
    def test_field_order_is_add_sub_mul_div_root(self):
        c = BasicOpCounts(1, 2, 3, 4, 5)
        assert c.as_tuple() == (1, 2, 3, 4, 5)

    def test_addition_is_componentwise_and_commutative(self):
        a = BasicOpCounts(1, 2, 3, 4, 5)
        b = BasicOpCounts(10, 0, 1, 0, 2)
        assert (a + b).as_tuple() == (11, 2, 4, 4, 7)
        assert a + b == b + a

    def test_rejects_negative_or_non_integer(self):
        with pytest.raises(ValueError):
            BasicOpCounts(n_add=-1)
        with pytest.raises(ValueError):
            BasicOpCounts(n_mul=1.5)


class TestActivationCounts:
    # The activation ops of ``units`` units: a 1 -> units layer's forward
    # census less that of the same layer without an activation.
    @pytest.mark.parametrize("act,units,expected", [
        (Activation.SIGMOID, 5, (5, 5, 0, 5, 5)),
        (Activation.GELU, 1, (1, 1, 2, 1, 1)),
        (Activation.NONE, 100, (0, 0, 0, 0, 0)),
        (Activation.TANH, 2, (2, 4, 4, 2, 2)),
    ])
    def test_per_unit_census(self, act, units, expected):
        got = forward_of(FullyConnected(1, units, act))
        bare = forward_of(FullyConnected(1, units, Activation.NONE))
        assert tuple(g - b for g, b in zip(got, bare)) == expected


class TestForward:
    def test_sigmoid_fc_closed_form(self):
        assert forward_of(FullyConnected(4, 5, Activation.SIGMOID)) == (25, 5, 20, 5, 5)

    def test_gelu_conv_closed_form(self):
        assert forward_of(Convolutional(2, 3, 1, 2, Activation.GELU)) == (80, 8, 88, 8, 8)

    def test_bare_linear_layer(self):
        assert forward_of(FullyConnected(1, 1, Activation.NONE)) == (1, 0, 1, 0, 0)

    def test_fc_sigmoid_grid_matches_closed_form(self):
        for i in range(1, 17):
            for o in range(1, 17):
                got = forward_of(FullyConnected(i, o, Activation.SIGMOID))
                assert got == ((i + 1) * o, o, i * o, o, o)

    def test_conv_gelu_grid_matches_closed_forms(self):
        for m in range(1, 4):
            for k in range(1, 4):
                for c_in in range(1, 3):
                    for c_out in range(1, 3):
                        got = forward_of(Convolutional(m, k, c_in, c_out, Activation.GELU))
                        win = m * m * c_out
                        assert got == (
                            win * (1 + c_in * k * k),
                            win,
                            win * (2 + c_in * k * k),
                            win,
                            win,
                        )


class TestLoss:
    def test_single_output(self):
        report = report_of(FullyConnected(1, 1), level=VALIDATION)
        assert report.loss.as_tuple() == (0, 1, 1, 1, 0)

    def test_four_outputs(self):
        report = report_of(FullyConnected(3, 4), level=VALIDATION)
        assert report.loss.as_tuple() == (3, 4, 4, 1, 0)

    def test_conv_output_uses_window_units(self):
        # 2x2 window, 2 channels: 8 output units.
        report = report_of(Convolutional(2, 3, 1, 2), level=VALIDATION)
        assert report.loss.as_tuple() == (7, 8, 8, 1, 0)

    def test_unsupported_loss_kind(self):
        # MSE is the only loss: a model cannot name another one.
        with pytest.raises(ValidationError, match="^loss: unknown loss 'mae'"):
            ModelSpec("m", FP32, (FullyConnected(1, 1),), loss="mae")


class TestBackprop:
    def test_hidden_sigmoid_layer(self):
        report = report_of(FullyConnected(4, 4, Activation.SIGMOID),
                           FullyConnected(4, 5, Activation.SIGMOID), level=TRAINING)
        assert report.layers[1].backprop.as_tuple() == (41, 5, 50, 0, 0)

    def test_first_layer_skips_input_deltas(self):
        report = report_of(FullyConnected(4, 5, Activation.SIGMOID), level=TRAINING)
        assert report.layers[0].backprop.as_tuple() == (25, 5, 30, 0, 0)

    def test_identity_activation_still_scales_delta(self):
        report = report_of(FullyConnected(1, 1, Activation.NONE), level=TRAINING)
        assert report.layers[0].backprop.as_tuple() == (2, 0, 2, 0, 0)

    def test_tanh_costs_match_sigmoid(self):
        s, t = (report_of(FullyConnected(1, 3), FullyConnected(3, 7, act),
                          level=TRAINING).layers[1].backprop
                for act in (Activation.SIGMOID, Activation.TANH))
        assert s == t

    def test_gelu_derivative_census(self):
        report = report_of(FullyConnected(1, 1, Activation.GELU), level=TRAINING)
        # linear part (2 add, 1 mul) plus per-unit (2 sub, 5 mul, 1 div, 1 root)
        assert report.layers[0].backprop.as_tuple() == (2, 2, 6, 1, 1)

    def test_convolutional_unsupported(self):
        with pytest.raises(UnsupportedError, match="layer 1 is convolutional"):
            report_of(Convolutional(2, 3, 1, 2), level=TRAINING)


class TestUpdate:
    def test_per_batch_census(self):
        for layer, expected in ((FullyConnected(4, 5), (0, 25, 25, 0, 0)),
                                (FullyConnected(1, 1), (0, 2, 2, 0, 0))):
            report = report_of(layer, level=TRAINING)
            assert report.layers[0].update_per_batch.as_tuple() == expected
            assert report.update_per_batch.as_tuple() == expected

    def test_convolutional_unsupported(self):
        with pytest.raises(UnsupportedError, match="layer 2 is convolutional"):
            report_of(FullyConnected(4, 4), Convolutional(2, 3, 1, 2), level=TRAINING)


class TestCountModel:
    def test_width4_inference_totals(self, width4_dnn):
        report = count_model(width4_dnn, AnalysisLevel.INFERENCE)
        assert report.per_instance.as_tuple() == (65, 13, 52, 13, 13)

    def test_validation_adds_the_loss(self, width4_dnn):
        inf = count_model(width4_dnn, AnalysisLevel.INFERENCE)
        val = count_model(width4_dnn, AnalysisLevel.VALIDATION)
        assert val.per_instance == inf.per_instance + BasicOpCounts(0, 1, 1, 1, 0)

    def test_totals_are_sums_of_layer_profiles(self, width4_dnn):
        report = count_model(width4_dnn, AnalysisLevel.TRAINING)
        total = BasicOpCounts()
        for profile in report.layers:
            total = total + profile.forward + profile.backprop
        total = total + report.loss
        assert report.per_instance == total

    def test_per_run_scaling(self, width4_dnn):
        report = count_model(width4_dnn, AnalysisLevel.TRAINING)
        instances = 1372 * 2000
        steps = 22 * 2000
        assert width4_dnn.instances_per_run == instances
        assert width4_dnn.steps_per_run == steps
        assert report.per_run.as_tuple() == tuple(
            i * instances + u * steps for i, u in
            zip(report.per_instance.as_tuple(), report.update_per_batch.as_tuple()))

    def test_inference_run_scaling_has_no_updates(self, width4_dnn):
        report = count_model(width4_dnn, AnalysisLevel.INFERENCE)
        assert report.update_per_batch == BasicOpCounts()
        assert report.per_run.as_tuple() == tuple(
            n * 1372 * 2000 for n in report.per_instance.as_tuple())

    def test_training_rejects_convolutional_layers(self):
        m = ModelSpec("conv", FP32,
                      (Convolutional(2, 3, 1, 2, Activation.GELU),
                       FullyConnected(8, 1, Activation.SIGMOID)),
                      Loss.MSE, 8, 4, 1)
        with pytest.raises(UnsupportedError, match="layer 1"):
            count_model(m, AnalysisLevel.TRAINING)
        # forward-only levels stay available for the same model
        count_model(m, AnalysisLevel.VALIDATION)

    def test_monotone_in_every_dimension(self):
        rng = random.Random(7)
        for _ in range(50):
            dims = [rng.randint(1, 6) for _ in range(4)]
            act = rng.choice(list(Activation))
            base = fc_model(dims, act, dataset_len=8, batch_size=4, epochs=2)
            grown_dims = list(dims)
            grown_dims[rng.randrange(len(dims))] += rng.randint(1, 3)
            grown = fc_model(grown_dims, act, dataset_len=8, batch_size=4, epochs=2)
            lo = count_model(base, AnalysisLevel.TRAINING).per_instance
            hi = count_model(grown, AnalysisLevel.TRAINING).per_instance
            assert all(h >= l for l, h in zip(lo.as_tuple(), hi.as_tuple()))

    def test_nonlinear_aggregate_excludes_macs(self, width4_dnn):
        # Each MAC is one add and one mul; what the inference census holds
        # past them is exactly the activation ops of the 13 sigmoid units.
        report = count_model(width4_dnn, AnalysisLevel.INFERENCE)
        macs = sum(layer.macs for layer in width4_dnn.layers)
        a, s, m, d, r = report.per_instance.as_tuple()
        assert (a - macs, s, m - macs, d, r) == (13, 13, 0, 13, 13)


@pytest.mark.parametrize("act", [Activation.NONE, Activation.SIGMOID,
                                 Activation.TANH, Activation.GELU])
def test_training_census_is_quadratic_in_width(act):
    """Along a sweep family at a fixed activation, every count of the
    per-instance training census is a quadratic in width: its third
    differences are zero, and with two or more hidden layers the
    multiplies' second differences are positive."""
    rng = random.Random(41)
    for _ in range(20):
        dims = [rng.randint(1, 9) for _ in range(rng.randint(3, 7))]
        base = fc_model(dims, rng.choice(list(Activation)),
                        out_activation=rng.choice(list(Activation)),
                        dataset_len=8, batch_size=4, epochs=2)
        family = model_family(base, range(1, 16), [act])
        counts = [count_model(m, AnalysisLevel.TRAINING).per_instance.as_tuple()
                  for m in family]
        for column in zip(*counts):
            assert all(d - 3 * c + 3 * b - a == 0
                       for a, b, c, d in zip(column, column[1:], column[2:], column[3:]))
        muls = [c[2] for c in counts]
        if len(dims) >= 4:
            assert all(c - 2 * b + a > 0 for a, b, c in zip(muls, muls[1:], muls[2:]))
