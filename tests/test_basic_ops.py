import random

import pytest

from transistor_ops import (
    Activation,
    AnalysisLevel,
    BasicOpCounts,
    Convolutional,
    FullyConnected,
    Loss,
    UnsupportedError,
    count_activation,
    count_backprop,
    count_forward,
    count_loss,
    count_model,
    count_update,
    model_family,
)

from conftest import fc_model


class TestBasicOpCounts:
    def test_field_order_is_add_sub_mul_div_root(self):
        c = BasicOpCounts(1, 2, 3, 4, 5)
        assert c.as_tuple() == (1, 2, 3, 4, 5)

    def test_addition_is_componentwise_and_commutative(self):
        a = BasicOpCounts(1, 2, 3, 4, 5)
        b = BasicOpCounts(10, 0, 1, 0, 2)
        assert (a + b).as_tuple() == (11, 2, 4, 4, 7)
        assert a + b == b + a

    def test_integer_scaling(self):
        assert (BasicOpCounts(1, 1, 2, 1, 1) * 3).as_tuple() == (3, 3, 6, 3, 3)
        assert 0 * BasicOpCounts(5, 5, 5, 5, 5) == BasicOpCounts()

    def test_rejects_negative_or_non_integer(self):
        with pytest.raises(ValueError):
            BasicOpCounts(n_add=-1)
        with pytest.raises(ValueError):
            BasicOpCounts(n_mul=1.5)
        with pytest.raises(ValueError):
            BasicOpCounts(1, 1, 1, 1, 1) * -2


class TestActivationCounts:
    @pytest.mark.parametrize("act,units,expected", [
        (Activation.SIGMOID, 5, (5, 5, 0, 5, 5)),
        (Activation.GELU, 1, (1, 1, 2, 1, 1)),
        (Activation.NONE, 100, (0, 0, 0, 0, 0)),
        (Activation.TANH, 2, (2, 4, 4, 2, 2)),
    ])
    def test_per_unit_census(self, act, units, expected):
        assert count_activation(act, units).as_tuple() == expected

    def test_zero_units(self):
        assert count_activation(Activation.GELU, 0) == BasicOpCounts()

    def test_negative_units_rejected(self):
        with pytest.raises(ValueError):
            count_activation(Activation.SIGMOID, -1)


class TestForward:
    def test_sigmoid_fc_closed_form(self):
        assert count_forward(FullyConnected(4, 5, Activation.SIGMOID)).as_tuple() \
            == (25, 5, 20, 5, 5)

    def test_gelu_conv_closed_form(self):
        assert count_forward(Convolutional(2, 3, 1, 2, Activation.GELU)).as_tuple() \
            == (80, 8, 88, 8, 8)

    def test_bare_linear_layer(self):
        assert count_forward(FullyConnected(1, 1, Activation.NONE)).as_tuple() \
            == (1, 0, 1, 0, 0)

    def test_fc_sigmoid_grid_matches_closed_form(self):
        for i in range(1, 17):
            for o in range(1, 17):
                got = count_forward(FullyConnected(i, o, Activation.SIGMOID))
                assert got.as_tuple() == ((i + 1) * o, o, i * o, o, o)

    def test_conv_gelu_grid_matches_closed_forms(self):
        for m in range(1, 4):
            for k in range(1, 4):
                for c_in in range(1, 3):
                    for c_out in range(1, 3):
                        got = count_forward(Convolutional(m, k, c_in, c_out,
                                                          Activation.GELU))
                        win = m * m * c_out
                        assert got.as_tuple() == (
                            win * (1 + c_in * k * k),
                            win,
                            win * (2 + c_in * k * k),
                            win,
                            win,
                        )


class TestLoss:
    def test_single_output(self):
        assert count_loss(FullyConnected(1, 1), Loss.MSE).as_tuple() == (0, 1, 1, 1, 0)

    def test_four_outputs(self):
        assert count_loss(FullyConnected(3, 4), Loss.MSE).as_tuple() == (3, 4, 4, 1, 0)

    def test_conv_output_uses_window_units(self):
        # 2x2 window, 2 channels: 8 output units.
        got = count_loss(Convolutional(2, 3, 1, 2), Loss.MSE)
        assert got.as_tuple() == (7, 8, 8, 1, 0)

    def test_unsupported_loss_kind(self):
        with pytest.raises(UnsupportedError):
            count_loss(FullyConnected(1, 1), "mae")


class TestBackprop:
    def test_hidden_sigmoid_layer(self):
        got = count_backprop(FullyConnected(4, 5, Activation.SIGMOID), False)
        assert got.as_tuple() == (41, 5, 50, 0, 0)

    def test_first_layer_skips_input_deltas(self):
        got = count_backprop(FullyConnected(4, 5, Activation.SIGMOID), True)
        assert got.as_tuple() == (25, 5, 30, 0, 0)

    def test_identity_activation_still_scales_delta(self):
        got = count_backprop(FullyConnected(1, 1, Activation.NONE), True)
        assert got.as_tuple() == (2, 0, 2, 0, 0)

    def test_tanh_costs_match_sigmoid(self):
        s = count_backprop(FullyConnected(3, 7, Activation.SIGMOID), False)
        t = count_backprop(FullyConnected(3, 7, Activation.TANH), False)
        assert s == t

    def test_gelu_derivative_census(self):
        got = count_backprop(FullyConnected(1, 1, Activation.GELU), True)
        # linear part (2 add, 1 mul) plus per-unit (2 sub, 5 mul, 1 div, 1 root)
        assert got.as_tuple() == (2, 2, 6, 1, 1)

    def test_convolutional_unsupported(self):
        with pytest.raises(UnsupportedError):
            count_backprop(Convolutional(2, 3, 1, 2), False)


class TestUpdate:
    def test_per_batch_census(self):
        assert count_update(FullyConnected(4, 5)).as_tuple() == (0, 25, 25, 0, 0)
        assert count_update(FullyConnected(1, 1)).as_tuple() == (0, 2, 2, 0, 0)

    def test_convolutional_unsupported(self):
        with pytest.raises(UnsupportedError):
            count_update(Convolutional(2, 3, 1, 2))


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
        expected = report.per_instance * instances + report.update_per_batch * steps
        assert report.per_run == expected

    def test_inference_run_scaling_has_no_updates(self, width4_dnn):
        report = count_model(width4_dnn, AnalysisLevel.INFERENCE)
        assert report.update_per_batch == BasicOpCounts()
        assert report.per_run == report.per_instance * (1372 * 2000)

    def test_training_rejects_convolutional_layers(self):
        from transistor_ops import FP32, ModelSpec
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
        report = count_model(width4_dnn, AnalysisLevel.INFERENCE)
        # The non-linear inference census is exactly the activation ops.
        instances = width4_dnn.instances_per_run
        assert report.nonlinear_per_run.as_tuple() == tuple(
            n * instances for n in (13, 13, 0, 13, 13))


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
