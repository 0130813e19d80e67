"""The instrumented scalar executor both defines the op-census ground
truth and must compute real numbers; both halves are checked here."""

import math
import random

import pytest

from transistor_ops import (
    Activation,
    AnalysisLevel,
    BasicOpCounts,
    FP32,
    FullyConnected,
    Loss,
    ModelSpec,
    UnsupportedError,
    count_model,
    run_training_step,
)
from transistor_ops.oracle import default_inputs, default_weights

from conftest import fc_model

ACTIVATIONS = {
    Activation.NONE: lambda z: z,
    Activation.SIGMOID: lambda z: 1.0 / (1.0 + math.exp(-z)),
    Activation.GELU: lambda z: z / (1.0 + math.exp(-1.702 * z)),
    Activation.TANH: math.tanh,
}


def _math_forward(model, inputs, weights):
    x = inputs
    for layer, (w, b) in zip(model.layers, weights):
        act = ACTIVATIONS[layer.activation]
        x = [act(math.fsum(w[i][j] * x[i] for i in range(layer.inputs)) + b[j])
             for j in range(layer.outputs)]
    return x


def _mse(outputs, targets):
    return math.fsum((y - t) ** 2 for y, t in zip(outputs, targets)) / len(targets)


def _forward_tally(model, inputs):
    targets = [0.5] * model.layers[-1].outputs
    return run_training_step(model, inputs, targets).forward


class TestForwardTallies:
    def test_single_sigmoid_layer(self):
        m = fc_model([4, 5], Activation.SIGMOID, dataset_len=1, batch_size=1, epochs=1)
        assert _forward_tally(m, default_inputs(m)).as_tuple() == (25, 5, 20, 5, 5)

    def test_bare_linear_layer(self):
        m = fc_model([1, 1], Activation.NONE, out_activation=Activation.NONE,
                     dataset_len=1, batch_size=1, epochs=1)
        assert _forward_tally(m, [0.4]).as_tuple() == (1, 0, 1, 0, 0)

    def test_width4_stack(self, width4_dnn):
        counts = _forward_tally(width4_dnn, default_inputs(width4_dnn))
        assert counts.as_tuple() == (65, 13, 52, 13, 13)


class TestNumericExecution:
    @pytest.mark.parametrize("act", list(Activation))
    def test_loss_matches_a_math_forward_pass(self, act):
        m = fc_model([3, 4, 2], act, out_activation=act,
                     dataset_len=1, batch_size=1, epochs=1)
        weights = default_weights(m, seed=5)
        inputs = default_inputs(m, seed=5)
        targets = [0.25, 0.75]
        tally = run_training_step(m, inputs, targets, weights=weights)
        want = _mse(_math_forward(m, inputs, weights), targets)
        assert tally.loss_value == pytest.approx(want, rel=1e-12)

    def test_loss_value_is_the_mean_squared_error(self):
        m = fc_model([2, 3], Activation.SIGMOID, dataset_len=1, batch_size=1, epochs=1)
        weights = default_weights(m)
        inputs = default_inputs(m)
        targets = [0.2, 0.4, 0.6]
        tally = run_training_step(m, inputs, targets, weights=weights)
        want = _mse(_math_forward(m, inputs, weights), targets)
        assert tally.loss_value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("act", list(Activation))
    def test_weight_gradient_matches_finite_differences(self, act):
        """The recovered gradient is half of dL/dw: the mean's 1/O and the
        square's factor 2 are folded into the learning rate by design."""
        w0, b0, x0, t0, lr = 0.5, 0.2, 0.3, 0.4, 0.1
        m = fc_model([1, 1], act, out_activation=act,
                     dataset_len=1, batch_size=1, epochs=1)

        def loss_at(w):
            return (ACTIVATIONS[act](w * x0 + b0) - t0) ** 2

        tally = run_training_step(m, [x0], [t0], weights=[([[w0]], [b0])],
                                  learning_rate=lr)
        (new_w, _), = tally.updated_weights
        grad = (w0 - new_w[0][0]) / lr
        h = 1e-7
        fd = (loss_at(w0 + h) - loss_at(w0 - h)) / (2 * h)
        assert grad == pytest.approx(0.5 * fd, rel=1e-5)


class TestTrainingSegments:
    def test_hidden_layer_backprop_tally(self):
        # 4 -> 5 -> 1: the 4->5 layer is neither first nor output-free.
        m = fc_model([4, 4, 5, 1], Activation.SIGMOID,
                     dataset_len=1, batch_size=1, epochs=1)
        tally = run_training_step(m, default_inputs(m), [0.5])
        assert tally.backprop_layers[1].as_tuple() == (41, 5, 50, 0, 0)

    def test_first_layer_backprop_tally(self):
        m = fc_model([4, 5, 1], Activation.SIGMOID,
                     dataset_len=1, batch_size=1, epochs=1)
        tally = run_training_step(m, default_inputs(m), [0.5])
        assert tally.backprop_layers[0].as_tuple() == (25, 5, 30, 0, 0)

    def test_single_identity_layer_backprop(self):
        m = fc_model([1, 1], Activation.NONE, out_activation=Activation.NONE,
                     dataset_len=1, batch_size=1, epochs=1)
        tally = run_training_step(m, [0.3], [0.1])
        assert tally.backprop_layers[0].as_tuple() == (2, 0, 2, 0, 0)

    def test_update_segment(self):
        m = fc_model([4, 5], Activation.SIGMOID, dataset_len=1, batch_size=1, epochs=1)
        tally = run_training_step(m, default_inputs(m), [0.5] * 5)
        assert tally.update_layers[0].as_tuple() == (0, 25, 25, 0, 0)

    def test_loss_segment(self):
        m = fc_model([4, 5, 1], Activation.SIGMOID,
                     dataset_len=1, batch_size=1, epochs=1)
        tally = run_training_step(m, default_inputs(m), [0.5])
        assert tally.loss.as_tuple() == (0, 1, 1, 1, 0)


class TestValueIndependence:
    def test_tallies_identical_across_random_draws(self):
        m = fc_model([3, 6, 6, 2], Activation.GELU,
                     dataset_len=1, batch_size=1, epochs=1)
        tallies = set()
        for seed in range(10):
            weights = default_weights(m, seed=seed)
            inputs = default_inputs(m, seed=seed)
            targets = [0.3, 0.7]
            tally = run_training_step(m, inputs, targets, weights=weights)
            tallies.add((tally.forward.as_tuple(), tally.loss.as_tuple(),
                         tuple(c.as_tuple() for c in tally.backprop_layers),
                         tuple(c.as_tuple() for c in tally.update_layers)))
        assert len(tallies) == 1


class TestAgreementWithCensus:
    def test_random_corpus_matches_exactly(self):
        rng = random.Random(99)
        acts = [Activation.SIGMOID, Activation.TANH, Activation.GELU,
                Activation.NONE]
        for trial in range(25):
            depth = rng.randint(1, 4)
            dims = [rng.randint(1, 8) for _ in range(depth + 1)]
            layers = tuple(
                FullyConnected(dims[i], dims[i + 1], rng.choice(acts))
                for i in range(depth)
            )
            m = ModelSpec(f"r{trial}", FP32, layers, Loss.MSE, 8, 4, 1)
            weights = default_weights(m, seed=trial)
            inputs = default_inputs(m, seed=trial)
            targets = [rng.uniform(0.1, 0.9) for _ in range(dims[-1])]
            tally = run_training_step(m, inputs, targets, weights=weights)
            report = count_model(m, AnalysisLevel.TRAINING)
            assert tally.forward == sum((p.forward for p in report.layers), BasicOpCounts())
            assert tally.loss == report.loss
            for got, profile in zip(tally.backprop_layers, report.layers):
                assert got == profile.backprop
            for got, profile in zip(tally.update_layers, report.layers):
                assert got == profile.update_per_batch


class TestErrors:
    def test_wrong_input_arity(self, width4_dnn):
        with pytest.raises(ValueError, match="expected 4 inputs"):
            run_training_step(width4_dnn, [0.1, 0.2], [0.5])

    def test_wrong_target_arity(self, width4_dnn):
        with pytest.raises(ValueError, match="targets"):
            run_training_step(width4_dnn, default_inputs(width4_dnn), [0.5, 0.5])

    def test_convolutional_unsupported(self):
        from transistor_ops import Convolutional
        m = ModelSpec("c", FP32, (Convolutional(2, 3, 1, 2),), Loss.MSE, 1, 1, 1)
        with pytest.raises(UnsupportedError):
            run_training_step(m, [0.5], [0.5] * 8)
