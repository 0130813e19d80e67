"""The instrumented scalar executor both defines the op-census ground
truth and must compute real numbers; both halves are checked here."""

import math
import random

import pytest
import numpy as np

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
    run_forward,
    run_training_step,
)
from transistor_ops.oracle import default_inputs, default_weights

from conftest import fc_model


def _numpy_forward(model, inputs, weights):
    x = np.asarray(inputs, dtype=float)
    for layer, (w, b) in zip(model.layers, weights):
        z = np.asarray(w, dtype=float).T @ x + np.asarray(b, dtype=float)
        if layer.activation is Activation.SIGMOID:
            x = 1.0 / (1.0 + np.exp(-z))
        elif layer.activation is Activation.GELU:
            x = z / (1.0 + np.exp(-1.702 * z))
        elif layer.activation is Activation.TANH:
            x = np.tanh(z)
        else:
            x = z
    return x


class TestForwardTallies:
    def test_single_sigmoid_layer(self):
        m = fc_model([4, 5], Activation.SIGMOID, dataset_len=1, batch_size=1, epochs=1)
        _, counts = run_forward(m, default_inputs(m))
        assert counts.as_tuple() == (25, 5, 20, 5, 5)

    def test_bare_linear_layer(self):
        m = fc_model([1, 1], Activation.NONE, out_activation=Activation.NONE,
                     dataset_len=1, batch_size=1, epochs=1)
        _, counts = run_forward(m, [0.4])
        assert counts.as_tuple() == (1, 0, 1, 0, 0)

    def test_width4_stack(self, width4_dnn):
        _, counts = run_forward(width4_dnn, default_inputs(width4_dnn))
        assert counts.as_tuple() == (65, 13, 52, 13, 13)


class TestNumericExecution:
    @pytest.mark.parametrize("act", list(Activation))
    def test_outputs_match_a_vectorized_forward(self, act):
        m = fc_model([3, 4, 2], act, out_activation=act,
                     dataset_len=1, batch_size=1, epochs=1)
        weights = default_weights(m, seed=5)
        inputs = default_inputs(m, seed=5)
        got, _ = run_forward(m, inputs, weights)
        want = _numpy_forward(m, inputs, weights)
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_loss_value_is_the_mean_squared_error(self):
        m = fc_model([2, 3], Activation.SIGMOID, dataset_len=1, batch_size=1, epochs=1)
        weights = default_weights(m)
        inputs = default_inputs(m)
        targets = [0.2, 0.4, 0.6]
        tally = run_training_step(m, inputs, targets, weights=weights)
        outputs = _numpy_forward(m, inputs, weights)
        want = float(np.mean((outputs - np.asarray(targets)) ** 2))
        assert tally.loss_value == pytest.approx(want, rel=1e-12)

    @pytest.mark.parametrize("act", list(Activation))
    def test_weight_gradient_matches_finite_differences(self, act):
        """The recovered gradient is half of dL/dw: the mean's 1/O and the
        square's factor 2 are folded into the learning rate by design."""
        w0, b0, x0, t0, lr = 0.5, 0.2, 0.3, 0.4, 0.1
        m = fc_model([1, 1], act, out_activation=act,
                     dataset_len=1, batch_size=1, epochs=1)

        def loss_at(w):
            z = w * x0 + b0
            if act is Activation.SIGMOID:
                y = 1 / (1 + math.exp(-z))
            elif act is Activation.GELU:
                y = z / (1 + math.exp(-1.702 * z))
            elif act is Activation.TANH:
                y = math.tanh(z)
            else:
                y = z
            return (y - t0) ** 2

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
            forward = BasicOpCounts()
            for profile in report.layers:
                forward = forward + profile.forward
            assert tally.forward == forward
            assert tally.loss == report.loss
            for got, profile in zip(tally.backprop_layers, report.layers):
                assert got == profile.backprop
            for got, profile in zip(tally.update_layers, report.layers):
                assert got == profile.update_per_batch


class TestErrors:
    def test_wrong_input_arity(self, width4_dnn):
        with pytest.raises(ValueError, match="expected 4 inputs"):
            run_forward(width4_dnn, [0.1, 0.2])

    def test_wrong_target_arity(self, width4_dnn):
        with pytest.raises(ValueError, match="targets"):
            run_training_step(width4_dnn, default_inputs(width4_dnn), [0.5, 0.5])

    def test_convolutional_unsupported(self):
        from transistor_ops import Convolutional
        m = ModelSpec("c", FP32, (Convolutional(2, 3, 1, 2),), Loss.MSE, 1, 1, 1)
        with pytest.raises(UnsupportedError):
            run_forward(m, [0.5])
