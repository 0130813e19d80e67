import csv
import io

from transistor_ops import (
    FP32,
    Activation,
    AnalysisLevel,
    Convolutional,
    FullyConnected,
    ModelSpec,
    flops_model,
)
from transistor_ops.cli import main

from conftest import fc_model, model_doc, write_model_doc


def one_layer(layer):
    return ModelSpec("one", FP32, (layer,))


class TestForward:
    def test_fc_counts_macs_only(self):
        model = one_layer(FullyConnected(4, 5, Activation.SIGMOID))
        assert flops_model(model, AnalysisLevel.INFERENCE) == 20

    def test_conv_counts(self):
        model = one_layer(Convolutional(2, 3, 1, 2, Activation.GELU))
        assert flops_model(model, AnalysisLevel.VALIDATION) == 72

    def test_minimal_layer(self):
        model = one_layer(FullyConnected(1, 1, Activation.NONE))
        assert flops_model(model, AnalysisLevel.INFERENCE) == 1

    def test_flops_is_twice_macs(self, capsys, tmp_path):
        # The sweep table prints FLOPs as 2 x MACs at instance and run scale.
        for scale in ("instance", "run"):
            for _, _, _, macs, flops in sweep_rows(capsys, tmp_path, scale):
                assert flops == 2 * macs


class TestModel:
    def test_width4_inference_macs(self, width4_dnn):
        assert flops_model(width4_dnn, AnalysisLevel.INFERENCE) == 52

    def test_training_triples_forward_macs(self, width4_dnn):
        inf = flops_model(width4_dnn, AnalysisLevel.INFERENCE)
        assert flops_model(width4_dnn, AnalysisLevel.TRAINING) == 3 * inf

    def test_validation_equals_inference(self, width4_dnn):
        assert (flops_model(width4_dnn, AnalysisLevel.VALIDATION)
                == flops_model(width4_dnn, AnalysisLevel.INFERENCE))

    def test_run_scaling(self, capsys, tmp_path):
        # Counts scale as exact integers; a step divides once, at the end.
        instances, steps = 1372 * 2000, 22 * 2000
        run = sweep_rows(capsys, tmp_path, "run")
        step = sweep_rows(capsys, tmp_path, "step")
        for (width, _, _, run_macs, run_flops), (_, _, _, step_macs, step_flops) \
                in zip(run, step):
            m = 3 * (2 * width * width + 5 * width)  # [4, w, w, w, 1] at training
            assert run_macs == float(m * instances)
            assert run_flops == float(2 * m * instances)
            assert step_macs == m * instances / steps
            assert step_flops == 2 * m * instances / steps

    def test_blind_to_activation_choice(self):
        """The defining deficiency: every activation variant of a skeleton
        yields identical counts."""
        skeleton = [4, 9, 9, 9, 1]
        counts = {
            flops_model(fc_model(skeleton, act, out_activation=act), AnalysisLevel.TRAINING)
            for act in Activation
        }
        assert len(counts) == 1


def sweep_rows(capsys, tmp_path, scale):
    """``sweep --raw`` rows at training level over widths 1..12 of
    [4, w, w, w, 1], as (width, activation, tos, macs, flops)."""
    base = write_model_doc(tmp_path / "base.json", model_doc([4, 4, 4, 4, 1]))
    code = main(["sweep", base, "--widths", "1..12", "--activations", "sigmoid,gelu",
                 "--level", "training", "--scale", scale, "--raw"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 24
    return [(int(w), a, float(t), float(m), float(f)) for w, a, t, m, f, _ in rows]
