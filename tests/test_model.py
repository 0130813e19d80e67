import json

import pytest

from transistor_ops import (
    Activation,
    AnalysisLevel,
    Convolutional,
    FP16,
    FP32,
    FP64,
    FloatFormat,
    FullyConnected,
    Loss,
    ModelSpec,
    ParseError,
    ValidationError,
    model_family,
    parse_model,
)

from conftest import fc_model, model_doc


class TestFloatFormat:
    def test_presets(self):
        assert (FP16.exponent_bits, FP16.fraction_bits) == (5, 10)
        assert (FP32.exponent_bits, FP32.fraction_bits) == (8, 23)
        assert (FP64.exponent_bits, FP64.fraction_bits) == (11, 52)

    def test_significand_includes_hidden_bit(self):
        assert FP32.significand_bits == 24
        assert FP64.significand_bits == 53

    @pytest.mark.parametrize("exp,frac", [(0, 10), (5, 0), (-1, 4)])
    def test_rejects_degenerate_layouts(self, exp, frac):
        with pytest.raises(ValidationError):
            FloatFormat(exponent_bits=exp, fraction_bits=frac)


class TestLayerSpec:
    def test_fc_rejects_zero_dims(self):
        with pytest.raises(ValidationError):
            FullyConnected(0, 3)

    def test_conv_rejects_zero_dims(self):
        with pytest.raises(ValidationError):
            Convolutional(2, 3, 0, 2)

    def test_output_units(self):
        assert FullyConnected(4, 7).output_units == 7
        assert Convolutional(3, 2, 1, 5).output_units == 45


class TestModelSpec:
    def test_dimension_chain_checked(self):
        with pytest.raises(ValidationError, match="layer 1.*layer 2"):
            ModelSpec("m", FP32, (FullyConnected(4, 13), FullyConnected(12, 13)))

    def test_dense_after_conv_takes_its_output_units(self):
        ModelSpec("m", FP32, (Convolutional(2, 3, 1, 2), FullyConnected(8, 1)))
        with pytest.raises(ValidationError,
                           match="layer 1 produces 8 outputs but layer 2 expects 9 inputs"):
            ModelSpec("m", FP32, (Convolutional(2, 3, 1, 2), FullyConnected(9, 1)))

    def test_batch_size_bounded_by_dataset(self):
        with pytest.raises(ValidationError, match="batch_size"):
            fc_model([1, 1], Activation.NONE, dataset_len=10, batch_size=11)

    def test_needs_layers(self):
        with pytest.raises(ValidationError):
            ModelSpec("m", FP32, ())

    def test_steps_per_epoch_rounds_up(self):
        m = fc_model([1, 1], Activation.NONE, dataset_len=1372, batch_size=64)
        assert m.steps_per_epoch == 22

    @pytest.mark.parametrize("dataset_len,batch_size,steps", [
        (2 ** 60 + 1, 1, 2 ** 60 + 1),
        (2 ** 60 + 1, 2, 2 ** 59 + 1),
        (10 ** 400, 10 ** 399, 10),
        (10 ** 400 + 1, 10 ** 200, 10 ** 200 + 1),
    ], ids=["2**60+1 by 1", "2**60+1 by 2", "10**400 by 10**399", "10**400+1 by 10**200"])
    def test_steps_per_epoch_is_exact_past_the_float_range(self, dataset_len,
                                                           batch_size, steps):
        m = fc_model([1, 1], Activation.NONE, dataset_len=dataset_len,
                     batch_size=batch_size)
        assert m.steps_per_epoch == steps


class TestLevels:
    def test_inclusion_order(self):
        assert not AnalysisLevel.INFERENCE.includes_loss
        assert AnalysisLevel.VALIDATION.includes_loss
        assert not AnalysisLevel.VALIDATION.includes_backprop
        assert AnalysisLevel.TRAINING.includes_loss
        assert AnalysisLevel.TRAINING.includes_backprop


class TestParse:
    def test_reference_document(self):
        doc = model_doc([4, 13, 13, 13, 1], name="ref")
        spec = parse_model(json.dumps(doc))
        assert spec.name == "ref"
        assert spec.float_format == FP32
        assert spec.loss is Loss.MSE
        assert (spec.dataset_len, spec.batch_size, spec.epochs) == (1372, 64, 2000)
        dims = [(l.inputs, l.outputs) for l in spec.layers]
        assert dims == [(4, 13), (13, 13), (13, 13), (13, 1)]
        assert all(l.activation is Activation.SIGMOID for l in spec.layers)

    def test_minimal_document(self):
        doc = model_doc([1, 1], out_activation="none", dataset_len=1,
                        batch_size=1, epochs=1)
        spec = parse_model(json.dumps(doc))
        assert spec.layers == (FullyConnected(1, 1, Activation.NONE),)

    def test_dimension_mismatch_names_both_layers(self):
        doc = model_doc([4, 13, 13], name="bad")
        doc["layers"][1]["inputs"] = 12
        with pytest.raises(ValidationError, match="layer 1.*layer 2"):
            parse_model(json.dumps(doc))

    def test_unknown_activation_is_a_parse_error(self):
        doc = model_doc([2, 1])
        doc["layers"][0]["activation"] = "relu"
        with pytest.raises(ParseError, match="relu"):
            parse_model(json.dumps(doc))

    def test_unknown_loss(self):
        doc = model_doc([2, 1])
        doc["loss"] = "mae"
        with pytest.raises(ParseError, match="mae"):
            parse_model(json.dumps(doc))

    def test_unknown_keys_rejected(self):
        doc = model_doc([2, 1])
        doc["layes"] = doc.pop("layers")
        with pytest.raises(ParseError, match="layes"):
            parse_model(json.dumps(doc))

    def test_unknown_layer_key_rejected(self):
        doc = model_doc([2, 1])
        doc["layers"][0]["units"] = 3
        with pytest.raises(ParseError, match=r"layers\[0\].*units"):
            parse_model(json.dumps(doc))

    def test_missing_keys_named_in_order(self):
        doc = model_doc([2, 1])
        del doc["layers"][0]["outputs"], doc["layers"][0]["inputs"]
        with pytest.raises(ParseError, match=r"^layers\[0\]: missing key\(s\) inputs, outputs$"):
            parse_model(json.dumps(doc))

    def test_unknown_training_key_rejected(self):
        doc = model_doc([2, 1])
        doc["training"]["lr"] = 0.1
        with pytest.raises(ParseError, match="lr"):
            parse_model(json.dumps(doc))

    def test_malformed_json_reports_position(self):
        with pytest.raises(ParseError, match=r"line \d+"):
            parse_model('{"name": "x",\n  broken')

    def test_non_integer_dimension(self):
        doc = model_doc([2, 1])
        doc["layers"][0]["inputs"] = 2.5
        with pytest.raises(ParseError, match=r"layers\[0\]\.inputs"):
            parse_model(json.dumps(doc))

    def test_integer_past_the_digit_limit_is_named_at_its_key(self):
        # The 401-digit fan-in still reads exactly; only the over-long
        # literal becomes inf, which the epochs rule rejects.
        text = json.dumps(model_doc([10 ** 400, 1])).replace(
            '"epochs": 2000', '"epochs": -' + "9" * 5000)
        with pytest.raises(ParseError, match=r"^training\.epochs: expected an integer, "
                                             r"got -inf$"):
            parse_model(text)
        with pytest.raises(ParseError, match=r"^line 1, column \d+: "):
            parse_model(text[:-1])

    def test_conv_layer_parses(self):
        doc = model_doc([2, 1])
        doc["layers"] = [{"kind": "convolutional", "out_width": 2, "kernel": 3,
                          "in_channels": 1, "out_channels": 2, "activation": "gelu"}]
        spec = parse_model(json.dumps(doc))
        assert spec.layers[0] == Convolutional(2, 3, 1, 2, Activation.GELU)


class TestRoundTrip:
    def test_parsing_is_deterministic(self):
        text = json.dumps(model_doc([4, 7, 1], activation="gelu"))
        assert parse_model(text) == parse_model(text)


class TestModelFamily:
    def test_training_width_sweep_size(self, width4_dnn):
        family = model_family(width4_dnn, range(4, 14), [Activation.SIGMOID])
        assert len(family) == 10

    def test_verification_sweep_size(self, width4_dnn):
        family = model_family(width4_dnn, range(14, 19),
                              [Activation.SIGMOID, Activation.TANH, Activation.GELU])
        assert len(family) == 15

    def test_singleton_matches_manual_construction(self, width4_dnn):
        (member,) = model_family(width4_dnn, [5], [Activation.SIGMOID])
        manual = fc_model([4, 5, 5, 5, 1], Activation.SIGMOID, name=member.name)
        assert member.layers == manual.layers

    def test_boundary_dims_and_output_activation_kept(self, width4_dnn):
        (member,) = model_family(width4_dnn, [9], [Activation.GELU])
        assert member.layers[0].inputs == 4
        assert member.layers[-1].outputs == 1
        assert member.layers[-1].activation is Activation.SIGMOID
        assert all(l.activation is Activation.GELU for l in member.layers[:-1])

    def test_width_major_ordering(self, width4_dnn):
        family = model_family(width4_dnn, [4, 5],
                              [Activation.SIGMOID, Activation.TANH])
        key = [(m.layers[0].outputs, m.layers[0].activation) for m in family]
        assert key == [(4, Activation.SIGMOID), (4, Activation.TANH),
                       (5, Activation.SIGMOID), (5, Activation.TANH)]

    def test_every_member_validates(self, width4_dnn):
        family = model_family(width4_dnn, range(4, 19),
                              [Activation.SIGMOID, Activation.TANH, Activation.GELU])
        assert len(family) == 45  # construction would have raised otherwise

    def test_empty_arguments_rejected(self, width4_dnn):
        with pytest.raises(ValueError):
            model_family(width4_dnn, [], [Activation.SIGMOID])
        with pytest.raises(ValueError):
            model_family(width4_dnn, [4], [])

    def test_needs_a_hidden_layer(self):
        shallow = fc_model([4, 1], Activation.SIGMOID)
        with pytest.raises(ValueError):
            model_family(shallow, [4], [Activation.SIGMOID])
