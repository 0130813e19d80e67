import csv
import io
import json

import pytest

from transistor_ops import (
    AnalysisLevel,
    FP64,
    LinearModel,
    analyze,
    parse_model,
)
from transistor_ops import cli
from transistor_ops.cli import main
from transistor_ops.energy import write_linear_model

from conftest import fc_model, model_doc, write_model_doc


def run_cli(capsys, *args):
    code = main([str(a) for a in args])
    captured = capsys.readouterr()
    return code, captured.out


def rows_of(text):
    return list(csv.reader(io.StringIO(text)))


@pytest.fixture
def width4_doc(tmp_path):
    return write_model_doc(tmp_path / "w4.json", model_doc([4, 4, 4, 4, 1]))


@pytest.fixture
def eq_fitted(tmp_path):
    path = tmp_path / "fitted.json"
    path.write_text(write_linear_model(LinearModel(2393.0, 9.605e-6, 1.0, 2)))
    return str(path)


class TestCount:
    def test_width4_inference_totals(self, capsys, width4_doc):
        code, out = run_cli(capsys, "count", width4_doc, "--level", "inference")
        assert code == 0
        rows = rows_of(out)
        total = next(r for r in rows if r[:3] == ["per_instance", "all", "total"])
        assert total[3:] == ["65", "13", "52", "13", "13"]

    def test_missing_file(self, capsys):
        code, _ = run_cli(capsys, "count", "no-such-model.json")
        assert code == 2

    def test_conv_model_at_training_level(self, capsys, tmp_path):
        doc = model_doc([4, 1])
        doc["layers"] = [{"kind": "convolutional", "out_width": 2, "kernel": 3,
                         "in_channels": 1, "out_channels": 2, "activation": "gelu"}]
        path = write_model_doc(tmp_path / "conv.json", doc)
        code, _ = run_cli(capsys, "count", path, "--level", "training")
        assert code == 3

    def test_validation_includes_loss_row(self, capsys, width4_doc):
        code, out = run_cli(capsys, "count", width4_doc, "--level", "validation")
        assert code == 0
        rows = rows_of(out)
        loss = next(r for r in rows if r[2] == "loss")
        assert loss[3:] == ["0", "1", "1", "1", "0"]


class TestTos:
    def test_total_matches_library(self, capsys, width4_doc, width4_dnn):
        code, out = run_cli(capsys, "tos", width4_doc, "--level", "training", "--raw")
        assert code == 0
        rows = rows_of(out)
        total = float(next(r for r in rows if r[:2] == ["per_run", "total"])[2])
        want = analyze(width4_dnn, AnalysisLevel.TRAINING).per_run.total
        assert total == want

    def test_fp64_override_increases_total(self, capsys, width4_doc):
        def total_for(*extra):
            _, out = run_cli(capsys, "tos", width4_doc, "--raw", *extra)
            rows = rows_of(out)
            return float(next(r for r in rows if r[:2] == ["per_run", "total"])[2])
        assert total_for("--format", "fp64") > total_for()

    def test_nonlinear_share_reported(self, capsys, width4_doc):
        code, out = run_cli(capsys, "tos", width4_doc, "--raw")
        assert code == 0
        rows = rows_of(out)
        share = float(next(r for r in rows if r[1] == "nonlinear_share")[2])
        assert 0.0 < share < 1.0

    def test_bad_cost_table(self, capsys, width4_doc, tmp_path):
        bad = tmp_path / "table.json"
        bad.write_text('{"nand": 4}')
        code, _ = run_cli(capsys, "tos", width4_doc, "--cost-table", str(bad))
        assert code == 2

    def test_cost_table_env_var(self, capsys, width4_doc, tmp_path, monkeypatch):
        table = tmp_path / "table.json"
        table.write_text('{"fa": 20}')
        _, out_default = run_cli(capsys, "tos", width4_doc, "--raw")
        monkeypatch.setenv("TOS_COST_TABLE", str(table))
        _, out_env = run_cli(capsys, "tos", width4_doc, "--raw")
        assert out_env != out_default

    def test_out_file(self, capsys, width4_doc, tmp_path):
        out_path = tmp_path / "tos.csv"
        code, out = run_cli(capsys, "tos", width4_doc, "--out", out_path)
        assert code == 0 and out == ""
        assert out_path.read_text().startswith("scope,quantity,value")


def write_trace(path, samples):
    lines = ["elapsed_s,power_w"] + [f"{t},{p}" for t, p in samples]
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestIngest:
    def test_constant_power_runs_aggregate_to_the_constant(self, capsys, tmp_path):
        paths = []
        for run in range(60):
            paths.append(write_trace(tmp_path / f"m1__r{run:02d}.csv",
                                     [(0.0, 8.0), (10.0, 8.0)]))
        code, out = run_cli(capsys, "ingest", *paths)
        assert code == 0
        rows = rows_of(out)
        agg = next(r for r in rows if r[1] == "trimmed_mean")
        assert agg[0] == "m1"
        assert float(agg[2]) == 80.0

    def test_polyline_fixture_matches_analytic_value(self, capsys, tmp_path):
        path = write_trace(tmp_path / "poly__r0.csv",
                           [(0.0, 1.0), (1.0, 3.0), (2.0, 1.0)])
        # A stem without `__` is run run0 of the model it names.
        solo = write_trace(tmp_path / "solo.csv", [(0.0, 10.0), (1.0, 12.0)])
        code, out = run_cli(capsys, "ingest", path, solo, "--trim-k", "0")
        assert code == 0
        rows = rows_of(out)
        sample = next(r for r in rows if r[1] == "r0")
        assert float(sample[2]) == 4.0
        assert [r for r in rows if r[0] == "solo"] == [["solo", "run0", "11.0"],
                                                      ["solo", "trimmed_mean", "11.0"]]

    def test_trim_k_too_large(self, capsys, tmp_path):
        path = write_trace(tmp_path / "m__r0.csv", [(0.0, 1.0), (1.0, 1.0)])
        code, _ = run_cli(capsys, "ingest", path, "--trim-k", "5")
        assert code == 2

    def test_malformed_trace_names_file_and_row(self, capsys, tmp_path):
        path = tmp_path / "bad__r0.csv"
        path.write_text("elapsed_s,power_w\n0.0,1\noops,1\n")
        code = main(["ingest", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert "bad__r0.csv" in err and "row 3" in err

    def test_vendor_adapter(self, capsys, tmp_path):
        trace = tmp_path / "m__r0.csv"
        trace.write_text("ts,watts\n0.0,10\n5.0,10\n")
        adapter = tmp_path / "adapter.json"
        adapter.write_text('{"time_column": "ts", "power_column": "watts"}')
        code, out = run_cli(capsys, "ingest", str(trace), "--trim-k", "0",
                            "--adapter", str(adapter))
        assert code == 0
        sample = next(r for r in rows_of(out) if r[1] == "r0")
        assert float(sample[2]) == 50.0

    def test_repeated_run_exits_2_naming_both_paths(self, capsys, tmp_path):
        # The same file twice, or two files with one stem, would count a run twice.
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        r0 = write_trace(tmp_path / "a" / "m__r0.csv", [(0.0, 1.0), (10.0, 1.0)])
        r0_again = write_trace(tmp_path / "b" / "m__r0.csv", [(0.0, 1.0), (10.0, 1.0)])
        r1 = write_trace(tmp_path / "m__r1.csv", [(0.0, 2.0), (10.0, 2.0)])
        for first, second in ((r0, r0), (r0, r0_again)):
            code = main(["ingest", first, r1, second, "--trim-k", "0"])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            assert f"{first}, {second}: both are run 'r0' of model 'm'" in captured.err
        code, out = run_cli(capsys, "ingest", r0, r1, "--trim-k", "0")
        assert code == 0
        assert rows_of(out)[-1] == ["m", "trimmed_mean", "15.0"]


class TestFit:
    def test_two_point_reference(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("tos,joules\n0,2393\n1e9,11998\n")
        code, out = run_cli(capsys, "fit", str(pairs))
        assert code == 0
        doc = json.loads(out)
        assert doc["intercept_j"] == pytest.approx(2393.0, rel=1e-12)
        assert doc["slope_j_per_to"] == pytest.approx(9.605e-6, rel=1e-12)
        assert doc["r_squared"] == 1.0

    def test_single_point_fails(self, capsys, tmp_path):
        pairs = tmp_path / "pairs.csv"
        pairs.write_text("tos,joules\n1,1\n")
        code, _ = run_cli(capsys, "fit", str(pairs))
        assert code == 2


class TestEstimate:
    def test_zero_workload_predicts_the_intercept(self, capsys, tmp_path, eq_fitted):
        tos_file = tmp_path / "tos.csv"
        tos_file.write_text("model_id,tos\nsynthetic,0\n")
        code, out = run_cli(capsys, "estimate", "--fitted", eq_fitted,
                            "--tos-file", str(tos_file), "--raw")
        assert code == 0
        row = rows_of(out)[1]
        assert row[0] == "synthetic"
        assert float(row[2]) == 2393.0

    def test_identity_model_predicts_the_workload(self, capsys, tmp_path, width4_doc):
        fitted = tmp_path / "identity.json"
        fitted.write_text(write_linear_model(LinearModel(0.0, 1.0, 1.0, 2)))
        code, out = run_cli(capsys, "estimate", width4_doc, "--fitted", str(fitted),
                            "--level", "training", "--scale", "run", "--raw")
        assert code == 0
        row = rows_of(out)[1]
        assert float(row[1]) == float(row[2])

    def test_verification_family_gives_fifteen_rows(self, capsys, tmp_path, eq_fitted):
        paths = [write_model_doc(tmp_path / f"w4-w{width}-{act}.json",
                                 model_doc([4, width, width, width, 1], act,
                                           name=f"w4-w{width}-{act}"))
                 for width in range(14, 19) for act in ("sigmoid", "tanh", "gelu")]
        code, out = run_cli(capsys, "estimate", *paths, "--fitted", eq_fitted,
                            "--level", "training", "--scale", "step")
        assert code == 0
        assert len(rows_of(out)) == 1 + 15

    def test_needs_some_input(self, capsys, eq_fitted):
        code, _ = run_cli(capsys, "estimate", "--fitted", eq_fitted)
        assert code == 2


class TestSweep:
    def test_training_widths_produce_monotone_rows(self, capsys, tmp_path, width4_doc):
        code, out = run_cli(capsys, "sweep", width4_doc, "--widths", "4..13",
                            "--activations", "sigmoid", "--raw")
        assert code == 0
        rows = rows_of(out)[1:]
        assert len(rows) == 10
        tos = [float(r[2]) for r in rows]
        assert tos == sorted(tos)
        assert all(t1 < t2 for t1, t2 in zip(tos, tos[1:]))

    def test_verification_family_row_count(self, capsys, width4_doc):
        code, out = run_cli(capsys, "sweep", width4_doc, "--widths", "14..18",
                            "--activations", "sigmoid,tanh,gelu")
        assert code == 0
        assert len(rows_of(out)) == 1 + 15

    def test_tanh_and_gelu_rows_within_two_percent(self, capsys, width4_doc):
        code, out = run_cli(capsys, "sweep", width4_doc, "--widths", "4..13",
                            "--activations", "tanh,gelu", "--raw")
        assert code == 0
        rows = rows_of(out)[1:]
        for i in range(0, len(rows), 2):
            tanh_tos, gelu_tos = float(rows[i][2]), float(rows[i + 1][2])
            assert abs(tanh_tos - gelu_tos) / gelu_tos < 0.02

    def test_empty_width_range(self, capsys, width4_doc):
        code, _ = run_cli(capsys, "sweep", width4_doc, "--widths", "9..4")
        assert code == 2

    @pytest.mark.parametrize("widths,activations,message", [
        ("0..2", "sigmoid", "--widths '0..2': widths must be >= 1"),
        ("0", "sigmoid", "--widths '0': widths must be >= 1"),
        ("-3..4", "sigmoid", "--widths '-3..4': widths must be >= 1"),
        ("9..4", "sigmoid", "--widths '9..4': the range is empty"),
        ("4..x", "sigmoid", "--widths '4..x': expected 'a..b'"),
        ("4..6", "sigmoid,tanh,sigmoid", "--activations 'sigmoid,tanh,sigmoid': "
                                         "an activation is named twice"),
        ("4..6", " , ", "--activations: the list is empty"),
        ("4..6", "sigmoid,foo", "--activations 'sigmoid,foo': 'foo' is not a valid"),
        # Checked from the bounds alone: no list of 10**12 widths is built.
        ("1..1000000000000", "sigmoid", "--widths '1..1000000000000' with 1 "
                                        "activation(s) makes 1000000000000 models"),
    ])
    def test_bad_family_exits_2_naming_the_flag(self, capsys, width4_doc, widths,
                                                activations, message):
        code = main(["sweep", width4_doc, f"--widths={widths}", "--activations", activations])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert message in captured.err, captured.err

    def test_family_size_is_widths_times_activations(self, capsys, width4_doc,
                                                     monkeypatch):
        monkeypatch.setattr(cli, "MAX_FAMILY", 6)
        code, out = run_cli(capsys, "sweep", width4_doc, "--widths", "1..3",
                            "--activations", "sigmoid,tanh")
        assert code == 0
        assert len(rows_of(out)) == 1 + 6
        code = main(["sweep", width4_doc, "--widths", "1..3",
                     "--activations", "sigmoid,tanh,gelu"])
        assert code == 2
        assert "makes 9 models; a sweep takes at most 6" in capsys.readouterr().err

    def test_predictions_column_with_fitted_model(self, capsys, width4_doc, eq_fitted):
        code, out = run_cli(capsys, "sweep", width4_doc, "--widths", "4..5",
                            "--activations", "sigmoid", "--fitted-model", eq_fitted,
                            "--raw")
        assert code == 0
        for row in rows_of(out)[1:]:
            assert float(row[5]) == pytest.approx(2393.0 + 9.605e-6 * float(row[2]),
                                                  rel=1e-12)

    def test_byte_stable_output(self, capsys, width4_doc):
        _, first = run_cli(capsys, "sweep", width4_doc, "--widths", "4..8")
        _, second = run_cli(capsys, "sweep", width4_doc, "--widths", "4..8")
        assert first == second

    def test_svg_rendering(self, capsys, tmp_path, width4_doc):
        svg = tmp_path / "sweep.svg"
        code, _ = run_cli(capsys, "sweep", width4_doc, "--widths", "4..6",
                          "--svg", svg)
        assert code == 0
        body = svg.read_text()
        assert body.startswith("<svg") and "polyline" in body


class TestCompare:
    @staticmethod
    def write_predictions(path, rows):
        lines = ["model_id,predicted_j"] + [f"{m},{v}" for m, v in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    @staticmethod
    def write_actual(path, rows):
        lines = ["model_id,joules"] + [f"{m},{v}" for m, v in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_identical_predictions_give_identical_columns(self, capsys, tmp_path):
        preds = [("a", 98.0), ("b", 210.0)]
        actual = [("a", 100.0), ("b", 200.0)]
        p1 = self.write_predictions(tmp_path / "p1.csv", preds)
        p2 = self.write_predictions(tmp_path / "p2.csv", preds)
        act = self.write_actual(tmp_path / "act.csv", actual)
        code, out = run_cli(capsys, "compare", p1, p2, act, "--raw")
        assert code == 0
        per_model, summary = out.split("\n\n")
        for row in rows_of(per_model)[1:]:
            assert row[2] == row[4] and row[3] == row[5]
        summary_rows = rows_of(summary)
        assert summary_rows[1][1:] == summary_rows[2][1:]

    def test_mismatched_lengths(self, capsys, tmp_path):
        p1 = self.write_predictions(tmp_path / "p1.csv", [("a", 1.0)])
        p2 = self.write_predictions(tmp_path / "p2.csv", [("a", 1.0), ("b", 2.0)])
        act = self.write_actual(tmp_path / "act.csv", [("a", 1.0), ("b", 2.0)])
        code, _ = run_cli(capsys, "compare", p1, p2, act)
        assert code == 2


class TestTradeoff:
    @staticmethod
    def write_candidates(path, rows):
        lines = ["model_id,energy_j,loss"] + [f"{m},{e},{l}" for m, e, l in rows]
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_ledger_fixture(self, capsys, tmp_path):
        path = self.write_candidates(tmp_path / "c.csv",
                                     [("A", 10.0, 0.5), ("B", 5.0, 0.9)])
        code, out = run_cli(capsys, "tradeoff", path, "--alpha", "0.5")
        assert code == 0
        assert out.strip() == "B"

    def test_boundaries(self, capsys, tmp_path):
        path = self.write_candidates(tmp_path / "c.csv",
                                     [("A", 10.0, 0.5), ("B", 5.0, 0.9)])
        _, out = run_cli(capsys, "tradeoff", path, "--alpha", "1")
        assert out.strip() == "B"
        _, out = run_cli(capsys, "tradeoff", path, "--alpha", "0")
        assert out.strip() == "A"

    def test_alpha_out_of_range(self, capsys, tmp_path):
        path = self.write_candidates(tmp_path / "c.csv", [("A", 1.0, 1.0)])
        code = main(["tradeoff", path, "--alpha", "2"])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{path} with --alpha 2.0: alpha must lie in [0, 1]" in err, err


class TestOracleCommand:
    def test_segments_match_the_census(self, capsys, width4_doc, width4_dnn):
        from transistor_ops import count_model
        code, out = run_cli(capsys, "oracle", width4_doc)
        assert code == 0
        rows = rows_of(out)
        forward = next(r for r in rows if r[0] == "forward")
        report = count_model(width4_dnn, AnalysisLevel.TRAINING)
        total = [0] * 5
        for profile in report.layers:
            total = [a + b for a, b in zip(total, profile.forward.as_tuple())]
        assert [int(v) for v in forward[1:]] == total


FITTED = '{"intercept_j": 1.0, "slope_j_per_to": 1.0, "r_squared": 1.0, "n_points": 2}'
TRACE = "elapsed_s,power_w\n0,1\n1,1\n"
# A conv + FC model: forward levels only, and no width family.
CONV_DOC = json.dumps(dict(model_doc([8, 1]), layers=[
    {"kind": "convolutional", "out_width": 2, "kernel": 3, "in_channels": 1,
     "out_channels": 2, "activation": "gelu"},
    {"kind": "fully_connected", "inputs": 8, "outputs": 1, "activation": "sigmoid"}]))

# Deeper than any JSON decoder's recursion limit.
DEEP = "[" * 100_000 + "]" * 100_000

# name -> (files to write, argv with {file names} filled in, the file the
# error must name, where in that file the bad value sits); every {name}
# is a path in one temporary directory, written or not.
BAD_INPUTS = {
    "nan-trace": ({"nan__r0.csv": "elapsed_s,power_w\n0.0,10.0\n0.5,11.0\n1.0,nan\n"},
                  ["ingest", "{nan__r0.csv}", "--trim-k", "0"], "nan__r0.csv", "row 4"),
    "inf-trace": ({"inf__r0.csv": "elapsed_s,power_w\n0.0,10.0\n-inf,11.0\n1.0,9.0\n"},
                  ["ingest", "{inf__r0.csv}", "--trim-k", "0"], "inf__r0.csv", "row 3"),
    "nan-cost-table": ({"nan_table.json": '{"fa": NaN}'},
                       ["tos", "{model.json}", "--cost-table", "{nan_table.json}"],
                       "nan_table.json", "fa"),
    "bool-cost-table": ({"bool_table.json": '{"ha": 5, "fa": true}'},
                        ["tos", "{model.json}", "--cost-table", "{bool_table.json}"],
                        "bool_table.json", "fa"),
    "fractional-newton-iterations": (
        {"frac_table.json": '{"newton_iterations": 2.7}'},
        ["tos", "{model.json}", "--cost-table", "{frac_table.json}"],
        "frac_table.json", "newton_iterations"),
    "fractional-mult-ref-bits": (
        {"bits_table.json": '{"mult_ref_bits": 64.9}'},
        ["tos", "{model.json}", "--cost-table", "{bits_table.json}"],
        "bits_table.json", "mult_ref_bits"),
    "fractional-n-points": (
        {"frac_fit.json": FITTED.replace('"n_points": 2', '"n_points": 3.9'),
         "tos.csv": "model_id,tos\na,1.0\n"},
        ["estimate", "--tos-file", "{tos.csv}", "--fitted", "{frac_fit.json}"],
        "frac_fit.json", "n_points"),
    "nan-fit-pair": ({"nan_pairs.csv": "tos,joules\n1000,2500.0\n2000,nan\n3000,2700.0\n"},
                     ["fit", "{nan_pairs.csv}"], "nan_pairs.csv", "row 3"),
    "inf-tos-file": ({"fitted.json": FITTED, "inf_tos.csv": "model_id,tos\na,1.0\nb,inf\n"},
                     ["estimate", "--tos-file", "{inf_tos.csv}", "--fitted", "{fitted.json}"],
                     "inf_tos.csv", "row 3"),
    "duplicate-prediction-id": (
        {"dup.csv": "model_id,predicted_j\na,100\nb,200\na,999\n",
         "flops.csv": "model_id,predicted_j\na,100\nb,200\n",
         "actual.csv": "model_id,joules\na,110\nb,190\n"},
        ["compare", "{dup.csv}", "{flops.csv}", "{actual.csv}"],
        "dup.csv", "model_id 'a'"),
    "nan-tradeoff-candidate": (
        {"cands.csv": "model_id,energy_j,loss\nbad,nan,0.1\ngood,100.0,0.2\n"},
        ["tradeoff", "{cands.csv}", "--alpha", "0.5"], "cands.csv", "row 2"),
    "non-increasing-trace-time": (
        {"back__r0.csv": "elapsed_s,power_w\n0.0,10.0\n1.0,11.0\n1.0,9.0\n"},
        ["ingest", "{back__r0.csv}", "--trim-k", "0"], "back__r0.csv",
        "row 4: time must be strictly increasing"),
    "negative-trace-power": (
        {"neg__r0.csv": "elapsed_s,power_w\n0.0,10.0\n1.0,-0.5\n2.0,9.0\n"},
        ["ingest", "{neg__r0.csv}", "--trim-k", "0"], "neg__r0.csv",
        "row 3: power must be non-negative"),
    "blank-line-before-bad-trace-row": (
        {"gap__r0.csv": "elapsed_s,power_w\n0.0,10.0\n\n1.0,11.0\n0.5,9.0\n"},
        ["ingest", "{gap__r0.csv}", "--trim-k", "0"], "gap__r0.csv",
        "row 5: time must be strictly increasing"),
    "one-sample-trace": (
        {"one__r0.csv": "elapsed_s,power_w\n0.0,10.0\n"},
        ["ingest", "{one__r0.csv}", "--trim-k", "0"], "one__r0.csv", "at least 2 samples"),
    "header-only-trace": (
        {"empty__r0.csv": "elapsed_s,power_w\n"},
        ["ingest", "{empty__r0.csv}", "--trim-k", "0"], "empty__r0.csv",
        "at least 2 samples"),
    "overflowing-trace-energy": (
        {"big__r0.csv": "elapsed_s,power_w\n0,1e308\n10,1e308\n"},
        ["ingest", "{big__r0.csv}", "--trim-k", "0"], "big__r0.csv", "energy overflows"),
    "overflowing-trace-energy-sums": (  # each term is finite, their sum is not
        {"sums__r0.csv": "elapsed_s,power_w\n0,8e307\n1,8e307\n2,8e307\n"},
        ["ingest", "{sums__r0.csv}", "--trim-k", "0"], "sums__r0.csv",
        "the energy overflows a float"),
    "model-root-not-an-object": ({"root.json": "[]"}, ["count", "{root.json}"], "root.json",
                                 "document root: expected an object"),
    "cost-table-root-not-an-object": (
        {"list_table.json": "[1]"},
        ["tos", "{model.json}", "--cost-table", "{list_table.json}"], "list_table.json",
        "cost table: expected an object"),
    "adapter-root-not-an-object": (
        {"list_adapter.json": "[]", "m__r0.csv": TRACE},
        ["ingest", "{m__r0.csv}", "--adapter", "{list_adapter.json}", "--trim-k", "0"],
        "list_adapter.json", "adapter config: expected an object"),
    "fitted-model-root-not-an-object": (
        {"list_fit.json": "[]"}, ["estimate", "{model.json}", "--fitted", "{list_fit.json}"],
        "list_fit.json", "fitted model: expected an object"),
    "overflowing-trimmed-mean": (
        {f"huge__r{i}.csv": "elapsed_s,power_w\n0,0.8e308\n1,0.8e308\n" for i in range(3)},
        ["ingest", "{huge__r0.csv}", "{huge__r1.csv}", "{huge__r2.csv}", "--trim-k", "0"],
        "huge__r2.csv", "model 'huge': the trimmed mean overflows"),
    "overflowing-fit-squares": (
        {"wide_pairs.csv": "tos,joules\n1e200,1\n2e200,3\n3e200,4\n"},
        ["fit", "{wide_pairs.csv}"], "wide_pairs.csv", "sums overflow"),
    "overflowing-fit-spread": (
        {"spread_pairs.csv": "tos,joules\n1e308,1\n1.5e308,3\n-1e308,4\n"},
        ["fit", "{spread_pairs.csv}"], "spread_pairs.csv", "sums overflow"),
    "overflowing-fan-in": (
        {"wide.json": json.dumps(model_doc([10 ** 309, 4, 1]))},
        ["tos", "{wide.json}"], "wide.json", "overflow"),
    "overflowing-run-length": (
        {"long.json": json.dumps(model_doc([4, 4, 1], dataset_len=10 ** 160,
                                           epochs=10 ** 160))},
        ["tos", "{long.json}", "--level", "training"], "long.json", "overflow"),
    "count-past-the-digit-limit": (
        {"longer.json": json.dumps(model_doc([4, 4, 1], dataset_len=10 ** 4000,
                                             epochs=10 ** 4000))},
        ["count", "{longer.json}", "--level", "training"], "longer.json",
        "model 'm': a count has more than 4300 digits"),
    "overflowing-estimate": (
        {"steep.json": FITTED.replace('"slope_j_per_to": 1.0', '"slope_j_per_to": 1e300'),
         "big_tos.csv": "model_id,tos\nx,1e300\n"},
        ["estimate", "--tos-file", "{big_tos.csv}", "--fitted", "{steep.json}"],
        "big_tos.csv", "model 'x'"),
    "empty-model-id-trace": ({"__r0.csv": TRACE, "m__r1.csv": TRACE},
                             ["ingest", "{m__r1.csv}", "{__r0.csv}", "--trim-k", "0"],
                             "__r0.csv", "the model id is empty"),
    "empty-run-id-trace": ({"m__.csv": TRACE}, ["ingest", "{m__.csv}", "--trim-k", "0"],
                           "m__.csv", "the run id is empty"),
    "reserved-run-id-trace": (
        {"m__trimmed_mean.csv": TRACE, "m__r1.csv": TRACE},
        ["ingest", "{m__trimmed_mean.csv}", "{m__r1.csv}", "--trim-k", "0"],
        "m__trimmed_mean.csv", "run id 'trimmed_mean' is reserved"),
    "sweep-conv-base": ({"conv.json": CONV_DOC}, ["sweep", "{conv.json}", "--widths", "2..3"],
                        "conv.json", "model 'm': family generation is defined"),
    "flatten-fan-in-mismatch": (
        {"flat.json": CONV_DOC.replace('"inputs": 8', '"inputs": 99')},
        ["count", "{flat.json}"], "flat.json",
        "layer 1 produces 8 outputs but layer 2 expects 99 inputs"),
    "sweep-one-layer-base": ({"one.json": json.dumps(model_doc([4, 1]))},
                             ["sweep", "{one.json}", "--widths", "2..3"],
                             "one.json", "model 'm': base model needs at least one hidden"),
    "overflowing-compare-error": (
        {"tos_pred.csv": "model_id,predicted_j\na,-1e308\n",
         "flops_pred.csv": "model_id,predicted_j\na,1e308\n",
         "act.csv": "model_id,joules\na,1e308\n"},
        ["compare", "{tos_pred.csv}", "{flops_pred.csv}", "{act.csv}"],
        "tos_pred.csv", "index 0"),
    "compare-missing-id": (
        {"p1.csv": "model_id,predicted_j\na,100\nb,200\n",
         "p2.csv": "model_id,predicted_j\na,100\nc,200\n",
         "act.csv": "model_id,joules\na,110\nb,190\n"},
        ["compare", "{p1.csv}", "{p2.csv}", "{act.csv}"], "p2.csv", "model 'b'"),
    "compare-fewer-ids": (
        {"p1.csv": "model_id,predicted_j\na,100\n",
         "p2.csv": "model_id,predicted_j\na,100\nb,200\n",
         "act.csv": "model_id,joules\na,110\nb,190\n"},
        ["compare", "{p1.csv}", "{p2.csv}", "{act.csv}"], "p1.csv", "model 'b'"),
    "compare-extra-id": (
        {"p1.csv": "model_id,predicted_j\na,100\nb,200\n",
         "p2.csv": "model_id,predicted_j\na,100\nb,200\nc,300\n",
         "act.csv": "model_id,joules\na,110\nb,190\n"},
        ["compare", "{p1.csv}", "{p2.csv}", "{act.csv}"], "p2.csv", "model 'c'"),
    "compare-non-positive-actual": (
        {"p1.csv": "model_id,predicted_j\na,100\nb,200\n",
         "p2.csv": "model_id,predicted_j\na,100\nb,200\n",
         "act.csv": "model_id,joules\na,110\nb,0\n"},
        ["compare", "{p1.csv}", "{p2.csv}", "{act.csv}"], "act.csv",
        "act.csv: row 3: expected a positive number, got '0'"),
    "estimate-empty-tos-file": (
        {"fitted.json": FITTED, "empty.csv": "model_id,tos\n"},
        ["estimate", "--tos-file", "{empty.csv}", "--fitted", "{fitted.json}"],
        "empty.csv", "lists no model"),
    "repeated-model-key": (
        {"twice.json": json.dumps(model_doc([4, 4, 1])).replace(
            '"epochs": 2000', '"epochs": 2000, "epochs": 1')},
        ["count", "{twice.json}", "--level", "training"], "twice.json",
        "duplicate key 'epochs'"),
    "repeated-cost-table-key": (
        {"twice_table.json": '{"fa": 12, "fa": 10}'},
        ["tos", "{model.json}", "--cost-table", "{twice_table.json}"],
        "twice_table.json", "duplicate key 'fa'"),
    "over-long-cost-table-integer": (
        {"long_table.json": '{"fa": %s}' % ("9" * 5000)},
        ["tos", "{model.json}", "--cost-table", "{long_table.json}"],
        "long_table.json", "cost table: fa: expected a finite number, got inf"),
    "over-long-model-integer": (
        {"long.json": json.dumps(model_doc([4, 4, 1])).replace(
            '"inputs": 4', '"inputs": %s' % ("9" * 5000), 1)},
        ["count", "{long.json}"], "long.json",
        "layers[0].inputs: expected an integer, got inf"),
    "bad-adapter-time-format": (
        {"q_adapter.json": json.dumps({"time_column": "t", "power_column": "p",
                                       "time_format": "%Q"}),
         "m__r0.csv": "t,p\n12:00,1\n12:01,2\n"},
        ["ingest", "{m__r0.csv}", "--adapter", "{q_adapter.json}", "--trim-k", "0"],
        "q_adapter.json", "adapter config: time_format: 'Q' is a bad directive"),
    "adapter-column-named-twice": (
        {"twice_adapter.json": json.dumps({"time_column": "t", "power_column": "t"}),
         "m__r0.csv": "t,p\n0,1\n1,2\n"},
        ["ingest", "{m__r0.csv}", "--adapter", "{twice_adapter.json}", "--trim-k", "0"],
        "twice_adapter.json", "adapter config: power_column: 't' is also the time_column"),
    "empty-tradeoff-candidates": (
        {"no_cands.csv": "model_id,energy_j,loss\n"},
        ["tradeoff", "{no_cands.csv}", "--alpha", "0.5"], "no_cands.csv",
        "candidate list is empty"),
    "cost-table-overflows-a-float": (
        {"huge_table.json": '{"fa": 1e307}'},
        ["tos", "{model.json}", "--cost-table", "{huge_table.json}"], "huge_table.json",
        "cost table: the operation costs overflow a float at fp16"),
    "cost-table-power-law-overflows-a-float": (
        {"steep_table.json": '{"scaling_exponent": 1e6, "mult_ref_bits": 1}'},
        ["sweep", "{model.json}", "--widths", "3..4", "--cost-table", "{steep_table.json}"],
        "steep_table.json", "cost table: the operation costs overflow a float at fp16"),
    "deep-cost-table": ({"deep_table.json": '{"fa": %s}' % DEEP},
                        ["tos", "{model.json}", "--cost-table", "{deep_table.json}"],
                        "deep_table.json", "cost table: nested too deeply"),
    "deep-model": ({"deep.json": json.dumps(model_doc([4, 4, 1])).replace(
                        '"epochs": 2000', '"epochs": ' + DEEP)},
                   ["count", "{deep.json}"], "deep.json", "nested too deeply"),
    "duplicate-tos-file-id": (
        {"fitted.json": FITTED, "dup_tos.csv": "model_id,tos\na,100\na,200\n"},
        ["estimate", "--tos-file", "{dup_tos.csv}", "--fitted", "{fitted.json}"],
        "dup_tos.csv", "duplicate model_id 'a'"),
    "estimate-model-file-twice": (
        {"fitted.json": FITTED}, ["estimate", "{model.json}", "{model.json}", "--fitted",
                                  "{fitted.json}"],
        "model.json", "model 'm': duplicate model_id, the file is given twice"),
    "estimate-tos-file-id-is-a-model-name": (
        {"fitted.json": FITTED, "named_tos.csv": "model_id,tos\nm,100\n"},
        ["estimate", "{model.json}", "--tos-file", "{named_tos.csv}", "--fitted",
         "{fitted.json}"],
        "model.json", "model 'm': duplicate model_id, first from "),
    "duplicate-tradeoff-candidate": (
        {"dup_cands.csv": "model_id,energy_j,loss\na,100,0.1\nb,200,0.2\na,50,0.3\n"},
        ["tradeoff", "{dup_cands.csv}", "--alpha", "0.5"], "dup_cands.csv",
        "duplicate model_id 'a'"),
    "sweep-svg-unwritable": ({}, ["sweep", "{model.json}", "--widths", "3..4",
                                  "--svg", "{missing/x.svg}"], "x.svg",
                             "No such file or directory"),
    "long-table-row": ({"long_pairs.csv": "tos,joules\n1,000,5\n2,7\n3,9\n"},
                       ["fit", "{long_pairs.csv}"], "long_pairs.csv",
                       "row 2: has 3 field(s), the header has 2"),
    "long-trace-row": ({"long__r0.csv": "elapsed_s,power_w\n0,1,000\n1,2\n2,3\n"},
                       ["ingest", "{long__r0.csv}", "--trim-k", "0"], "long__r0.csv",
                       "row 2: has 3 field(s), the header has 2"),
    "long-adapter-trace-row": (
        {"cols.json": json.dumps({"time_column": "t", "power_column": "p"}),
         "m__r0.csv": "p,t\n1,0\n2,1,0\n"},
        ["ingest", "{m__r0.csv}", "--adapter", "{cols.json}", "--trim-k", "0"],
        "m__r0.csv", "row 3: has 3 field(s), the header has 2"),
    "table-column-named-twice": (
        {"twice_pairs.csv": "tos,joules,joules\n1,2,3\n2,3,4\n3,5,6\n"},
        ["fit", "{twice_pairs.csv}"], "twice_pairs.csv",
        "header names column(s) joules more than once"),
    "trace-column-named-twice": (
        {"twice__r0.csv": "elapsed_s,power_w,power_w\n0,1,2\n1,2,3\n"},
        ["ingest", "{twice__r0.csv}", "--trim-k", "0"], "twice__r0.csv",
        "header names column(s) power_w more than once"),
    "oracle-model-too-large": (
        {"big.json": json.dumps(model_doc([316, 316]))}, ["oracle", "{big.json}"], "big.json",
        "model 'm': the oracle runs at most 100000 weights and biases; this model has more"),
    "oracle-model-past-a-float": (
        {"huge.json": json.dumps(model_doc([10 ** 309, 4, 1]))}, ["oracle", "{huge.json}"],
        "huge.json", "model 'm': the oracle runs at most 100000 weights"),
}


def run_bad_input(name, capsys, tmp_path):
    """Run ``BAD_INPUTS[name]``; check that it exits 2, prints nothing and
    names its file once and the place; return what it wrote to stderr."""
    files, argv, bad_file, place = BAD_INPUTS[name]
    write_model_doc(tmp_path / "model.json", model_doc([4, 4, 1]))
    for file_name, text in files.items():
        (tmp_path / file_name).write_text(text)
    code = main([str(tmp_path / a[1:-1]) if a.startswith("{") else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "set_int_max_str_digits" not in captured.err, captured.err
    assert captured.err.count(bad_file) == 1 and place in captured.err, captured.err
    return captured.err


@pytest.mark.parametrize("name", sorted(BAD_INPUTS))
def test_bad_input_exits_2_naming_file_and_place(name, capsys, tmp_path):
    run_bad_input(name, capsys, tmp_path)


@pytest.mark.parametrize("name", ["cost-table-overflows-a-float",
                                  "cost-table-power-law-overflows-a-float"])
def test_an_overflowing_cost_table_is_not_blamed_on_the_model(name, capsys, tmp_path):
    assert "model.json" not in run_bad_input(name, capsys, tmp_path)


def test_negative_trim_k_exits_2_before_any_trace_is_read(capsys, tmp_path):
    # The trace does not exist: naming --trim-k shows that none was opened.
    code = main(["ingest", str(tmp_path / "m__r0.csv"), "--trim-k", "-1"])
    err = capsys.readouterr().err
    assert code == 2
    assert "--trim-k -1: must be non-negative" in err and "m__r0.csv" not in err, err


def test_count_is_exact_past_the_float_range(capsys, tmp_path):
    # 10**400 instances: the step count stays an integer, so the per-run
    # census is exact instead of an OverflowError that names no file.
    dataset_len, batch_size, epochs = 10 ** 400, 64, 3
    path = write_model_doc(tmp_path / "huge.json", model_doc(
        [4, 4, 1], dataset_len=dataset_len, batch_size=batch_size, epochs=epochs))
    code = main(["count", path, "--level", "training"])
    out, err = capsys.readouterr()
    assert code == 0, err
    rows = list(csv.reader(io.StringIO(out)))[1:]
    counts = lambda scope, phase: [[int(c) for c in r[3:]] for r in rows
                                   if r[0] == scope and r[2] == phase]
    (per_instance,) = counts("per_instance", "total")
    updates = [sum(column) for column in zip(*counts("per_batch", "update"))]
    steps = -(-dataset_len // batch_size) * epochs
    assert counts("per_run", "total") == [[i * dataset_len * epochs + u * steps
                                           for i, u in zip(per_instance, updates)]]


@pytest.mark.parametrize("limit,code", [(65, 0), (64, 2)])
def test_oracle_size_limit_counts_weights_and_biases(limit, code, capsys, monkeypatch,
                                                      width4_doc):
    # 4 -> 4 -> 4 -> 4 -> 1 has 3 x (4 + 1) x 4 + (4 + 1) x 1 = 65 weights
    # and biases. Past the limit no weight is drawn.
    from transistor_ops import oracle
    if code:
        monkeypatch.setattr(oracle, "default_weights", None)
    monkeypatch.setattr(cli, "MAX_ORACLE_PARAMETERS", limit)
    assert main(["oracle", width4_doc]) == code, capsys.readouterr().err


@pytest.mark.parametrize("argv,message", [
    (["count", "--level", "training"], "training-level analysis requires"),
    (["tos", "--level", "training"], "training-level analysis requires"),
    (["estimate", "--fitted", "{fitted}", "--level", "training"],
     "training-level analysis requires"),
    (["oracle"], "the scalar executor supports"),
], ids=["count", "tos", "estimate", "oracle"])
def test_unsupported_model_exits_3_naming_file_and_model(argv, message, capsys, tmp_path):
    path = tmp_path / "conv.json"
    path.write_text(CONV_DOC)
    fitted = tmp_path / "fitted.json"
    fitted.write_text(FITTED)
    command, *options = argv
    code = main([command, str(path)] + [str(fitted) if a == "{fitted}" else a
                                        for a in options])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.out == ""
    assert f"{path}: model 'm': {message}" in captured.err, captured.err


@pytest.mark.parametrize("content,message", [
    (b"elapsed_s,power_w\n0.0,1\n1.0,\xff2\n", "can't decode"),
    (b'elapsed_s,power_w\n0,"' + b"x" * 200_000 + b'"\n', "field limit"),
])
def test_unreadable_trace_exits_2_naming_file(content, message, capsys, tmp_path):
    path = tmp_path / "raw__r0.csv"
    path.write_bytes(content)
    code = main(["ingest", str(path), "--trim-k", "0"])
    err = capsys.readouterr().err
    assert code == 2
    assert "raw__r0.csv" in err and message in err, err
