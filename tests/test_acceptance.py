"""Acceptance suite: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Measured-hardware headline numbers are not reproducible at desk scale;
synthetic rigs stand in: energies are generated from a hidden affine
workload-to-energy model (using the published reference coefficients,
intercept 2393 J and slope 9.605e-6 J per transistor operation), with 60
noisy runs per model aggregated by a drop-5-high/low trimmed mean,
mirroring the measurement procedure the tool is built for.
"""

import random
import time
from contextlib import contextmanager
from functools import reduce
from operator import add

import pytest

from transistor_ops import (
    Activation,
    AnalysisLevel,
    BasicOpCounts,
    Convolutional,
    DEFAULT_COST_TABLE,
    FP16,
    FP32,
    FP64,
    FullyConnected,
    Loss,
    ModelSpec,
    analyze,
    count_model,
    error_metrics,
    fit,
    flops_model,
    fp_cost_vector,
    integrate_power,
    model_family,
    run_training_step,
    scaled_unit_tos,
    tradeoff_select,
    trimmed_mean,
)
from transistor_ops.oracle import default_inputs, default_weights

from conftest import fc_model, model_doc, quadratic_through, write_model_doc

INTERCEPT_J = 2393.0
SLOPE_J_PER_TO = 9.605e-6


@contextmanager
def criterion(number, description, budget_s=None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} FAIL  {description}")
        raise
    elapsed = time.perf_counter() - start
    if budget_s is not None and elapsed >= budget_s:
        print(f"criterion {number:2d} FAIL  {description} "
              f"(runtime {elapsed:.2f}s over budget {budget_s}s)")
        raise AssertionError(f"runtime {elapsed:.2f}s exceeds {budget_s}s budget")
    print(f"criterion {number:2d} PASS  {description}  [{elapsed:.2f}s]")


def base_dnn():
    return fc_model([4, 4, 4, 4, 1], Activation.SIGMOID, name="base")


def step_tos(model):
    return analyze(model, AnalysisLevel.TRAINING).per_step.total


def step_flops(model):
    macs = flops_model(model, AnalysisLevel.TRAINING)
    return 2 * macs * model.instances_per_run / model.steps_per_run


def forward_census(layer):
    """The forward census of ``layer`` as a one-layer model's first layer."""
    model = ModelSpec("one", FP32, (layer,))
    return count_model(model, AnalysisLevel.INFERENCE).layers[0].forward


def test_01_fully_connected_forward_grid():
    with criterion(1, "fully-connected forward counts on the 32x32 grid", 1.0):
        for i in range(1, 33):
            for o in range(1, 33):
                got = forward_census(FullyConnected(i, o, Activation.SIGMOID))
                assert got.as_tuple() == ((i + 1) * o, o, i * o, o, o)


def test_02_convolutional_forward_grid():
    with criterion(2, "convolutional forward counts on the m,k,c grid", 1.0):
        for m in range(1, 6):
            for k in range(1, 6):
                for c_in in range(1, 5):
                    for c_out in range(1, 5):
                        got = forward_census(
                            Convolutional(m, k, c_in, c_out, Activation.GELU))
                        window = m * m * c_out
                        patch = c_in * k * k
                        assert got.as_tuple() == (
                            window * (1 + patch),
                            window,
                            window * (2 + patch),
                            window,
                            window,
                        )


def test_03_oracle_equivalence_on_random_models():
    with criterion(3, "census equals the instrumented executor on 50 random models",
                   10.0):
        rng = random.Random(2024)
        acts = [Activation.SIGMOID, Activation.TANH, Activation.GELU]
        for trial in range(50):
            depth = rng.randint(1, 4)
            dims = [rng.randint(1, 8) for _ in range(depth + 1)]
            layers = tuple(FullyConnected(dims[i], dims[i + 1], rng.choice(acts))
                           for i in range(depth))
            model = ModelSpec(f"rand{trial}", FP32, layers, Loss.MSE, 8, 4, 1)
            weights = default_weights(model, seed=trial)
            inputs = default_inputs(model, seed=trial)
            targets = [rng.uniform(0.1, 0.9) for _ in range(dims[-1])]
            tally = run_training_step(model, inputs, targets, weights=weights)
            report = count_model(model, AnalysisLevel.TRAINING)
            assert tally.forward == sum((p.forward for p in report.layers), BasicOpCounts())
            assert tally.loss == report.loss
            assert tuple(tally.backprop_layers) == tuple(
                p.backprop for p in report.layers)
            assert tuple(tally.update_layers) == tuple(
                p.update_per_batch for p in report.layers)


def test_04_lowering_fixtures_and_format_monotonicity():
    with criterion(4, "fp32 lowering fixtures, reference circuits, format order"):
        add, _, times, divide, _ = fp_cost_vector(FP32)
        assert (add, times, divide) == (235.0, 12_737.25, 15_549.75)
        table = DEFAULT_COST_TABLE
        assert scaled_unit_tos(64, table.mult_ref_bits, table.mult_ref_transistors,
                               table.scaling_exponent) == 90_000.0
        assert scaled_unit_tos(64, table.div_ref_bits, table.div_ref_transistors,
                               table.scaling_exponent) == 110_000.0
        for narrow, mid, wide in zip(*map(fp_cost_vector, (FP16, FP32, FP64))):
            assert narrow < mid < wide


def test_05_regression_recovery():
    """Energies planted on the training-width family at per-step scale,
    measured 60 times per model with 1%-of-mean Gaussian noise and
    aggregated with the drop-5 trimmed mean, must give back the planted
    coefficients (intercept within 5%, slope within 1%) in at least 95
    of 100 trials."""
    with criterion(5, "planted-line recovery over the width 4..13 family", 5.0):
        family = model_family(base_dnn(), range(4, 14), [Activation.SIGMOID])
        workloads = [step_tos(m) for m in family]
        true_energy = [INTERCEPT_J + SLOPE_J_PER_TO * x for x in workloads]
        sigma = 0.01 * (sum(true_energy) / len(true_energy))
        rng = random.Random(1234)
        hits = 0
        for _ in range(100):
            points = []
            for x, e in zip(workloads, true_energy):
                runs = [e + sigma * rng.gauss(0.0, 1.0) for _ in range(60)]
                points.append((x, trimmed_mean(runs, 5)))
            model = fit(points)
            ok_a = abs(model.intercept - INTERCEPT_J) <= 0.05 * INTERCEPT_J
            ok_b = abs(model.slope - SLOPE_J_PER_TO) <= 0.01 * SLOPE_J_PER_TO
            hits += ok_a and ok_b
        assert hits >= 95, f"recovered coefficients in only {hits}/100 trials"


def test_06_ingestion_exactness():
    with criterion(6, "trapezoid integration and trimmed-mean exactness"):
        assert integrate_power([(0.0, 10.0), (5.0, 10.0)]) == 50.0
        assert integrate_power([(0.0, 0.0), (10.0, 10.0)]) == 50.0
        rng = random.Random(6)
        import math
        for _ in range(25):
            n = rng.randint(2, 50)
            times = sorted(set(rng.uniform(0, 60) for _ in range(n)))
            watts = [rng.uniform(0, 40) for _ in range(len(times))]
            if len(times) < 2:
                continue
            want = math.fsum((times[i + 1] - times[i]) * (watts[i] + watts[i + 1]) / 2
                             for i in range(len(times) - 1))
            got = integrate_power(zip(times, watts))
            assert abs(got - want) <= 1e-12 * max(abs(want), 1.0)
        samples = [rng.uniform(50, 150) for _ in range(60)]
        # Added left to right, as trimmed_mean adds on every interpreter.
        direct = reduce(add, sorted(samples)[5:55], 0.0) / 50
        assert trimmed_mean(samples, 5) == direct


def test_07_end_to_end_synthetic_rig():
    """Hidden affine energy model over per-step training workloads,
    0.5%-of-value noise on each of 60 runs per model; the pipeline fits
    on the sigmoid width 4..13 models and predicts the 14..18 test set
    for all three activations. The baseline counter, blind to
    activations, must score strictly worse on the non-sigmoid ones."""
    with criterion(7, "synthetic-rig precision and baseline comparison", 10.0):
        base = base_dnn()
        rng = random.Random(20260810)

        def measure(model):
            energy = INTERCEPT_J + SLOPE_J_PER_TO * step_tos(model)
            runs = [energy * (1.0 + 0.005 * rng.gauss(0.0, 1.0)) for _ in range(60)]
            return trimmed_mean(runs, 5)

        fit_models = model_family(base, range(4, 14), [Activation.SIGMOID])
        test_models = model_family(
            base, range(14, 19),
            [Activation.SIGMOID, Activation.TANH, Activation.GELU])

        fit_meas = [measure(m) for m in fit_models]
        lm_tos = fit([(step_tos(m), e) for m, e in zip(fit_models, fit_meas)])
        lm_flops = fit([(step_flops(m), e) for m, e in zip(fit_models, fit_meas)])

        test_meas = [measure(m) for m in test_models]
        pred_tos = [lm_tos.predict(step_tos(m)) for m in test_models]
        pred_flops = [lm_flops.predict(step_flops(m)) for m in test_models]
        report_tos = error_metrics(pred_tos, test_meas)
        report_flops = error_metrics(pred_flops, test_meas)

        assert all(p >= 99.0 for p in report_tos.precision), \
            f"workload-model precision fell below 99%: {min(report_tos.precision):.3f}"

        for act in (Activation.TANH, Activation.GELU):
            idx = [i for i, m in enumerate(test_models)
                   if m.layers[0].activation is act]
            tos_prec = [report_tos.precision[i] for i in idx]
            flops_prec = [report_flops.precision[i] for i in idx]
            assert min(flops_prec) < min(tos_prec)
            assert (sum(flops_prec) / len(flops_prec)
                    < sum(tos_prec) / len(tos_prec))


def test_08_activation_scaling_properties():
    with criterion(8, "activation ordering, tanh/gelu closeness, quadratic width law"):
        base = base_dnn()
        family = model_family(
            base, range(4, 19),
            [Activation.SIGMOID, Activation.TANH, Activation.GELU])
        totals = {}
        for member in family:
            width = member.layers[0].outputs
            act = member.layers[0].activation
            totals[(width, act)] = analyze(member,
                                           AnalysisLevel.INFERENCE).per_instance.total
        for width in range(4, 19):
            sig = totals[(width, Activation.SIGMOID)]
            tanh = totals[(width, Activation.TANH)]
            gelu = totals[(width, Activation.GELU)]
            assert sig < gelu
            assert abs(tanh - gelu) / gelu < 0.02

        probe = model_family(base, [4, 5, 6, 11], [Activation.SIGMOID])
        widths = [4.0, 5.0, 6.0, 11.0]
        values = [analyze(m, AnalysisLevel.INFERENCE).per_instance.total
                  for m in probe]
        held_out = quadratic_through(widths[:3], values[:3], widths[3])
        assert held_out == pytest.approx(values[3], rel=1e-9)


def test_09_nonlinear_share_reported(tmp_path, capsys):
    """The workload report must state which fraction of the total falls
    outside the linear layers' multiply-accumulates. Under the default
    cost table (division and transcendentals priced orders of magnitude
    above additions) the share is far larger than linear-only baselines
    assume, so only existence and positivity are asserted."""
    with criterion(9, "non-linear workload share is computed and positive"):
        from transistor_ops.cli import main
        import csv as _csv
        import io as _io
        path = write_model_doc(tmp_path / "m.json", model_doc([4, 4, 4, 4, 1]))
        code = main(["tos", path, "--level", "training", "--raw"])
        out = capsys.readouterr().out
        assert code == 0
        rows = list(_csv.reader(_io.StringIO(out)))
        share = float(next(r for r in rows if r[1] == "nonlinear_share")[2])
        assert 0.0 < share < 1.0


def test_10_tradeoff_boundaries_and_interior():
    with criterion(10, "trade-off selection at the boundaries and interior"):
        rng = random.Random(10)
        candidates = [(f"m{i}", rng.uniform(1.0, 100.0), rng.uniform(0.0, 1.0))
                      for i in range(10)]
        assert tradeoff_select(candidates, 1.0) \
            == min(candidates, key=lambda c: c[1])[0]
        assert tradeoff_select(candidates, 0.0) \
            == min(candidates, key=lambda c: c[2])[0]
        for alpha in (0.25, 0.5, 0.8):
            brute = min(candidates,
                        key=lambda c: alpha * c[1] + (1 - alpha) * c[2])[0]
            assert tradeoff_select(candidates, alpha) == brute
