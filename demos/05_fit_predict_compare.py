#!/usr/bin/env python3
# The full pipeline on a synthetic measurement rig: plant a hidden
# affine workload-to-energy law, "measure" noisy training energies, fit
# on the narrow-width sigmoid models, then predict wider models with
# activations the fit never saw. A MAC-only baseline runs alongside.

import random

from transistor_ops import (
    Activation,
    AnalysisLevel,
    FP32,
    FullyConnected,
    Loss,
    ModelSpec,
    analyze,
    error_metrics,
    fit,
    flops_model,
    model_family,
    trimmed_mean,
)

HIDDEN_INTERCEPT = 2393.0      # joules at zero workload (idle floor)
HIDDEN_SLOPE = 9.605e-6        # joules per transistor operation

base = ModelSpec("rig-base", FP32,
                 tuple([FullyConnected(4, 4, Activation.SIGMOID)] * 3
                       + [FullyConnected(4, 1, Activation.SIGMOID)]),
                 Loss.MSE, 1372, 64, 2000)
rng = random.Random(7)


def step_tos(model):
    return analyze(model, AnalysisLevel.TRAINING).per_step.total


def step_flops(model):
    macs = flops_model(model, AnalysisLevel.TRAINING)
    return 2 * macs * model.instances_per_run / model.steps_per_run


def measure(model):
    # 60 runs at 0.5% relative noise, aggregated by the trimmed mean.
    energy = HIDDEN_INTERCEPT + HIDDEN_SLOPE * step_tos(model)
    runs = [energy * (1.0 + rng.gauss(0.0, 0.005)) for _ in range(60)]
    return trimmed_mean(runs, 5)


# Fit set: sigmoid models, widths 4..13.
fit_models = model_family(base, range(4, 14), [Activation.SIGMOID])
measured = [measure(m) for m in fit_models]
lm_tos = fit([(step_tos(m), e) for m, e in zip(fit_models, measured)])
lm_flops = fit([(step_flops(m), e) for m, e in zip(fit_models, measured)])
print(f"workload fit:  E = {lm_tos.intercept:.1f} + {lm_tos.slope:.4g} * TOs"
      f"   (R^2 = {lm_tos.r_squared:.6f})")
print(f"baseline fit:  E = {lm_flops.intercept:.1f} + {lm_flops.slope:.4g} * FLOPs"
      f"  (R^2 = {lm_flops.r_squared:.6f})")

# Test set: widths 14..18, all three activations.
test_models = model_family(base, range(14, 19),
                           [Activation.SIGMOID, Activation.TANH, Activation.GELU])
actual = [measure(m) for m in test_models]
pred_tos = [lm_tos.predict(step_tos(m)) for m in test_models]
pred_flops = [lm_flops.predict(step_flops(m)) for m in test_models]

tos_report = error_metrics(pred_tos, actual)
flops_report = error_metrics(pred_flops, actual)

print(f"\n{'model':>22s} {'measured':>10s} {'TOs pred':>10s} {'prec%':>7s} "
      f"{'FLOPs pred':>11s} {'prec%':>7s}")
for i, model in enumerate(test_models):
    print(f"{model.name:>22s} {actual[i]:10.0f} {pred_tos[i]:10.0f} "
          f"{tos_report.precision[i]:7.2f} {pred_flops[i]:11.0f} "
          f"{flops_report.precision[i]:7.2f}")

# The baseline predicts one energy per width regardless of activation,
# so it lands far off for tanh and gelu; the workload model transfers.
print(f"\nworkload model precision: {min(tos_report.precision):6.2f}"
      f" .. {max(tos_report.precision):6.2f} %")
print(f"baseline precision:       {min(flops_report.precision):6.2f}"
      f" .. {max(flops_report.precision):6.2f} %")
print(f"workload avg |error| {tos_report.avg_error:8.1f} J,"
      f"  max signed error {tos_report.max_error:8.1f} J")
print(f"baseline avg |error| {flops_report.avg_error:8.1f} J,"
      f"  max signed error {flops_report.max_error:8.1f} J")
