#!/usr/bin/env python3
# From raw power logs to per-model energy numbers: trapezoidal
# integration of instantaneous power, then a trimmed mean over repeated
# runs to tame measurement noise.

import random
import statistics

from transistor_ops import (
    ColumnAdapter,
    integrate_power,
    trace_samples,
    trimmed_mean,
)

# Hand-built (seconds, watts) samples first. Constant 10 W for 5 s is
# 50 J; a linear ramp 0 -> 10 W over 10 s is also 50 J, and the trapezoid
# rule gets both exactly because power is piecewise linear.
print("rectangle:", integrate_power([(0.0, 10.0), (5.0, 10.0)]), "J")
print("triangle: ", integrate_power([(0.0, 0.0), (10.0, 10.0)]), "J")

# The canonical on-disk format is a two-column CSV.
canonical = "elapsed_s,power_w\n0.0,1\n1.0,3\n2.0,1\n"
print("polyline: ", integrate_power(trace_samples(canonical)), "J")

# Vendor logs rarely match the canonical layout; a column adapter maps
# a timestamp column (with its format) and a power column onto it.
vendor = ("System Time,CPU Utilization(%),IA Power_0(Watt)\n"
          "09:15:00:000,35,12.5\n"
          "09:15:01:000,36,12.7\n"
          "09:15:02:000,34,12.4\n")
adapter = ColumnAdapter(time_column="System Time",
                        power_column="IA Power_0(Watt)",
                        time_format="%H:%M:%S:%f")
samples = list(trace_samples(vendor, adapter))
print("vendor log:", f"{integrate_power(samples):.2f} J over {samples[-1][0]:.0f} s")

# Sixty noisy repetitions of the same nominal run: average after
# dropping the five highest and five lowest readings. Spikes from
# background activity land in the dropped tails.
rng = random.Random(42)
nominal = 2500.0
runs = [nominal + rng.gauss(0.0, 25.0) for _ in range(60)]
runs[7] += 400.0    # a background-task spike
runs[33] -= 350.0   # a throttled run
print(f"\nraw mean of 60 runs:     {statistics.fmean(runs):10.2f} J")
print(f"trimmed mean (drop 5+5): {trimmed_mean(runs, 5):10.2f} J")
print(f"nominal:                 {nominal:10.2f} J")
