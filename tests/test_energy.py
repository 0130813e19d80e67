import json
import math
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from transistor_ops import (
    ColumnAdapter,
    DegenerateFitError,
    EnergySample,
    ErrorReport,
    LinearModel,
    ParseError,
    TraceError,
    error_metrics,
    fit,
    integrate_power,
    trace_samples,
    tradeoff_select,
    trimmed_mean,
)
from transistor_ops.cli import main
from transistor_ops.energy import (
    finite_float,
    parse_adapter,
    read_linear_model,
    read_table,
    write_energy_samples,
    write_linear_model,
)

PROPERTY = settings(derandomize=True, max_examples=200, deadline=None)

# Few distinct values, so equal magnitudes of both signs and equal scores recur.
ACTUALS = st.one_of(st.sampled_from([1.0, 2.0, 4.0, 10.0]), st.floats(0.5, 100.0))
MAGNITUDES = st.sampled_from([0.0, 0.5, 1.0, 2.5])


@st.composite
def scored_pairs(draw):
    """(predicted, actual) lists whose errors repeat magnitudes with both signs."""
    actual = draw(st.lists(ACTUALS, min_size=1, max_size=8))
    predicted = [a + draw(st.sampled_from([-1.0, 1.0])) * draw(MAGNITUDES) for a in actual]
    return predicted, actual


class TestIntegration:
    def test_constant_power_rectangle(self):
        assert integrate_power([(0.0, 10.0), (5.0, 10.0)]) == 50.0

    def test_linear_ramp_triangle(self):
        assert integrate_power([(0.0, 0.0), (10.0, 10.0)]) == 50.0

    def test_two_trapezoids(self):
        assert integrate_power([(0.0, 1.0), (1.0, 3.0), (2.0, 1.0)]) == 4.0

    def test_needs_two_samples(self):
        with pytest.raises(TraceError, match="at least 2"):
            integrate_power([(0.0, 1.0)])

    def test_non_monotone_time_names_the_index(self):
        with pytest.raises(TraceError, match="index 2"):
            integrate_power(zip((0.0, 1.0, 0.5), (1.0, 1.0, 1.0)))

    def test_negative_power_names_the_index(self):
        with pytest.raises(TraceError, match="index 1"):
            integrate_power(zip((0.0, 1.0), (1.0, -0.1)))

    @pytest.mark.parametrize("times,watts", [
        ((0.0, math.nan, 2.0), (1.0, 1.0, 1.0)),
        ((0.0, 1.0, 2.0), (1.0, 1.0, math.inf)),
        ((0.0, 1.0, math.inf), (1.0, 1.0, 1.0)),
        ((0.0, 1.0, 2.0), (1.0, 1.0, math.nan)),
    ])
    def test_non_finite_sample_names_the_index(self, times, watts):
        bad = next(i for i in range(3) if not math.isfinite(times[i] + watts[i]))
        with pytest.raises(TraceError, match=f"index {bad}"):
            integrate_power(zip(times, watts))

    @pytest.mark.parametrize("times,watts", [
        ((0.0, 10.0), (1e308, 1e308)),
        ((0.0, 1.0, 2.0, 3.0), (0.9e308, 0.9e308, 0.9e308, 0.9e308)),
        ((-1e308, 1e308), (1.0, 1.0)),
        ((0.0, 1.0, 2.0), (8e307, 8e307, 8e307)),  # finite terms, overflowing sums
    ])
    def test_overflowing_energy_rejected(self, times, watts):
        with pytest.raises(TraceError, match="overflows"):
            integrate_power(zip(times, watts))

    # Library callers may pass any (seconds, watts) pairs; integrate_power
    # checks them under the trace rules and names the sample index.
    @pytest.mark.parametrize("samples,match", [
        ([(1.0, 1.0), (0.0, 1.0)], "sample index 1: time must be strictly increasing"),
        ([(0.0, 1.0), (0.0, 1.0)], "sample index 1: time must be strictly increasing"),
        ([(0.0, 1.0)], "at least 2 samples"),
        ([], "at least 2 samples"),
        ([(0.0, -5.0), (1.0, 1.0)], "sample index 0: power must be non-negative"),
        ([(0.0, 1.0), (math.nan, 1.0)], "sample index 1: time and power must be finite"),
        ([(0.0, 1.0), (1.0, math.nan)], "sample index 1: time and power must be finite"),
        ([(0.0, 1.0), (1.0, math.inf)], "sample index 1: time and power must be finite"),
        # Each sample is exactly two real numbers: none is skipped or coerced.
        ([(0.0, 1.0), (), (1.0, 1.0)], "sample index 1: expected two real numbers"),
        ([("0", "1"), ("1", "1")], "sample index 0: expected two real numbers"),
        ([(False, True), (True, True)], "sample index 0: expected two real numbers"),
        ([(0.0, 1.0, 9), (1.0, 1.0)], "sample index 0: expected two real numbers"),
        ([(0.0,), (1.0, 2.0)], "sample index 0: expected two real numbers"),
    ], ids=["reversed time", "repeated time", "one sample", "no samples",
            "negative power", "nan time", "nan power", "inf power", "empty pair",
            "strings", "bools", "three numbers", "one number"])
    def test_unchecked_pairs_rejected_naming_the_index(self, samples, match):
        with pytest.raises(TraceError, match=match):
            integrate_power(samples)
        with pytest.raises(TraceError, match=match):
            integrate_power(iter(samples))

    def test_checked_pairs_from_any_iterable(self):
        assert integrate_power([(0.0, 10.0), (5.0, 10.0)]) == 50.0
        assert integrate_power(zip((0.0, 1.0, 2.0), (1.0, 3.0, 1.0))) == 4.0
        assert integrate_power([[0, 1], [2, 1.5]]) == 2.5

    def test_random_polylines_match_segmentwise_quadrature(self):
        rng = random.Random(17)
        for _ in range(20):
            n = rng.randint(2, 40)
            times = sorted(rng.uniform(0, 100) for _ in range(n))
            while len(set(times)) != n:
                times = sorted(rng.uniform(0, 100) for _ in range(n))
            watts = [rng.uniform(0, 50) for _ in range(n)]
            # independent reduction: per-segment closed form, fsum order
            want = math.fsum(
                (times[i + 1] - times[i]) * (watts[i] + watts[i + 1]) / 2.0
                for i in range(n - 1)
            )
            got = integrate_power(zip(times, watts))
            assert got == want
            assert got == pytest.approx(want, rel=1e-12)
            exact = sum((Fraction(t1) - Fraction(t0)) * (Fraction(p0) + Fraction(p1))
                        for t0, t1, p0, p1 in zip(times, times[1:], watts, watts[1:])) / 2
            assert got == pytest.approx(float(exact), rel=1e-12)


class TestTrimmedMean:
    def test_drops_one_from_each_end(self):
        assert trimmed_mean(list(range(1, 11)), k=1) == 5.5

    def test_constant_samples(self):
        assert trimmed_mean([7.25] * 60, k=5) == 7.25

    def test_outlier_removed(self):
        assert trimmed_mean([0.0, 0.0, 0.0, 100.0], k=1) == 0.0

    def test_requires_more_than_2k(self):
        with pytest.raises(ValueError):
            trimmed_mean([1.0] * 10, k=5)

    def test_negative_k_rejected(self):
        with pytest.raises(ValueError, match="k must be non-negative"):
            trimmed_mean([1.0, 2.0, 3.0], k=-1)

    @pytest.mark.parametrize("samples", [[0.8e308] * 3, [1.0, math.inf, 2.0]])
    def test_non_finite_mean_rejected(self, samples):
        with pytest.raises(ValueError, match="overflows"):
            trimmed_mean(samples, k=0)

    def test_k_zero_is_the_plain_mean(self):
        values = [3.0, 1.0, 2.0]
        assert trimmed_mean(values, k=0) == pytest.approx(2.0)

    def test_permutation_invariant_and_bounded(self):
        rng = random.Random(23)
        values = [rng.uniform(0, 100) for _ in range(60)]
        shuffled = values[:]
        rng.shuffle(shuffled)
        assert trimmed_mean(values, 5) == trimmed_mean(shuffled, 5)
        kept = sorted(values)[5:55]
        assert kept[0] <= trimmed_mean(values, 5) <= kept[-1]


class TestFit:
    def test_two_point_reference_coefficients(self):
        model = fit([(0.0, 2393.0), (1e9, 11998.0)])
        assert model.intercept == pytest.approx(2393.0, rel=1e-12)
        assert model.slope == pytest.approx(9.605e-6, rel=1e-12)
        assert model.r_squared == 1.0
        assert model.n_points == 2

    def test_constant_response(self):
        model = fit([(1.0, 5.0), (2.0, 5.0), (3.0, 5.0)])
        assert model.intercept == pytest.approx(5.0)
        assert model.slope == pytest.approx(0.0, abs=1e-15)
        assert model.r_squared == 1.0

    def test_vertical_data_is_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit([(1.0, 1.0), (1.0, 2.0)])

    def test_single_point_is_degenerate(self):
        with pytest.raises(DegenerateFitError):
            fit([(1.0, 1.0)])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_names_the_index(self, bad):
        with pytest.raises(ValueError, match="index 1"):
            fit([(1.0, 2.0), (bad, 3.0), (3.0, 4.0)])
        with pytest.raises(ValueError, match="index 0"):
            fit([(1.0, bad), (2.0, 3.0), (3.0, 4.0)])

    @pytest.mark.parametrize("points", [
        [(1e200, 1.0), (2e200, 3.0), (3e200, 4.0)],
        [(1e308, 1.0), (1.5e308, 3.0), (-1e308, 4.0)],
        [(1.0, 1e200), (2.0, 3e200), (3.0, -1e200)],
        [(1.0, 1e308), (2.0, -1e308), (3.0, 1e308)],
    ])
    def test_overflow_is_degenerate(self, points):
        with pytest.raises(DegenerateFitError, match="overflow"):
            fit(points)

    def test_residuals_orthogonal_to_workload(self):
        rng = random.Random(4)
        x = [rng.uniform(1e6, 5e7) for _ in range(40)]
        y = [100.0 + 3e-5 * xi + rng.gauss(0.0, 5.0) for xi in x]
        model = fit(list(zip(x, y)))
        weighted = [(yi - (model.intercept + model.slope * xi)) * xi for xi, yi in zip(x, y)]
        # normal equations: sum(resid * x) ~ 0 relative to sum(|resid * x|)
        assert abs(math.fsum(weighted)) <= 1e-6 * math.fsum(map(abs, weighted))
        assert 0.0 <= model.r_squared <= 1.0

    def test_r_squared_reflects_noise(self):
        rng = random.Random(8)
        x = [1.0 + 99.0 * i / 49 for i in range(50)]
        y = [2.0 + 0.5 * xi + rng.gauss(0.0, 0.1) for xi in x]
        assert fit(list(zip(x, y))).r_squared > 0.99


class TestPredict:
    @pytest.mark.parametrize("intercept,slope", [
        (math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0), (1.0, -math.inf)])
    def test_non_finite_coefficients_rejected(self, intercept, slope):
        with pytest.raises(ValueError, match="finite"):
            LinearModel(intercept, slope, 1.0, 2)

    def test_intercept_at_zero_workload(self):
        model = LinearModel(2393.0, 9.605e-6, 1.0, 2)
        assert model.predict(0.0) == 2393.0

    def test_reference_point(self):
        model = LinearModel(2393.0, 9.605e-6, 1.0, 2)
        assert model.predict(1e9) == pytest.approx(11998.0, rel=1e-12)

    def test_identity_model(self):
        model = LinearModel(0.0, 1.0, 1.0, 2)
        for x in (0.0, 17.5, 3e8):
            assert model.predict(x) == x


class TestErrorMetrics:
    def test_single_point(self):
        report = error_metrics([98.0], [100.0])
        assert report.precision == (98.0,)
        assert report.avg_error == 2.0
        assert report.max_error == -2.0

    def test_perfect_predictions(self):
        report = error_metrics([10.0, 20.0], [10.0, 20.0])
        assert report.precision == (100.0, 100.0)
        assert report.avg_error == 0.0
        assert report.max_error == 0.0

    def test_signed_max_takes_first_of_equal_magnitudes(self):
        report = error_metrics([90.0, 110.0], [100.0, 100.0])
        assert report.precision == (90.0, 90.0)
        assert report.avg_error == 10.0
        assert report.max_error == -10.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            error_metrics([1.0], [1.0, 2.0])

    @pytest.mark.parametrize("predicted,actual", [
        ([1.0, math.nan], [1.0, 2.0]),
        ([1.0, 2.0], [1.0, math.nan]),
        ([1.0, math.inf], [1.0, 2.0]),
        ([1.0, 2.0], [1.0, math.inf]),
    ])
    def test_non_finite_values_name_the_index(self, predicted, actual):
        with pytest.raises(ValueError, match="finite; violated at index 1"):
            error_metrics(predicted, actual)

    def test_nonpositive_actual_rejected(self):
        with pytest.raises(ValueError, match="index 1"):
            error_metrics([1.0, 1.0], [1.0, 0.0])

    @pytest.mark.parametrize("predicted,actual", [
        ([1.0, -1e308], [1.0, 1e308]),  # the error overflows
        ([1.0, 1e300], [1.0, 1e-10]),   # the precision overflows
    ])
    def test_overflowing_scores_name_the_index(self, predicted, actual):
        with pytest.raises(ValueError, match="overflows a float; violated at index 1"):
            error_metrics(predicted, actual)

    def test_overflowing_mean_error_rejected(self):
        with pytest.raises(ValueError, match="mean absolute error overflows"):
            error_metrics([-7e307, -7e307], [1e308, 1e308])

    @PROPERTY
    @given(scored_pairs())
    def test_matches_a_brute_force_reference(self, pairs):
        predicted, actual = pairs
        report = error_metrics(predicted, actual)
        errors = [p - a for p, a in zip(predicted, actual)]
        largest = max(abs(e) for e in errors)
        first_largest = next(e for e in errors if abs(e) == largest)
        assert (report.max_error, math.copysign(1.0, report.max_error)) \
            == (first_largest, math.copysign(1.0, first_largest))
        assert report.precision == tuple(100.0 * (1.0 - abs(e) / a)
                                         for e, a in zip(errors, actual))
        total = 0.0
        for e in errors:
            total += abs(e)
        assert report.avg_error == total / len(errors)


class TestTradeoff:
    CANDIDATES = [("A", 10.0, 0.5), ("B", 5.0, 0.9)]

    def test_alpha_one_selects_min_energy(self):
        assert tradeoff_select(self.CANDIDATES, 1.0) == "B"

    def test_alpha_zero_selects_min_loss(self):
        assert tradeoff_select(self.CANDIDATES, 0.0) == "A"

    def test_interior_alpha(self):
        # scores at alpha=0.5: A -> 5.25, B -> 2.95
        assert tradeoff_select(self.CANDIDATES, 0.5) == "B"

    def test_boundaries_ignore_the_other_axis(self):
        rng = random.Random(31)
        base = [(f"m{i}", rng.uniform(1, 100), rng.uniform(0, 1)) for i in range(10)]
        best_energy = min(base, key=lambda c: c[1])[0]
        best_loss = min(base, key=lambda c: c[2])[0]
        for _ in range(5):
            scrambled_losses = [(mid, e, rng.uniform(0, 1)) for mid, e, _ in base]
            assert tradeoff_select(scrambled_losses, 1.0) == best_energy
            scrambled_energy = [(mid, rng.uniform(1, 100), l) for mid, _, l in base]
            assert tradeoff_select(scrambled_energy, 0.0) == best_loss

    def test_tie_breaks_to_first(self):
        assert tradeoff_select([("X", 1.0, 1.0), ("Y", 1.0, 1.0)], 0.5) == "X"

    @PROPERTY
    @given(st.lists(st.tuples(st.sampled_from([0.0, 1.0, 2.0, 3.0]),
                              st.sampled_from([0.0, 0.5, 1.0])), min_size=1, max_size=8),
           st.sampled_from([0.0, 0.25, 0.5, 1.0]))
    def test_selects_the_first_of_least_score(self, values, alpha):
        candidates = [(f"m{i}", energy, loss) for i, (energy, loss) in enumerate(values)]
        scores = [alpha * energy + (1.0 - alpha) * loss for _, energy, loss in candidates]
        first_least = next(c for c, s in zip(candidates, scores) if s == min(scores))
        assert tradeoff_select(candidates, alpha) == first_least[0]

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            tradeoff_select([], 0.5)

    def test_alpha_out_of_range(self):
        with pytest.raises(ValueError):
            tradeoff_select(self.CANDIDATES, 1.5)

    @pytest.mark.parametrize("first", [math.nan, math.inf])
    def test_non_finite_score_rejected(self, first):
        with pytest.raises(ValueError, match="bad"):
            tradeoff_select([("bad", first, 0.1), ("good", 100.0, 0.2)], 0.5)


class TestReadTable:
    COLUMNS = {"model_id": str, "joules": finite_float}

    def test_extra_columns_ignored_and_order_follows_columns(self):
        # An extra column may be named twice; only a column read may not.
        rows = read_table("joules,note,model_id,note\n1.5,x,a,z\n2,y,b,w\n", self.COLUMNS)
        assert list(rows) == [("a", 1.5), ("b", 2.0)]

    def test_blank_lines_skipped_and_rows_keep_line_numbers(self):
        text = "model_id,joules\na,1\n\nb,2\n\nc,oops\n"
        rows = read_table(text, self.COLUMNS)
        assert next(rows) == ("a", 1.0)
        assert next(rows) == ("b", 2.0)
        with pytest.raises(ParseError, match="row 6"):
            next(rows)

    def test_missing_column_named(self):
        with pytest.raises(ParseError, match="joules"):
            list(read_table("model_id,energy\na,1\n", self.COLUMNS))

    def test_short_row_named(self):
        with pytest.raises(ParseError, match="row 3"):
            list(read_table("model_id,joules\na,1\nb\n", self.COLUMNS))

    @pytest.mark.parametrize("cell", ["nan", "inf", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, cell):
        with pytest.raises(ParseError, match="row 2.*finite"):
            list(read_table(f"model_id,joules\na,{cell}\n", self.COLUMNS))


class TestTraceParsing:
    def test_canonical_layout(self):
        samples = trace_samples("elapsed_s,power_w\n0.0,10\n5.0,10\n")
        assert integrate_power(samples) == 50.0

    def test_missing_column(self):
        with pytest.raises(TraceError, match="power_w"):
            list(trace_samples("elapsed_s,watts\n0,1\n1,1\n"))

    def test_bad_row_reports_its_number(self):
        with pytest.raises(TraceError, match="row 3"):
            list(trace_samples("elapsed_s,power_w\n0.0,1\nx,1\n"))

    def test_vendor_adapter_with_clock_timestamps(self):
        text = ("System Time,IA Power\n"
                "12:00:00:000,10\n"
                "12:00:02:500,10\n"
                "12:00:05:000,10\n")
        adapter = ColumnAdapter("System Time", "IA Power", "%H:%M:%S:%f")
        samples = list(trace_samples(text, adapter))
        assert samples == [(0.0, 10.0), (2.5, 10.0), (5.0, 10.0)]
        assert integrate_power(samples) == 50.0

    def test_ingest_streams_a_long_trace_in_constant_memory(self, tmp_path, capsys):
        n = 100_000
        path = tmp_path / "long__r0.csv"
        path.write_text("elapsed_s,power_w\n" + "".join(
            f"{i / 1000},{50 + i % 7}\n" for i in range(n)))
        tracemalloc.start()
        try:
            code = main(["ingest", str(path), "--trim-k", "0"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out
        assert code == 0
        # A trace held in memory takes ~10 MB at this length.
        assert peak < 2_000_000, f"peak {peak / 1e6:.1f} MB"
        want = 0.5 * math.fsum(((i + 1) / 1000 - i / 1000) * (100 + i % 7 + (i + 1) % 7)
                               for i in range(n - 1))
        assert f"long,r0,{want!r}\n" in out

    def test_adapter_config_parsing(self):
        adapter = parse_adapter('{"time_column": "t", "power_column": "p"}')
        assert adapter == ColumnAdapter("t", "p", "seconds")

    @pytest.mark.parametrize("doc,message", [
        ({"time_column": 3, "power_column": "p"}, "time_column: expected a non-empty string"),
        ({"time_column": "t", "power_column": "t"}, "power_column: 't' is also the time_column"),
        ({"time_column": "t", "power_column": "p", "time_format": "%Q"},
         "time_format: 'Q' is a bad directive"),
    ])
    def test_adapter_field_errors_name_the_key(self, doc, message):
        with pytest.raises(ParseError, match=f"^adapter config: {message}"):
            parse_adapter(json.dumps(doc))

    def test_adapter_unknown_key(self):
        with pytest.raises(ParseError, match="unit"):
            parse_adapter('{"time_column": "t", "power_column": "p", "unit": "W"}')


class TestSampleFiles:
    COLUMNS = {"model_id": str, "run_id": str, "joules": finite_float}

    def test_round_trip(self):
        samples = [EnergySample("m1", "r0", 12.5), EnergySample("m1", "r1", 13.0)]
        text = write_energy_samples(samples)
        assert [EnergySample(*row) for row in read_table(text, self.COLUMNS)] == samples

    def test_bad_header(self):
        with pytest.raises(ParseError):
            list(read_table("model,run,J\nm,r,1\n", self.COLUMNS))

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            EnergySample("m", "r", -1.0)

    @pytest.mark.parametrize("joules", [math.nan, math.inf])
    def test_non_finite_energy_rejected(self, joules):
        with pytest.raises(ValueError, match="finite"):
            EnergySample("m", "r", joules)


class TestFittedModelFiles:
    def test_round_trip(self):
        model = LinearModel(2393.0, 9.605e-6, 0.9987, 10)
        assert read_linear_model(write_linear_model(model)) == model

    def test_unknown_key_rejected(self):
        with pytest.raises(ParseError, match="bias"):
            read_linear_model('{"intercept_j": 1, "slope_j_per_to": 1, '
                              '"r_squared": 1, "n_points": 2, "bias": 0}')

    def test_missing_key_rejected(self):
        with pytest.raises(ParseError, match="n_points"):
            read_linear_model('{"intercept_j": 1, "slope_j_per_to": 1, '
                              '"r_squared": 1}')


class TestRecoveryProperty:
    def test_fit_recovers_planted_line_after_aggregation(self):
        """Plant a line over a spread-out workload grid, measure each
        point 60 times with 1% noise, aggregate with the trimmed mean,
        and the fit must land near the plant."""
        rng = random.Random(12)
        x = [2e8 + 1.1e9 * i / 9 for i in range(10)]
        a, b = 2393.0, 9.605e-6
        true = [a + b * xi for xi in x]
        sigma = 0.01 * math.fsum(true) / len(true)
        hits = 0
        for _ in range(100):
            points = []
            for xi, ei in zip(x, true):
                runs = [ei + sigma * rng.gauss(0.0, 1.0) for _ in range(60)]
                points.append((xi, trimmed_mean(runs, 5)))
            model = fit(points)
            if (abs(model.intercept - a) <= 0.05 * a
                    and abs(model.slope - b) <= 0.01 * b):
                hits += 1
        assert hits >= 95
