"""Power-trace ingestion, workload-to-energy regression and scoring.

The measurement side of the pipeline: instantaneous power traces are
integrated into joules with the trapezoidal rule (exact on piecewise
linear power), repeated runs are aggregated with a trimmed mean, and an
ordinary-least-squares line maps transistor-operation workloads to
energy. Closed-form OLS keeps the two-parameter fit deterministic.

File formats:

* canonical power trace: CSV with header ``elapsed_s,power_w``;
* vendor logs: adapted via a column-mapping config (timestamp column
  name plus format, power column name);
* energy samples: CSV with header ``model_id,run_id,joules``;
* fitted model: JSON with keys ``intercept_j``, ``slope_j_per_to``,
  ``r_squared``, ``n_points``.

Independent trace files can be ingested concurrently; fitting,
prediction and scoring are pure functions over immutable values.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from datetime import datetime
from itertools import islice
from operator import add, mul, sub
from typing import IO, Any, Callable, Iterable, Iterator, Sequence

from .model import (
    ParseError,
    as_count,
    as_number,
    check_keys,
    parse_json_object,
    read_document,
)


class TraceError(ParseError):
    """A power trace is malformed (unreadable, too short, non-finite,
    or with non-monotone time)."""


def finite_float(text: str) -> float:
    """CSV cell converter: a finite float."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def read_table(source: str | IO[str],
               columns: dict[str, Callable[[str], Any]]) -> Iterator[tuple]:
    """Stream the rows of a CSV table, converted column by column.

    ``source`` is the table's text or an open file. The header must name
    every key of ``columns``; other columns are ignored. Each non-blank
    row yields one tuple of converted cells in the order of ``columns``.
    A converter signals a bad cell by raising ``ValueError``; any bad row
    raises :class:`ParseError` that names its line as ``row N``.
    """
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    header = next(reader, [])
    missing = [name for name in columns if name not in header]
    if missing:
        raise ParseError(f"header must name column(s) {', '.join(missing)}")
    cells = [(header.index(name), convert) for name, convert in columns.items()]
    for row in reader:
        if not row:
            continue
        try:
            values = tuple([convert(row[i]) for i, convert in cells])
        except IndexError:
            raise ParseError(f"row {reader.line_num}: has {len(row)} field(s), "
                             f"the header has {len(header)}") from None
        except ValueError as e:
            raise ParseError(f"row {reader.line_num}: {e}") from None
        yield values


class DegenerateFitError(ValueError):
    """The fit points cannot determine a line."""


@dataclass(frozen=True)
class PowerTrace:
    """Time-stamped instantaneous power samples.

    Times are seconds and strictly increasing; power is watts and
    non-negative; at least two samples are required.
    """

    times: tuple[float, ...]
    watts: tuple[float, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "watts", tuple(float(p) for p in self.watts))
        if len(self.times) != len(self.watts):
            raise TraceError("times and watts differ in length")
        if len(self.times) < 2:
            raise TraceError("a power trace needs at least 2 samples")
        for i, (t, p) in enumerate(zip(self.times, self.watts)):
            if not (math.isfinite(t) and math.isfinite(p)):
                raise TraceError(f"time and power must be finite; "
                                 f"violated at sample index {i}")
            if i and t <= self.times[i - 1]:
                raise TraceError(f"time must be strictly increasing; "
                                 f"violated at sample index {i}")
            if p < 0:
                raise TraceError(f"power must be non-negative; "
                                 f"violated at sample index {i}")


def _sum(terms: Iterable[float]) -> float:
    """Exactly rounded sum (``math.fsum``); NaN where it overflows."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # ValueError: inf + -inf
        return math.nan


def integrate_power(trace: PowerTrace) -> float:
    """Energy in joules by the trapezoidal rule, exactly rounded.

    Raises :class:`TraceError` when the energy overflows a float.
    """
    t, p = trace.times, trace.watts
    dt = map(sub, islice(t, 1, None), t)
    joules = 0.5 * _sum(map(mul, dt, map(add, p, islice(p, 1, None))))
    if not math.isfinite(joules):
        raise TraceError("the energy overflows a float")
    return joules


@dataclass(frozen=True)
class ColumnAdapter:
    """Maps a vendor power-log layout onto the canonical trace.

    ``time_format`` is either ``"seconds"`` for numeric elapsed seconds
    or a strptime pattern; pattern timestamps are converted to seconds
    elapsed since the first row.
    """

    time_column: str
    power_column: str
    time_format: str = "seconds"


CANONICAL_TRACE = ColumnAdapter("elapsed_s", "power_w")


def parse_adapter(text: str) -> ColumnAdapter:
    doc = parse_json_object(text, "adapter config")
    check_keys(doc, {"time_column", "power_column", "time_format"},
               {"time_column", "power_column"}, "adapter config")
    for key, value in doc.items():
        if not isinstance(value, str):
            raise ParseError(f"adapter config: {key} must be a string")
    return ColumnAdapter(**doc)


def load_adapter(path) -> ColumnAdapter:
    return read_document(path, lambda fh: parse_adapter(fh.read()))


def _seconds_since_first(time_format: str) -> Callable[[str], float]:
    """Cell converter: strptime timestamps to seconds since the first row."""
    first: datetime | None = None

    def convert(text: str) -> float:
        nonlocal first
        stamp = datetime.strptime(text.strip(), time_format)
        if first is None:
            first = stamp
        return (stamp - first).total_seconds()

    return convert


def parse_power_trace(source: str | IO[str],
                      adapter: ColumnAdapter | None = None) -> PowerTrace:
    """Parse a trace CSV (its text or an open file): canonical layout, or a
    vendor layout through ``adapter``."""
    adapter = adapter or CANONICAL_TRACE
    if adapter.time_format == "seconds":
        seconds = finite_float
    else:
        seconds = _seconds_since_first(adapter.time_format)
    columns = {adapter.time_column: seconds, adapter.power_column: finite_float}
    times: list[float] = []
    watts: list[float] = []
    try:
        for t, p in read_table(source, columns):
            times.append(t)
            watts.append(p)
    except ParseError as e:
        raise TraceError(str(e)) from None
    return PowerTrace(tuple(times), tuple(watts))


def read_power_trace(path, adapter: ColumnAdapter | None = None) -> PowerTrace:
    return read_document(path, lambda fh: parse_power_trace(fh, adapter))


def trimmed_mean(samples: Sequence[float], k: int = 5) -> float:
    """Mean after dropping the k largest and k smallest samples.

    Requires more than 2k samples. Tie handling is immaterial: any
    choice of which duplicates to drop yields the same mean.
    """
    if k < 0:
        raise ValueError(f"k must be non-negative, got {k}")
    n = len(samples)
    if n <= 2 * k:
        raise ValueError(f"need more than {2 * k} samples to trim "
                         f"{k} from each end, got {n}")
    kept = sorted(float(s) for s in samples)[k:n - k]
    mean = sum(kept) / len(kept)
    if not math.isfinite(mean):
        raise ValueError("the trimmed mean overflows a float")
    return mean


@dataclass(frozen=True)
class EnergySample:
    model_id: str
    run_id: str
    joules: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.joules) and self.joules >= 0):
            raise ValueError(f"joules must be finite and non-negative, got {self.joules}")


def write_energy_samples(samples: Iterable[EnergySample]) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["model_id", "run_id", "joules"])
    for s in samples:
        writer.writerow([s.model_id, s.run_id, repr(float(s.joules))])
    return out.getvalue()


@dataclass(frozen=True)
class LinearModel:
    """Affine workload-to-energy map with fit diagnostics."""

    intercept: float
    slope: float
    r_squared: float
    n_points: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.intercept) and math.isfinite(self.slope)):
            raise ValueError(f"intercept and slope must be finite, got "
                             f"{self.intercept} and {self.slope}")
        if self.n_points < 2:
            raise ValueError("a linear model needs at least 2 fit points")
        if not 0.0 <= self.r_squared <= 1.0:
            raise ValueError(f"r_squared must lie in [0, 1], got {self.r_squared}")

    def predict(self, tos: float) -> float:
        return self.intercept + self.slope * tos


def fit(points: Sequence[tuple[float, float]]) -> LinearModel:
    """Closed-form ordinary least squares over (workload, joules) pairs,
    with exactly rounded sums.

    Raises :class:`DegenerateFitError` when the points cannot determine a
    line or a sum overflows a float.
    """
    n = len(points)
    if n < 2:
        raise DegenerateFitError(f"need at least 2 points, got {n}")
    xs = [float(x) for x, _ in points]
    ys = [float(y) for _, y in points]
    for i, (x, y) in enumerate(zip(xs, ys)):
        if not (math.isfinite(x) and math.isfinite(y)):
            raise ValueError(f"fit points must be finite; violated at index {i}")
    x_mean = _sum(xs) / n
    y_mean = _sum(ys) / n
    dx = [x - x_mean for x in xs]
    dy = [y - y_mean for y in ys]
    sxx = _sum(d * d for d in dx)
    if sxx == 0.0:
        raise DegenerateFitError("all workload values are equal; "
                                 "the slope is undetermined")
    slope = _sum(map(mul, dx, dy)) / sxx
    intercept = y_mean - slope * x_mean
    sst = _sum(d * d for d in dy)
    ssr = _sum(r * r for r in (y - (intercept + slope * x) for x, y in zip(xs, ys)))
    if not all(map(math.isfinite, (sxx, slope, intercept, sst, ssr))):
        raise DegenerateFitError("the least-squares sums overflow a float")
    r_squared = 1.0 if sst == 0.0 else min(1.0, max(0.0, 1.0 - ssr / sst))
    return LinearModel(intercept=intercept, slope=slope,
                       r_squared=r_squared, n_points=n)


def write_linear_model(model: LinearModel) -> str:
    doc = {
        "intercept_j": model.intercept,
        "slope_j_per_to": model.slope,
        "r_squared": model.r_squared,
        "n_points": model.n_points,
    }
    return json.dumps(doc, indent=2) + "\n"


def read_linear_model(text: str) -> LinearModel:
    doc = parse_json_object(text, "fitted model")
    keys = {"intercept_j", "slope_j_per_to", "r_squared", "n_points"}
    check_keys(doc, keys, keys, "fitted model")
    try:
        return LinearModel(*(as_number(doc[key], key) for key in
                             ("intercept_j", "slope_j_per_to", "r_squared")),
                           as_count(doc["n_points"], "n_points"))
    except ValueError as e:
        raise ParseError(f"fitted model: {e}") from None


def load_linear_model(path) -> LinearModel:
    return read_document(path, lambda fh: read_linear_model(fh.read()))


@dataclass(frozen=True)
class ErrorReport:
    """Prediction quality: per-model precision percentages, mean absolute
    error, and the signed error of largest magnitude (first occurrence
    wins ties)."""

    precision: tuple[float, ...]
    avg_error: float
    max_error: float


def error_metrics(predicted: Sequence[float], actual: Sequence[float]) -> ErrorReport:
    if len(predicted) != len(actual):
        raise ValueError(f"length mismatch: {len(predicted)} predictions "
                         f"vs {len(actual)} actuals")
    if not predicted:
        raise ValueError("need at least one prediction")
    for i, (p, a) in enumerate(zip(predicted, actual)):
        if not (math.isfinite(p) and math.isfinite(a)):
            raise ValueError(f"predicted and actual energies must be finite; "
                             f"violated at index {i}")
        if a <= 0:
            raise ValueError(f"actual energy must be positive; "
                             f"violated at index {i}")
    errors = [float(p) - float(a) for p, a in zip(predicted, actual)]
    precision = tuple(100.0 * (1.0 - abs(e) / float(a))
                      for e, a in zip(errors, actual))
    for i, (e, p) in enumerate(zip(errors, precision)):
        if not (math.isfinite(e) and math.isfinite(p)):
            raise ValueError(f"the error or the precision overflows a float; "
                             f"violated at index {i}")
    avg_error = sum(abs(e) for e in errors) / len(errors)
    if not math.isfinite(avg_error):
        raise ValueError("the mean absolute error overflows a float")
    max_error = errors[0]
    for e in errors[1:]:
        if abs(e) > abs(max_error):
            max_error = e
    return ErrorReport(precision=precision, avg_error=avg_error, max_error=max_error)


def tradeoff_select(candidates: Sequence[tuple[str, float, float]],
                    alpha: float) -> str:
    """Pick the candidate minimizing alpha * energy + (1 - alpha) * loss.

    Raw, unnormalized values are scored; ties break to the earliest
    candidate.
    """
    if not candidates:
        raise ValueError("candidate list is empty")
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must lie in [0, 1], got {alpha}")
    best_id, best_score = None, None
    for model_id, energy, loss in candidates:
        score = alpha * float(energy) + (1.0 - alpha) * float(loss)
        if not math.isfinite(score):
            raise ValueError(f"candidate {model_id!r}: score is not finite")
        if best_score is None or score < best_score:
            best_id, best_score = model_id, score
    return best_id
