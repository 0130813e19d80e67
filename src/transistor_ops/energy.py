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
from itertools import pairwise
from operator import mul
from typing import IO, Any, Callable, Iterable, Iterator, NamedTuple, Sequence

from .model import (
    FieldError,
    ParseError,
    Value,
    as_count,
    as_name,
    as_number,
    check_keys,
    left_sum,
    parse_json_object,
    placed,
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


def _open_table(source: str | IO[str], names: Iterable[str], error=ParseError):
    """A CSV reader past the header, the header's width and the column of each name."""
    reader = csv.reader(io.StringIO(source) if isinstance(source, str) else source)
    header = next(reader, [])
    missing = [name for name in names if name not in header]
    if missing:
        raise error(f"header must name column(s) {', '.join(missing)}")
    repeated = [name for name in names if header.count(name) > 1]
    if repeated:
        raise error(f"header names column(s) {', '.join(repeated)} more than once")
    return reader, len(header), [header.index(name) for name in names]


def read_table(source: str | IO[str],
               columns: dict[str, Callable[[str], Any]]) -> Iterator[tuple]:
    """Stream the rows of a CSV table, converted column by column.

    ``source`` is the table's text or an open file. The header must name
    every key of ``columns`` once; other columns are ignored. Each non-blank
    row has the header's width and yields one tuple of converted cells in
    the order of ``columns``.
    A converter signals a bad cell by raising ``ValueError``; any bad row
    raises :class:`ParseError` that names its line as ``row N``.
    """
    reader, width, indices = _open_table(source, columns)
    cells = list(zip(indices, columns.values()))
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise ParseError(f"row {reader.line_num}: has {len(row)} field(s), "
                             f"the header has {width}")
        try:
            values = tuple([convert(row[i]) for i, convert in cells])
        except ValueError as e:
            raise ParseError(f"row {reader.line_num}: {e}") from None
        yield values


def write_table(rows: Iterable[Sequence[str]]) -> str:
    """The CSV text of ``rows``, one line each, every line ending in ``\\n``."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(rows)
    return out.getvalue()


class DegenerateFitError(ValueError):
    """The fit points cannot determine a line."""


def _checked(rows: Iterable, place: Callable[[int], str], ti: int = 0, pi: int = 1,
             seconds: Callable[[Any], float] = float,
             width: int = 2) -> Iterator[tuple[float, float]]:
    """Yield (seconds, watts) from cells ``ti`` and ``pi`` of each non-blank
    row under the trace rules, written only here; ``place(i)`` names where
    sample i came from in the :class:`TraceError` a broken rule raises."""
    before, n = -math.inf, 0
    for row in rows:
        if not row:
            continue
        if len(row) != width:
            raise TraceError(f"{place(n)}: has {len(row)} field(s), the header has {width}")
        try:
            t, p = seconds(row[ti]), float(row[pi])
        except ValueError as e:
            raise TraceError(f"{place(n)}: {e}") from None
        if not (before < t < math.inf and 0.0 <= p < math.inf):
            raise TraceError(f"{place(n)}: " + (
                "time and power must be finite" if not (math.isfinite(t) and math.isfinite(p))
                else "time must be strictly increasing" if t <= before
                else "power must be non-negative"))
        yield t, p
        before, n = t, n + 1
    if n < 2:
        raise TraceError("a power trace needs at least 2 samples")


def _real_pairs(samples: Iterable) -> Iterator[tuple[float, float]]:
    """Each sample, which must be exactly two real numbers (int or float,
    not bool); any other raises :class:`TraceError` naming its index."""
    for i, sample in enumerate(samples):
        try:
            t, p = sample
        except (TypeError, ValueError):
            t = p = None
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (t, p)):
            raise TraceError(f"sample index {i}: expected two real numbers, got {sample!r}")
        yield t, p


def _sum(terms: Iterable[float]) -> float:
    """Exactly rounded sum (``math.fsum``); NaN where it overflows."""
    try:
        return math.fsum(terms)
    except (OverflowError, ValueError):  # ValueError: inf + -inf
        return math.nan


def integrate_power(samples: Iterable[tuple[float, float]]) -> float:
    """Energy in joules by the trapezoidal rule, exactly rounded, over
    (seconds, watts) samples. Each sample must be two real numbers, and
    samples are checked under the trace rules as they are summed; a
    broken rule raises :class:`TraceError` naming the sample index. A
    stream from :func:`trace_samples` is checked already, and its errors,
    which name the file row, pass through. Raises :class:`TraceError`
    when the energy overflows a float."""
    if getattr(samples, "gi_code", None) is not _checked.__code__:
        samples = _checked(_real_pairs(samples), "sample index {}".format)
    try:
        joules = 0.5 * math.fsum((t1 - t0) * (p0 + p1)
                                 for (t0, p0), (t1, p1) in pairwise(samples))
    except OverflowError:  # the partial sums of finite terms overflow
        joules = math.inf
    if not math.isfinite(joules):
        raise TraceError("the energy overflows a float")
    return joules


class ColumnAdapter(Value):
    """Maps a vendor power-log layout onto the canonical trace: two
    distinct columns, one for time and one for power.

    ``time_format`` is either ``"seconds"`` for numeric elapsed seconds
    or a strptime pattern that reads back what strftime writes with it;
    pattern timestamps are converted to seconds elapsed since the first row.
    """

    __slots__ = ("time_column", "power_column", "time_format")

    def __init__(self, time_column: str, power_column: str,
                 time_format: str = "seconds") -> None:
        time_column = as_name(time_column, "time_column")
        if as_name(power_column, "power_column") == time_column:
            raise FieldError(f"power_column: {power_column!r} is also the time_column")
        if as_name(time_format, "time_format") != "seconds":
            from datetime import datetime  # only adapter timestamps need it
            try:
                datetime.strptime(datetime(2001, 2, 3, 4, 5, 6, 7).strftime(time_format),
                                  time_format)
            except ValueError as e:
                raise FieldError(f"time_format: {e}") from None
        self._fill(time_column, power_column, time_format)


CANONICAL_TRACE = ColumnAdapter("elapsed_s", "power_w")


def parse_adapter(text: str) -> ColumnAdapter:
    doc = parse_json_object(text, "adapter config")
    check_keys(doc, set(ColumnAdapter.__slots__), {"time_column", "power_column"},
               "adapter config")
    return placed(lambda field: f"adapter config: {field}", ColumnAdapter, **doc)


def load_adapter(path) -> ColumnAdapter:
    return read_document(path, lambda fh: parse_adapter(fh.read()))


def _seconds_since_first(time_format: str) -> Callable[[str], float]:
    """Cell converter: strptime timestamps to seconds since the first row."""
    from datetime import datetime  # only adapter timestamps need it
    first = None

    def convert(text: str) -> float:
        nonlocal first
        stamp = datetime.strptime(text.strip(), time_format)
        if first is None:
            first = stamp
        return (stamp - first).total_seconds()

    return convert


def trace_samples(source: str | IO[str],
                  adapter: ColumnAdapter | None = None) -> Iterator[tuple[float, float]]:
    """Stream the checked (seconds, watts) samples of a trace CSV (its text
    or an open file): canonical layout, or a vendor layout through
    ``adapter``. Nothing is kept per row; a row that breaks a trace rule
    raises :class:`TraceError` naming its line as ``row N``."""
    adapter = adapter or CANONICAL_TRACE
    seconds = (float if adapter.time_format == "seconds"
               else _seconds_since_first(adapter.time_format))
    reader, width, (ti, pi) = _open_table(
        source, (adapter.time_column, adapter.power_column), TraceError)
    return _checked(reader, lambda i: f"row {reader.line_num}", ti, pi, seconds, width)


def read_power_trace(path, adapter: ColumnAdapter | None = None) -> float:
    """Energy in joules of the trace file at ``path``: its samples streamed
    through :func:`trace_samples` into :func:`integrate_power`. Errors
    name the file."""
    return read_document(path, lambda fh: integrate_power(trace_samples(fh, adapter)))


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
    mean = left_sum(kept) / len(kept)
    if not math.isfinite(mean):
        raise ValueError("the trimmed mean overflows a float")
    return mean


class EnergySample(Value):
    __slots__ = ("model_id", "run_id", "joules")

    def __init__(self, model_id: str, run_id: str, joules: float) -> None:
        joules = as_number(joules, "joules")
        if joules < 0:
            raise FieldError(f"joules: must be non-negative, got {joules}")
        self._fill(as_name(model_id, "model_id"), as_name(run_id, "run_id"), joules)


def write_energy_samples(samples: Iterable[EnergySample]) -> str:
    return write_table([("model_id", "run_id", "joules"),
                        *((s.model_id, s.run_id, repr(s.joules)) for s in samples)])


class LinearModel(Value):
    """Affine workload-to-energy map with fit diagnostics."""

    __slots__ = ("intercept", "slope", "r_squared", "n_points")

    def __init__(self, intercept: float, slope: float, r_squared: float,
                 n_points: int) -> None:
        r_squared = as_number(r_squared, "r_squared")
        if not 0.0 <= r_squared <= 1.0:
            raise FieldError(f"r_squared: must lie in [0, 1], got {r_squared}")
        if as_count(n_points, "n_points") < 2:
            raise FieldError(f"n_points: a linear model needs at least 2 fit points, "
                             f"got {n_points}")
        self._fill(as_number(intercept, "intercept"), as_number(slope, "slope"),
                   r_squared, n_points)

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


# The fitted-model document key of each LinearModel field.
_FITTED_KEYS = {"intercept": "intercept_j", "slope": "slope_j_per_to",
                "r_squared": "r_squared", "n_points": "n_points"}


def write_linear_model(model: LinearModel) -> str:
    doc = {key: getattr(model, field) for field, key in _FITTED_KEYS.items()}
    return json.dumps(doc, indent=2) + "\n"


def read_linear_model(text: str) -> LinearModel:
    doc = parse_json_object(text, "fitted model")
    keys = set(_FITTED_KEYS.values())
    check_keys(doc, keys, keys, "fitted model")
    return placed(lambda field: f"fitted model: {_FITTED_KEYS[field]}", LinearModel,
                  *(doc[key] for key in _FITTED_KEYS.values()))


def load_linear_model(path) -> LinearModel:
    return read_document(path, lambda fh: read_linear_model(fh.read()))


class ErrorReport(NamedTuple):
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
    avg_error = left_sum(abs(e) for e in errors) / len(errors)
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
