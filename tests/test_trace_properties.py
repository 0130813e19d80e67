"""Properties of trace reading: any valid trace file integrates to the
exactly rounded trapezoid sum, and a single bad row is named by its line."""

import contextlib
import io
import math
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from transistor_ops.cli import main
from transistor_ops.energy import TraceError, integrate_power, trace_samples

SETTINGS = settings(derandomize=True, max_examples=40, deadline=None)

EXTRA_COLUMNS = ["temp_c", "gpu_util", "note"]


@st.composite
def trace_files(draw):
    """A valid trace as (samples, text, file line of each sample, the time
    and power column positions, the column names in file order)."""
    start = draw(st.floats(-1e3, 1e3))
    steps = draw(st.lists(st.tuples(st.floats(1e-3, 100.0), st.floats(0.0, 1e4)),
                          min_size=2, max_size=30))
    samples, t = [], start
    for dt, p in steps:
        samples.append((t, p))
        t += dt
    extras = draw(st.lists(st.sampled_from(EXTRA_COLUMNS), unique=True))
    columns = draw(st.permutations(["elapsed_s", "power_w", *extras]))
    blank_after = draw(st.sets(st.integers(0, len(samples) - 1)))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    lines, line_of = [",".join(columns)], []
    for i, (t, p) in enumerate(samples):
        cells = {"elapsed_s": repr(t), "power_w": repr(p)}
        cells.update((name, str(draw(st.integers(0, 99)))) for name in extras)
        lines.append(",".join(cells[name] for name in columns))
        line_of.append(len(lines))
        if i in blank_after:
            lines.append("")
    text = newline.join(lines) + newline
    return samples, text, line_of, columns


def reference_energy(samples):
    return 0.5 * math.fsum((t1 - t0) * (p0 + p1)
                           for (t0, p0), (t1, p1) in zip(samples, samples[1:]))


def ingest_joules(text):
    """The energy `ingest` reports for ``text`` written as a trace file."""
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "m__r0.csv"
        path.write_bytes(text.encode("utf-8"))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["ingest", str(path), "--trim-k", "0"])
    assert code == 0
    (row,) = [line for line in out.getvalue().splitlines() if line.startswith("m,r0,")]
    return float(row.split(",")[2])


@SETTINGS
@given(trace_files())
def test_valid_trace_integrates_to_the_fsum_reference(trace):
    samples, text, _, _ = trace
    want = reference_energy(samples)
    assert ingest_joules(text) == want
    assert integrate_power(trace_samples(text)) == want


@SETTINGS
@given(trace_files(), st.sampled_from(["nan", "negative power", "repeated time",
                                       "missing field"]), st.data())
def test_one_corrupt_row_is_named_by_its_line(trace, corruption, data):
    samples, text, line_of, columns = trace
    first = 1 if corruption == "repeated time" else 0
    k = data.draw(st.integers(first, len(samples) - 1))
    lines = text.splitlines()
    cells = lines[line_of[k] - 1].split(",")
    ti, pi = columns.index("elapsed_s"), columns.index("power_w")
    if corruption == "nan":
        cells[data.draw(st.sampled_from([ti, pi]))] = "nan"
    elif corruption == "negative power":
        cells[pi] = "-1.5"
    elif corruption == "repeated time":
        cells[ti] = repr(samples[k - 1][0])
    else:
        cells = cells[:max(ti, pi)]
    lines[line_of[k] - 1] = ",".join(cells)
    with pytest.raises(TraceError, match=rf"^row {line_of[k]}: "):
        list(trace_samples("\n".join(lines) + "\n"))
