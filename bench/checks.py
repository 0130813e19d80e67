"""Output checkers and the perturbations that prove each one bites.

A checker is called with a :class:`Result` and raises :class:`CheckFailed`
when the output is wrong. Expected values come from
:mod:`reference` or from the generator's own samples, never from the
package. Checkers compute their expectations when they are built, so
the self-test can run many perturbed copies cheaply.

Every checker verifies every cell it is given: the generic perturbation
alters each field of a few rows, so a cell left unchecked shows up as a
self-test failure.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass, field, replace

import reference as R

TOS_REL = 1e-12
JOULES_REL = 1e-12
FIT_REL = 1e-9


class CheckFailed(Exception):
    pass


@dataclass(frozen=True)
class Result:
    rc: int
    stdout: str
    stderr: str = ""
    files: dict = field(default_factory=dict)


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def close(value: float, expected, rel: float, what: str) -> None:
    expected = float(expected)
    if expected == 0:
        expect(value == 0, f"{what}: got {value!r}, expected 0")
        return
    err = abs(value - expected) / abs(expected)
    expect(err <= rel, f"{what}: got {value!r}, expected {expected!r} (rel err {err:.3g})")


def number(text: str, what: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise CheckFailed(f"{what}: not a number: {text!r}") from None
    expect(math.isfinite(value), f"{what}: not finite: {text!r}")
    return value


def table(text: str, header: list[str]) -> list[list[str]]:
    """Parse one CSV table, requiring the exact header and a final newline."""
    expect(text.endswith("\n"), "output does not end with a newline")
    rows = list(csv.reader(io.StringIO(text)))
    expect(bool(rows) and rows[0] == header, f"header {rows[:1]} != {header}")
    for row in rows[1:]:
        expect(len(row) == len(header), f"row {row} has {len(row)} fields")
    return rows[1:]


def expect_rc(result: Result, rc: int) -> None:
    expect(result.rc == rc, f"exit code {result.rc}, expected {rc}; "
                            f"stderr: {result.stderr.strip()[:200]!r}")


# -- perturbations ---------------------------------------------------------

def _perturb_field(text: str) -> str:
    if re.fullmatch(r"-?\d+", text):
        return str(int(text) + 1)
    try:
        value = float(text)
    except ValueError:
        return text + "x" if text else "0"
    return repr(value * (1 + 1e-9)) if value else "1e-09"


def csv_perturbations(result: Result) -> list[tuple[str, Result]]:
    """Wrong exit code, a dropped row, and each field of the header and
    of the first, middle and last data rows altered in turn."""
    out = [("exit code", replace(result, rc=result.rc + 1))]
    lines = result.stdout.split("\n")
    filled = [i for i, line in enumerate(lines) if line]
    if not filled:
        return out
    dropped = lines[:filled[-1]] + lines[filled[-1] + 1:]
    out.append(("dropped last row", replace(result, stdout="\n".join(dropped))))
    picks = sorted({filled[0], filled[min(1, len(filled) - 1)],
                    filled[len(filled) // 2], filled[-1]})
    for i in picks:
        cells = lines[i].split(",")
        for j, cell in enumerate(cells):
            changed = cells[:j] + [_perturb_field(cell)] + cells[j + 1:]
            altered = lines[:i] + [",".join(changed)] + lines[i + 1:]
            out.append((f"line {i + 1} field {j + 1}",
                        replace(result, stdout="\n".join(altered))))
    return out


# -- analysis outputs ------------------------------------------------------

def family_member(base: dict, width: int, act: str) -> dict:
    """The sweep family rule: hidden layers resized to ``width`` and
    re-activated; first fan-in, last fan-out and last activation kept."""
    layers = base["layers"]
    depth = len(layers)
    member = []
    for i in range(depth):
        last = i == depth - 1
        member.append({"kind": "fully_connected",
                       "inputs": layers[0]["inputs"] if i == 0 else width,
                       "outputs": layers[-1]["outputs"] if last else width,
                       "activation": layers[-1]["activation"] if last else act})
    return dict(base, layers=member)


class SweepCheck:
    """``sweep`` rows against the closed form, plus the family's shape:
    TOs quadratic in width (third differences vanish) and sigmoid < gelu."""

    def __init__(self, base, widths, acts, level, scale, fitted, svg_name=None):
        self.widths, self.acts, self.fitted, self.svg_name = widths, acts, fitted, svg_name
        self.expected = []
        for w in widths:
            for a in acts:
                member = family_member(base, w, a)
                m = R.macs_at(member, level, scale)
                self.expected.append((str(w), a, float(R.tos(member, level, scale)),
                                      float(m), float(2 * m)))

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        rows = table(result.stdout, ["width", "activation", "tos", "macs", "flops",
                                     "predicted_j"])
        expect(len(rows) == len(self.expected),
               f"{len(rows)} rows, expected {len(self.expected)}")
        series: dict[str, list[float]] = {a: [] for a in self.acts}
        for row, (w, a, tos, macs, flops) in zip(rows, self.expected):
            where = f"width {w} {a}"
            expect(row[0] == w and row[1] == a, f"row {row[:2]} != {[w, a]}")
            got = number(row[2], f"{where} tos")
            close(got, tos, TOS_REL, f"{where} tos")
            close(number(row[3], f"{where} macs"), macs, TOS_REL, f"{where} macs")
            close(number(row[4], f"{where} flops"), flops, TOS_REL, f"{where} flops")
            if self.fitted is None:
                expect(row[5] == "", f"{where}: predicted_j without a fitted model")
            else:
                intercept, slope = self.fitted
                close(number(row[5], f"{where} predicted_j"), intercept + slope * got,
                      TOS_REL, f"{where} predicted_j")
            series[a].append(got)
        for a, values in series.items():
            scale = max(values)
            for i in range(len(values) - 3):
                d3 = values[i + 3] - 3 * values[i + 2] + 3 * values[i + 1] - values[i]
                expect(abs(d3) <= 1e-9 * scale,
                       f"{a}: TOs not quadratic in width (third difference {d3!r})")
        if "sigmoid" in series and "gelu" in series:
            for w, s, g in zip(self.widths, series["sigmoid"], series["gelu"]):
                expect(s < g, f"width {w}: sigmoid TOs {s} not below gelu {g}")
        if self.svg_name is not None:
            svg = result.files.get(self.svg_name, "")
            expect(svg.startswith("<svg") and svg.endswith("</svg>\n"), "svg is not closed")
            lines = re.findall(r'<polyline points="([^"]*)"', svg)
            expect(len(lines) == len(self.acts),
                   f"svg has {len(lines)} polylines, expected {len(self.acts)}")
            for points in lines:
                expect(len(points.split()) == len(self.widths), "svg polyline point count")
            labels = re.findall(r">(\w+)</text>", svg)
            expect(sorted(labels) == sorted(self.acts), f"svg labels {labels}")

    def perturb(self, result: Result) -> list[tuple[str, Result]]:
        out = csv_perturbations(result)
        if self.svg_name is not None:
            svg = result.files[self.svg_name]
            cut = svg.replace("<polyline", "<!-- polyline", 1)
            out.append(("svg polyline removed",
                        replace(result, files={**result.files, self.svg_name: cut})))
        return out


class EstimateCheck:
    """``estimate`` rows: TOs from the closed form (or the given TOs file)
    and ``predicted_j == intercept + slope * tos``."""

    def __init__(self, entries: list[tuple[str, float]], fitted):
        self.entries, self.fitted = entries, fitted

    @classmethod
    def for_models(cls, docs, level, scale, fitted):
        return cls([(d["name"], float(R.tos(d, level, scale))) for d in docs], fitted)

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        rows = table(result.stdout, ["model_id", "tos", "predicted_j"])
        expect(len(rows) == len(self.entries),
               f"{len(rows)} rows, expected {len(self.entries)}")
        intercept, slope = self.fitted
        for row, (name, tos) in zip(rows, self.entries):
            expect(row[0] == name, f"model_id {row[0]!r} != {name!r}")
            got = number(row[1], f"{name} tos")
            close(got, tos, TOS_REL, f"{name} tos")
            close(number(row[2], f"{name} predicted_j"), intercept + slope * got,
                  TOS_REL, f"{name} predicted_j")

    perturb = staticmethod(csv_perturbations)


class CountCheck:
    """``count`` rows, every one from the closed-form census."""

    def __init__(self, doc, level):
        c = R.census(doc, level)
        rows = []
        for i, counts in enumerate(c["forward"], start=1):
            rows.append(["per_instance", str(i), "forward", *counts])
        if level == "training":
            for i, counts in enumerate(c["backprop"], start=1):
                rows.append(["per_instance", str(i), "backprop", *counts])
            for i, counts in enumerate(c["update"], start=1):
                rows.append(["per_batch", str(i), "update", *counts])
        if level != "inference":
            rows.append(["per_instance", "all", "loss", *c["loss"]])
        rows.append(["per_instance", "all", "total", *c["per_instance"]])
        rows.append(["per_run", "all", "total", *c["per_run"]])
        self.expected = [[str(v) for v in row] for row in rows]

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        rows = table(result.stdout, ["scope", "layer", "phase", "n_add", "n_sub",
                                     "n_mul", "n_div", "n_root"])
        expect(len(rows) == len(self.expected),
               f"{len(rows)} rows, expected {len(self.expected)}")
        for row, exp in zip(rows, self.expected):
            expect(row == exp, f"census row {row} != {exp}")

    perturb = staticmethod(csv_perturbations)


class TosCheck:
    """``tos --raw`` rows in program order, each against the exact report."""

    def __init__(self, doc, level):
        report = R.tos_report(doc, level)
        order = [k for k in report if k[1].startswith("layer_")]
        order += [("per_instance", q) for q in ("forward_total", "backprop_total",
                                                "loss", "total")]
        order += [("per_batch", "update")]
        order += [("per_run", q) for q in ("forward_total", "backprop_total", "loss",
                                           "update_total", "total")]
        order += [("per_step", "total"), ("all", "nonlinear_share")]
        self.expected = [(scope, q, float(report[scope, q])) for scope, q in order]

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        rows = table(result.stdout, ["scope", "quantity", "value"])
        expect(len(rows) == len(self.expected),
               f"{len(rows)} rows, expected {len(self.expected)}")
        for row, (scope, q, value) in zip(rows, self.expected):
            expect(row[:2] == [scope, q], f"row {row[:2]} != {[scope, q]}")
            close(number(row[2], q), value, TOS_REL, f"{scope} {q}")

    perturb = staticmethod(csv_perturbations)


class OracleCheck:
    """``oracle`` tallies, segment by segment, equal the census."""

    def __init__(self, doc):
        c = R.census(doc, "training")
        rows = [["forward", *R.vadd(*c["forward"])], ["loss", *c["loss"]]]
        rows += [[f"backprop_layer_{i}", *b] for i, b in enumerate(c["backprop"], start=1)]
        rows += [["backprop", *R.vadd(*c["backprop"])], ["update", *c["update_total"]]]
        self.expected = [[str(v) for v in row] for row in rows]

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        rows = table(result.stdout, ["segment", "n_add", "n_sub", "n_mul", "n_div",
                                     "n_root"])
        expect(len(rows) == len(self.expected),
               f"{len(rows)} rows, expected {len(self.expected)}")
        for row, exp in zip(rows, self.expected):
            expect(row == exp, f"oracle tally {row} != census {exp}")

    perturb = staticmethod(csv_perturbations)


# -- measurement outputs ---------------------------------------------------

class IngestCheck:
    """Each run's joules equal ``fsum`` of the generator's own trapezoids;
    each ``trimmed_mean`` row equals the benchmark's own trim."""

    def __init__(self, joules: dict[tuple[str, str], float], trim_k: int):
        self.joules, self.trim_k = joules, trim_k

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        rows = table(result.stdout, ["model_id", "run_id", "joules"])
        keys = sorted(self.joules)
        models = sorted({m for m, _ in keys})
        expect(len(rows) == len(keys) + len(models),
               f"{len(rows)} rows, expected {len(keys) + len(models)}")
        by_model: dict[str, list[float]] = {m: [] for m in models}
        for row, key in zip(rows, keys):
            expect(tuple(row[:2]) == key, f"row {row[:2]} != {list(key)}")
            got = number(row[2], f"{key} joules")
            close(got, self.joules[key], JOULES_REL, f"{key} joules")
            by_model[key[0]].append(got)
        k = self.trim_k
        for row, model in zip(rows[len(keys):], models):
            expect(row[:2] == [model, "trimmed_mean"], f"row {row[:2]} is not "
                                                       f"{model}'s trimmed_mean")
            kept = sorted(by_model[model])[k:len(by_model[model]) - k]
            close(number(row[2], f"{model} trimmed_mean"), math.fsum(kept) / len(kept),
                  JOULES_REL, f"{model} trimmed_mean")

    perturb = staticmethod(csv_perturbations)


class FitCheck:
    """``fit`` recovers the line planted in exact points."""

    def __init__(self, intercept, slope, n_points):
        self.intercept, self.slope, self.n_points = intercept, slope, n_points

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        try:
            doc = json.loads(result.stdout, parse_constant=lambda c: float("nan"))
        except json.JSONDecodeError as e:
            raise CheckFailed(f"fitted model is not JSON: {e}") from None
        expect(isinstance(doc, dict) and sorted(doc) == sorted(
            ["intercept_j", "slope_j_per_to", "r_squared", "n_points"]),
            f"fitted model keys {sorted(doc) if isinstance(doc, dict) else doc!r}")
        close(doc["intercept_j"], self.intercept, FIT_REL, "intercept_j")
        close(doc["slope_j_per_to"], self.slope, FIT_REL, "slope_j_per_to")
        expect(abs(doc["r_squared"] - 1.0) <= 1e-12, f"r_squared {doc['r_squared']!r}")
        expect(doc["n_points"] == self.n_points,
               f"n_points {doc['n_points']!r} != {self.n_points}")

    def perturb(self, result: Result) -> list[tuple[str, Result]]:
        doc = json.loads(result.stdout)
        out = [("exit code", replace(result, rc=1))]
        for key, value in doc.items():
            bad = dict(doc, **{key: value + 1 if isinstance(value, int)
                               else value * (1 + 1e-6) + 1e-6})
            out.append((key, replace(result, stdout=json.dumps(bad, indent=2) + "\n")))
        return out


class CompareCheck:
    """``compare --raw``: precisions recomputed as 100 (1 - |p - a| / a),
    and the summary's min, max, mean absolute and largest signed error."""

    def __init__(self, ids, actual, pred_tos, pred_flops):
        self.ids, self.actual = ids, actual
        self.preds = {"tos": pred_tos, "flops": pred_flops}

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        head, sep, tail = result.stdout.partition("\n\n")
        expect(sep == "\n\n", "compare output lacks its summary table")
        rows = table(head + "\n", ["model_id", "actual_j", "tos_predicted_j",
                                   "tos_precision_pct", "flops_predicted_j",
                                   "flops_precision_pct"])
        expect(len(rows) == len(self.ids), f"{len(rows)} rows, expected {len(self.ids)}")
        for i, row in enumerate(rows):
            a = self.actual[i]
            expect(row[0] == self.ids[i], f"model_id {row[0]!r} != {self.ids[i]!r}")
            close(number(row[1], "actual_j"), a, 0.0, f"{row[0]} actual_j")
            for col, method in ((2, "tos"), (4, "flops")):
                p = self.preds[method][i]
                close(number(row[col], f"{method}_predicted_j"), p, 0.0,
                      f"{row[0]} {method}_predicted_j")
                close(number(row[col + 1], f"{method}_precision_pct"),
                      100.0 * (1.0 - abs(p - a) / a), TOS_REL,
                      f"{row[0]} {method}_precision_pct")
        summary = table(tail, ["method", "precision_min_pct", "precision_max_pct",
                               "avg_abs_error_j", "max_signed_error_j"])
        expect([r[0] for r in summary] == ["tos", "flops"], "summary methods")
        for row in summary:
            preds = self.preds[row[0]]
            errors = [p - a for p, a in zip(preds, self.actual)]
            precision = [100.0 * (1.0 - abs(e) / a) for e, a in zip(errors, self.actual)]
            largest = max(errors, key=abs)
            close(number(row[1], "min"), min(precision), TOS_REL, f"{row[0]} precision min")
            close(number(row[2], "max"), max(precision), TOS_REL, f"{row[0]} precision max")
            close(number(row[3], "avg"), math.fsum(map(abs, errors)) / len(errors),
                  TOS_REL, f"{row[0]} avg abs error")
            close(number(row[4], "max signed"), largest, TOS_REL, f"{row[0]} max signed")

    perturb = staticmethod(csv_perturbations)


class TradeoffCheck:
    """``tradeoff`` prints the brute-force argmin of a E + (1 - a) L."""

    def __init__(self, candidates, alpha):
        self.ids = [c[0] for c in candidates]
        scores = [alpha * e + (1 - alpha) * l for _, e, l in candidates]
        self.best = self.ids[scores.index(min(scores))]

    def __call__(self, result: Result) -> None:
        expect_rc(result, 0)
        expect(result.stdout == self.best + "\n",
               f"selected {result.stdout.strip()!r}, expected {self.best!r}")

    def perturb(self, result: Result) -> list[tuple[str, Result]]:
        other = next(i for i in self.ids if i != self.best)
        return [("exit code", replace(result, rc=1)),
                ("other candidate", replace(result, stdout=other + "\n"))]


SUBCOMMANDS = ("count", "tos", "ingest", "fit", "estimate", "sweep", "compare", "tradeoff")


def check_help(result: Result) -> None:
    """``--help`` prints the usage line naming every documented subcommand."""
    expect_rc(result, 0)
    expect(result.stdout.startswith("usage: tos-analyzer"), "help lacks its usage line")
    for name in SUBCOMMANDS:
        expect(re.search(rf"\b{name}\b", result.stdout) is not None,
               f"help does not list {name}")


def help_perturbations(result: Result) -> list[tuple[str, Result]]:
    out = [("exit code", replace(result, rc=2)),
           ("usage line", replace(result, stdout=result.stdout.replace("usage:", "Usage:")))]
    for name in SUBCOMMANDS:
        out.append((f"drop {name}", replace(
            result, stdout=re.sub(rf"\b{name}\b", "", result.stdout))))
    return out


class RejectCheck:
    """A bad input must exit 2 with a message naming the file and where
    in it the bad value sits (any of ``places``, e.g. ``row 4``)."""

    def __init__(self, filename: str, places: list[str]):
        self.filename, self.places = filename, places

    def __call__(self, result: Result) -> None:
        expect_rc(result, 2)
        expect(self.filename in result.stderr,
               f"error message does not name {self.filename}: {result.stderr.strip()!r}")
        expect(any(re.search(rf"\b{re.escape(p)}\b", result.stderr) for p in self.places),
               f"error message names none of {self.places}: {result.stderr.strip()!r}")

    def accepted_example(self) -> Result:
        return Result(2, "", f"error: /x/{self.filename}: {self.places[0]}: not finite\n")

    def perturb(self, result: Result) -> list[tuple[str, Result]]:
        return [("exit 0", replace(result, rc=0)),
                ("exit 3", replace(result, rc=3)),
                ("no file name", replace(result, stderr=result.stderr.replace(
                    self.filename, "input"))),
                ("no place", replace(result, stderr=f"error: {self.filename}: bad value\n"))]
