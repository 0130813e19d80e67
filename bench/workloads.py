"""Seeded inputs and the operations of each workload.

A workload is a *round* of CLI operations of fixed number and size. A run
repeats whole rounds, so each run attempts the same mix and a failing
operation is the same share of every run. Each round gets inputs of its
own, generated before the round from the seed and the round's index:
no input file, model or layer shape is used twice in a run, so a cache
kept across calls cannot turn repetition into a false gain. The warm-up
call runs on inputs of its own that are never timed. The inputs of the
three bad-input operations do not depend on the seed at all.

The program only sees the generated files; each operation carries the
checker that knows what it must print.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C

ACTIVATIONS = ["none", "sigmoid", "tanh", "gelu"]
FORMATS = ["fp16", "fp32", "fp64"]
WARM = -1                  # round index of the warm-up's inputs


@dataclass
class Op:
    name: str
    argv: list[str]
    items: int
    check: Callable
    perturb: Callable
    known_fault: bool = False
    files: tuple[Path, ...] = ()   # files the call writes, checked with its output


@dataclass
class Workload:
    name: str
    cold: bool                 # run each operation as a fresh child process
    round: Callable            # round(k, directory) -> the operations of round k
    warmup: list[str]          # argv of the untimed warm-up call
    prechecks: list[Callable] = field(default_factory=list)


class Bands:
    """Disjoint bands of layer widths, one per operation of a run, taken in
    a seeded order: no layer shape recurs between operations, and every
    round draws from the same spread of sizes. Band 0 is the warm-up's."""

    POOL = 1024

    def __init__(self, name: str, seed: int, per_round: int):
        self.order = random.Random(f"{name}:{seed}:bands").sample(
            range(1, self.POOL + 1), self.POOL)
        self.per_round = per_round

    def __call__(self, k: int, j: int) -> int:
        if k == WARM:
            return 0
        i = k * self.per_round + j
        return self.order[i % self.POOL] + self.POOL * (i // self.POOL)


def _rng(name: str, seed: int, k: int) -> random.Random:
    return random.Random(f"{name}:{seed}:{'warm' if k == WARM else k}")


def _training(rng) -> dict:
    dataset_len = rng.randint(500, 5000)
    return {"dataset_len": dataset_len,
            "batch_size": rng.choice([8, 16, 32, 64, 128]),
            "epochs": rng.randint(10, 3000)}


def _fc_layers(dims, acts) -> list[dict]:
    return [{"kind": "fully_connected", "inputs": dims[i], "outputs": dims[i + 1],
             "activation": acts[i]} for i in range(len(dims) - 1)]


def _fc_doc(name, dims, acts, fmt, training) -> dict:
    return {"name": name, "float_format": fmt, "loss": "mse", "training": training,
            "layers": _fc_layers(dims, acts)}


def _write_json(path: Path, doc) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return str(path)


def _fitted(rng, directory: Path) -> tuple[str, tuple[float, float]]:
    intercept, slope = rng.uniform(1000.0, 3000.0), rng.uniform(2e-6, 2e-5)
    path = _write_json(directory / "fitted.json", {"intercept_j": intercept,
                                                   "slope_j_per_to": slope,
                                                   "r_squared": 0.99, "n_points": 12})
    return path, (intercept, slope)


# -- sweep-family ----------------------------------------------------------

SWEEP_BASES = (("a", 4, 100), ("b", 6, 60))   # label, depth, widths per round
SWEEP_ACTS = ["sigmoid", "tanh", "gelu"]
SWEEP_BAND = 128                               # widths per band


def _sweep_op(directory: Path, rng, fmt: str, label: str, depth: int, count: int,
              band: int, fitted_path: str, fitted) -> tuple[Op, dict]:
    dims = [rng.randint(2, 12)] + [4] * (depth - 1) + [rng.randint(1, 4)]
    base = _fc_doc(f"base-{label}", dims, ["sigmoid"] * depth, fmt, _training(rng))
    path = _write_json(directory / f"base-{label}.json", base)
    lo = 4 + SWEEP_BAND * band + rng.randint(0, SWEEP_BAND - count)
    widths = list(range(lo, lo + count))
    svg = directory / f"sweep-{label}.svg"
    check = C.SweepCheck(base, widths, SWEEP_ACTS, "training", "step", fitted, svg.name)
    return Op(f"sweep-{label}", [
        "sweep", path, "--widths", f"{lo}..{lo + count - 1}",
        "--activations", ",".join(SWEEP_ACTS), "--level", "training", "--scale", "step",
        "--fitted-model", fitted_path, "--svg", str(svg), "--raw"],
        items=count * len(SWEEP_ACTS), check=check, perturb=check.perturb,
        files=(svg,)), base


def sweep_family(work: Path, seed: int) -> Workload:
    """The paper's experiment: a width x activation family at training
    level, per optimizer step. Two bases (4 and 6 layers) per round, each
    over widths of its own band, all in fp32 (the float format changes
    the work: fp64 sweeps run ~8% faster). The warm-up is a 4-width
    sweep."""
    fmt = "fp32"
    bands = Bands("sweep-family", seed, len(SWEEP_BASES))

    def make_round(k: int, directory: Path) -> list[Op]:
        rng = _rng("sweep-family", seed, k)
        fitted_path, fitted = _fitted(rng, directory)
        return [_sweep_op(directory, rng, fmt, label, depth, count, bands(k, j),
                          fitted_path, fitted)[0]
                for j, (label, depth, count) in enumerate(SWEEP_BASES)]

    warm = work / "warm"
    warm.mkdir()
    rng = _rng("sweep-family", seed, WARM)
    fitted_path, fitted = _fitted(rng, warm)
    warmup, base = _sweep_op(warm, rng, fmt, "warm", 4, 4, 0, fitted_path, fitted)

    def oracle_agrees() -> None:
        """The closed-form census equals the scalar executor's tallies on
        the width-4 member of each activation."""
        from transistor_ops.model import parse_model
        from transistor_ops.oracle import run_training_step
        import reference as R
        for act in SWEEP_ACTS:
            doc = C.family_member(base, 4, act)
            model = parse_model(json.dumps(doc))
            tally = run_training_step(model, [0.3] * doc["layers"][0]["inputs"],
                                      [0.5] * doc["layers"][-1]["outputs"])
            census = R.census(doc, "training")
            got = [tally.forward.as_tuple(), tally.loss.as_tuple()]
            got += [b.as_tuple() for b in tally.backprop_layers]
            got += [u.as_tuple() for u in tally.update_layers]
            want = [R.vadd(*census["forward"]), census["loss"]]
            want += census["backprop"] + census["update"]
            C.expect(got == want, f"oracle tallies differ from the census for {act}")

    return Workload("sweep-family", False, make_round, warmup.argv, [oracle_agrees])


# -- model-zoo -------------------------------------------------------------

ZOO_BAND = 100                                 # widths per band


def _zoo_round(directory: Path, rng, band_fc: int, band_conv: int) -> list[Op]:
    fitted_path, fitted = _fitted(rng, directory)
    fc_docs, conv_docs = [], []
    # Layer counts are fixed so every round does the same amount of work.
    for i in range(12):
        n = 16 + 3 * i
        dims = [ZOO_BAND * band_fc + rng.randint(2, 96) for _ in range(n + 1)]
        acts = [rng.choice(ACTIVATIONS) for _ in range(n)]
        fc_docs.append(_fc_doc(f"zoo-fc-{i:02d}", dims, acts, rng.choice(FORMATS),
                               _training(rng)))
    for i in range(12):
        layers = []
        for _ in range(1 + i % 4):
            layers.append({"kind": "convolutional", "out_width": rng.randint(2, 16),
                           "kernel": rng.randint(1, 5), "in_channels": rng.randint(1, 16),
                           "out_channels": rng.randint(1, 32),
                           "activation": rng.choice(ACTIVATIONS)})
        last = layers[-1]
        dims = [last["out_width"] ** 2 * last["out_channels"]]
        dims += [ZOO_BAND * band_conv + rng.randint(2, 64) for _ in range(1 + i % 6)]
        layers += _fc_layers(dims, [rng.choice(ACTIVATIONS) for _ in dims[1:]])
        conv_docs.append({"name": f"zoo-cv-{i:02d}", "float_format": rng.choice(FORMATS),
                          "loss": "mse", "training": _training(rng), "layers": layers})
    ops = []
    for label, docs, level, scale in (("fc", fc_docs, "training", "step"),
                                      ("conv", conv_docs, "validation", "run")):
        paths = [_write_json(directory / f"{d['name']}.json", d) for d in docs]
        check = C.EstimateCheck.for_models(docs, level, scale, fitted)
        ops.append(Op(f"estimate-{label}", [
            "estimate", *paths, "--fitted", fitted_path, "--level", level,
            "--scale", scale, "--raw"],
            items=sum(len(d["layers"]) for d in docs), check=check, perturb=check.perturb))
    return ops


def model_zoo(work: Path, seed: int) -> Workload:
    """Deep fully-connected stacks (training, per step) and mixed
    convolutional + fully-connected models (validation, per run): little
    sharing between layers, every float format, the convolution branch.
    The dense widths of each operation come from a band of their own."""
    bands = Bands("model-zoo", seed, 2)

    def make_round(k: int, directory: Path) -> list[Op]:
        return _zoo_round(directory, _rng("model-zoo", seed, k), bands(k, 0), bands(k, 1))

    warm = work / "warm"
    warm.mkdir()
    return Workload("model-zoo", False, make_round, make_round(WARM, warm)[0].argv)


# -- ingest-traces ---------------------------------------------------------

VENDOR_START_US = 10 * 3600 * 10**6    # 10:00:00 on the vendor clock
TRACE_CHUNK = 10_000
VENDOR_ADAPTER = {"time_column": "System Time", "power_column": "IA Power_0(Watt)",
                  "time_format": "%H:%M:%S:%f"}


def _fixed_width_rows(fields: list[tuple[np.ndarray, int]], seps: bytes) -> bytes:
    """CSV text of rows made of zero-padded decimal fields: field ``i``
    (non-negative integers, digit count) followed by the byte ``seps[i]``."""
    rows = len(fields[0][0])
    columns = []
    for (values, width), sep in zip(fields, seps):
        powers = 10 ** np.arange(width - 1, -1, -1, dtype=np.int64)
        columns.append((values[:, None] // powers % 10 + ord("0")).astype(np.uint8))
        columns.append(np.full((rows, 1), sep, dtype=np.uint8))
    return np.hstack(columns).tobytes()


def write_trace(path: Path, rng, rows: int, vendor: bool = False) -> float:
    """Write a power trace and return math.fsum of its trapezoids over the
    generated samples. Times are whole microseconds from the first
    sample, power whole milliwatts, so each printed decimal reads back as
    exactly the sample's value. A vendor trace writes the times as clock
    stamps next to an extra temperature column. Samples are drawn and
    written a chunk at a time, so the generator's own memory stays small
    next to the program's."""
    draw = np.random.default_rng(rng.getrandbits(64))
    level_mw = rng.randint(20_000, 80_000)
    last_us, last, parts = 0, None, []
    with open(path, "wb") as fh:
        fh.write(b"System Time,IA Power_0(Watt),Package Temp_0(C)\n" if vendor
                 else b"elapsed_s,power_w\n")
        for start in range(0, rows, TRACE_CHUNK):
            n = min(TRACE_CHUNK, rows - start)
            steps = draw.integers(5_000, 15_001, n)
            if start == 0:
                steps[0] = 0
            us = last_us + np.cumsum(steps)
            mw = level_mw + draw.integers(-5_000, 5_001, n)
            power = [(mw // 1000, 2), (mw % 1000, 3)]
            if vendor:
                clock = VENDOR_START_US + us
                tenths = draw.integers(400, 901, n)
                fh.write(_fixed_width_rows(
                    [(clock // 3_600_000_000, 2), (clock // 60_000_000 % 60, 2),
                     (clock // 1_000_000 % 60, 2), (clock % 1_000_000, 6), *power,
                     (tenths // 10, 2), (tenths % 10, 1)], b":::,.,.\n"))
            else:
                fh.write(_fixed_width_rows([(us // 1_000_000, 4), (us % 1_000_000, 6),
                                            *power], b".,.\n"))
            times, watts = us / 10**6, mw / 1000
            if last is not None:
                times, watts = np.r_[last[0], times], np.r_[last[1], watts]
            parts += ((times[1:] - times[:-1]) * (watts[:-1] + watts[1:]) * 0.5).tolist()
            last_us, last = int(us[-1]), (times[-1], watts[-1])
    return math.fsum(parts)


LONG_ROWS = 150_000


def _ingest_op(directory: Path, rng, models: int, runs: int, rows: int,
               long_rows: int) -> Op:
    """``ingest --trim-k 3`` of ``models`` x ``runs`` traces of ``rows``
    rows, plus one more run of ``long_rows`` rows for the first model."""
    trim_k = 3
    joules, paths, items = {}, [], 0
    for m in range(models):
        model_id = f"model-{m}-{rng.randint(0, 999):03d}"
        sizes = [rows] * runs + ([long_rows] if m == 0 and long_rows else [])
        for r, n in enumerate(sizes):
            path = directory / f"{model_id}__run{r:02d}.csv"
            joules[model_id, f"run{r:02d}"] = write_trace(path, rng, n)
            paths.append(str(path))
            items += n
    check = C.IngestCheck(joules, trim_k)
    return Op("ingest", ["ingest", *paths, "--trim-k", str(trim_k)],
              items=items, check=check, perturb=check.perturb)


def ingest_traces(work: Path, seed: int) -> Workload:
    """Canonical traces only: 3 models x 8 runs x 2000 rows plus one run
    of LONG_ROWS rows, trim-k 3. Reading, validating and integrating
    traces, no census; the long trace sets the peak memory. The warm-up
    ingests 7 traces of 500 rows."""

    def make_round(k: int, directory: Path) -> list[Op]:
        return [_ingest_op(directory, _rng("ingest-traces", seed, k), 3, 8, 2000, LONG_ROWS)]

    warm = work / "warm"
    warm.mkdir()
    warmup = _ingest_op(warm, _rng("ingest-traces", seed, WARM), 1, 7, 500, 0)
    return Workload("ingest-traces", False, make_round, warmup.argv)


# -- cli-coldstart ---------------------------------------------------------

def _bad_inputs(directory: Path) -> list[Op]:
    """Three inputs the CLI must reject with exit 2 and a message naming
    the file and the row or key. Fixed content, independent of the seed."""
    bad = directory / "bad"
    bad.mkdir()
    model = _write_json(bad / "fixed.json", _fc_doc(
        "fixed", [4, 4, 1], ["sigmoid", "sigmoid"], "fp32",
        {"dataset_len": 100, "batch_size": 10, "epochs": 1}))
    trace = bad / "nan__run0.csv"
    trace.write_text("elapsed_s,power_w\n0.0,10.0\n0.5,11.0\n1.0,nan\n1.5,12.0\n")
    table = bad / "nan_table.json"
    table.write_text('{"fa": NaN}\n')
    pairs = bad / "nan_pairs.csv"
    pairs.write_text("tos,joules\n1000,2500.0\n2000,nan\n3000,2700.0\n")
    ops = []
    for name, argv, path, places in (
            ("bad-trace-nan", ["ingest", str(trace), "--trim-k", "0"], trace,
             ["row 4", "index 2"]),
            ("bad-cost-table-nan", ["tos", model, "--cost-table", str(table)], table,
             ["fa"]),
            ("bad-fit-nan", ["fit", str(pairs)], pairs, ["row 3"])):
        check = C.RejectCheck(path.name, places)
        ops.append(Op(name, argv, 1, check, check.perturb, known_fault=True))
    return ops


def cli_coldstart(work: Path, seed: int) -> Workload:
    """Every subcommand once per round, each a fresh ``python -m
    transistor_ops`` on small inputs, plus three bad inputs. The warm-up
    is ``--help``."""
    return Workload("cli-coldstart", True, lambda k, directory: _coldstart_round(
        directory, _rng("cli-coldstart", seed, k)), ["--help"])


def _coldstart_round(directory: Path, rng) -> list[Op]:
    fitted_path, fitted = _fitted(rng, directory)

    def small(name, hidden=None):
        dims = [rng.randint(2, 6)] + [hidden or rng.randint(3, 8) for _ in range(2)]
        dims.append(rng.randint(1, 3))
        acts = [rng.choice(ACTIVATIONS) for _ in range(3)]
        training = {"dataset_len": rng.randint(100, 2000), "batch_size": 16,
                    "epochs": rng.randint(1, 50)}
        return _fc_doc(name, dims, acts, "fp32", training)

    doc, doc2 = small("small-a"), small("small-b")
    path = _write_json(directory / "small-a.json", doc)
    path2 = _write_json(directory / "small-b.json", doc2)
    sweep_base = small("small-base", hidden=4)
    sweep_path = _write_json(directory / "small-base.json", sweep_base)
    ops = [Op("help", ["--help"], 1, C.check_help, C.help_perturbations)]

    def op(name, argv, check):
        ops.append(Op(name, argv, 1, check, check.perturb))

    op("count", ["count", path, "--level", "training"], C.CountCheck(doc, "training"))
    op("tos", ["tos", path, "--level", "training", "--raw"], C.TosCheck(doc, "training"))
    op("estimate-models", ["estimate", path, path2, "--fitted", fitted_path,
                           "--level", "training", "--scale", "step", "--raw"],
       C.EstimateCheck.for_models([doc, doc2], "training", "step", fitted))

    tos_rows = [(f"pre-{i}", rng.uniform(1e6, 1e9)) for i in range(5)]
    tos_file = directory / "tos.csv"
    tos_file.write_text("model_id,tos\n" + "".join(f"{m},{t!r}\n" for m, t in tos_rows))
    op("estimate-tos-file", ["estimate", "--tos-file", str(tos_file), "--fitted",
                             fitted_path, "--raw"], C.EstimateCheck(tos_rows, fitted))

    # Exact points on a planted line: integer workloads, a dyadic slope
    # and an integer intercept keep every joules value exactly representable.
    intercept, slope = rng.randint(100, 5000), rng.randint(1, 4096) / 2**30
    xs = rng.sample(range(10**6, 10**9), 12)
    pairs = directory / "pairs.csv"
    pairs.write_text("tos,joules\n" + "".join(f"{x},{intercept + slope * x!r}\n"
                                               for x in xs))
    op("fit", ["fit", str(pairs)], C.FitCheck(intercept, slope, len(xs)))

    ids = [f"cmp-{i}" for i in range(6)]
    actual = [rng.uniform(1000.0, 5000.0) for _ in ids]
    pred_tos = [a * (1 + rng.uniform(-0.1, 0.1)) for a in actual]
    pred_flops = [a * (1 + rng.uniform(-0.3, 0.3)) for a in actual]
    files = []
    for name, col, values in (("pred_tos.csv", "predicted_j", pred_tos),
                              ("pred_flops.csv", "predicted_j", pred_flops),
                              ("actual.csv", "joules", actual)):
        (directory / name).write_text(f"model_id,{col}\n" + "".join(
            f"{i},{v!r}\n" for i, v in zip(ids, values)))
        files.append(str(directory / name))
    op("compare", ["compare", *files, "--raw"],
       C.CompareCheck(ids, actual, pred_tos, pred_flops))

    candidates = [(f"cand-{i}", rng.uniform(100.0, 5000.0), rng.uniform(0.0, 1.0))
                  for i in range(8)]
    alpha = rng.uniform(0.0, 0.002)
    cand_file = directory / "candidates.csv"
    cand_file.write_text("model_id,energy_j,loss\n" + "".join(
        f"{m},{e!r},{l!r}\n" for m, e, l in candidates))
    op("tradeoff", ["tradeoff", str(cand_file), "--alpha", repr(alpha)],
       C.TradeoffCheck(candidates, alpha))

    lo = rng.randint(4, 8)
    widths = list(range(lo, lo + 4))
    op("sweep", ["sweep", sweep_path, "--widths", f"{lo}..{lo + 3}", "--level", "training",
                 "--scale", "step", "--raw"],
       C.SweepCheck(sweep_base, widths, ["sigmoid", "tanh", "gelu"], "training", "step",
                    None))

    adapter = _write_json(directory / "adapter.json", VENDOR_ADAPTER)
    joules, traces = {}, []
    for r in range(3):
        trace = directory / f"vendor__run{r}.csv"
        joules["vendor", f"run{r}"] = write_trace(trace, rng, 40, vendor=True)
        traces.append(str(trace))
    op("ingest-vendor", ["ingest", *traces, "--adapter", adapter, "--trim-k", "1"],
       C.IngestCheck(joules, 1))

    op("oracle", ["oracle", path], C.OracleCheck(doc))
    return ops + _bad_inputs(directory)


BUILDERS = {"sweep-family": sweep_family, "model-zoo": model_zoo,
            "ingest-traces": ingest_traces, "cli-coldstart": cli_coldstart}
