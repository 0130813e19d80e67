"""Benchmark for the transistor-ops analyzer CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is taken from ``src`` through
PYTHONPATH. Inputs are generated from the seed under ``.bench_work``.
An operation is one CLI call, in-process through
``transistor_ops.cli.main`` or, on ``cli-coldstart``, a fresh
``python -m transistor_ops`` child. Operations repeat in whole rounds,
each on inputs of its own, until ``--seconds`` have passed (at least one
round, so ``--seconds 0`` is a quick check); each output is checked in
full outside the timed region. At the end, every checker must reject
perturbed copies of an output it verified.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics from a traced run (see README.md). The last line of standard
output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_SAMPLES = 11
IMPORT_SAMPLES = 5
CHILD_TIMEOUT_S = 60

sys.path.insert(0, str(BENCH))

import checks as C  # noqa: E402
import workloads as W  # noqa: E402
from tracing import Tracer  # noqa: E402


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("TOS_COST_TABLE", None)
    return env


def _exit_code(e: SystemExit) -> int:
    return e.code if isinstance(e.code, int) else int(e.code is not None)


def written(op: W.Op) -> dict[str, str]:
    return {path.name: path.read_text(encoding="utf-8") for path in op.files}


class InProcess:
    """Calls ``cli.main`` in this process; CPU time is the process's, so
    it includes any helper thread."""

    def __init__(self):
        from transistor_ops import cli
        self.main = cli.main
        self.tracer: Tracer | None = None

    def __call__(self, op: W.Op):
        out, err = io.StringIO(), io.StringIO()
        call = self.main if self.tracer is None else (
            lambda argv: self.tracer.root(self.main, argv))
        # Every call starts from the same collector state, so garbage left
        # by the previous call or by the checks is not charged to this one.
        gc.collect()
        w0, c0 = time.perf_counter(), time.process_time()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = call(op.argv)
            except SystemExit as e:
                rc = _exit_code(e)
        c1, w1 = time.process_time(), time.perf_counter()
        return C.Result(rc, out.getvalue(), err.getvalue(), written(op)), w1 - w0, c1 - c0, 0


class Child:
    """Runs ``python -m transistor_ops`` once per call through
    spawner.py, which reads the child's own rusage: CPU of all its
    threads and its peak RSS."""

    def __init__(self, work: Path):
        self.out, self.err = work / "child.out", work / "child.err"
        self.spawner = subprocess.Popen([sys.executable, str(BENCH / "spawner.py")],
                                        stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True, env=child_env(), cwd=ROOT)

    def __call__(self, op: W.Op):
        request = {"argv": [sys.executable, "-m", "transistor_ops", *op.argv],
                   "stdout": str(self.out), "stderr": str(self.err)}
        self.spawner.stdin.write(json.dumps(request) + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        result = C.Result(reply["rc"], self.out.read_text(encoding="utf-8"),
                          self.err.read_text(encoding="utf-8"), written(op))
        return result, reply["wall"], reply["cpu"], reply["maxrss"]

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.wait()


class Session:
    """Rounds, attempts, failures and verified outputs across one run."""

    def __init__(self, workload: W.Workload, work: Path):
        self.workload, self.work = workload, work
        self.next_round = 0
        self.last_ops: list[W.Op] = []     # every round has the same operations
        self.verified: dict[int, tuple[W.Op, C.Result]] = {}
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.reported: set[int] = set()

    def check(self, index: int, op: W.Op, result: C.Result) -> None:
        self.attempted += 1
        try:
            op.check(result)
        except C.CheckFailed as e:
            self.failed += 1
            if index not in self.reported:
                self.reported.add(index)
                kind = "known fault" if op.known_fault else "FAILED"
                print(f"{self.workload.name}: {op.name}: {kind}: {e}", file=sys.stderr)
                if not op.known_fault:
                    self.errors.append(f"{op.name}: {e}")
            return
        self.verified.setdefault(index, (op, result))

    def rounds(self, runner, seconds: float, samples: list, between=None) -> int:
        """Whole rounds until ``seconds`` have passed, each on freshly
        generated inputs; appends (operation index, wall, cpu, rss, output
        bytes) per call to ``samples``. ``between(fraction of the time
        gone)`` runs after each round."""
        start = time.perf_counter()
        deadline = start + seconds
        rounds = 0
        while True:
            directory = self.work / f"round-{self.next_round}"
            directory.mkdir()
            self.last_ops = self.workload.round(self.next_round, directory)
            for index, op in enumerate(self.last_ops):
                result, wall, cpu, rss = runner(op)
                size = len(result.stdout.encode()) + sum(
                    len(text.encode()) for text in result.files.values())
                samples.append((index, wall, cpu, rss, size))
                self.check(index, op, result)
            shutil.rmtree(directory)
            self.next_round += 1
            rounds += 1
            now = time.perf_counter()
            if between is not None:
                between((now - start) / max(seconds, 1e-9))
            if now >= deadline:
                return rounds

    def self_test(self) -> None:
        """Each checker rejects every perturbed copy of the output it
        verified. Known-fault operations, which have no verified output
        yet, are tested on a well-formed rejection."""
        for index, last in enumerate(self.last_ops):
            op, sample = self.verified.get(index, (last, None))
            if sample is None and op.known_fault:
                sample = op.check.accepted_example()
                try:
                    op.check(sample)
                except C.CheckFailed as e:
                    self.errors.append(f"self-test {op.name}: rejects a good output: {e}")
            if sample is None:
                continue
            for label, bad in op.perturb(sample):
                try:
                    op.check(bad)
                except C.CheckFailed:
                    continue
                self.errors.append(f"self-test {op.name}: accepted a perturbed output "
                                   f"({label})")

    def prechecks(self) -> None:
        for precheck in self.workload.prechecks:
            try:
                precheck()
            except C.CheckFailed as e:
                self.errors.append(f"{precheck.__name__}: {e}")


def probe(argv: list[str] | None, importtime: bool = False) -> dict:
    """One set-up in a fresh interpreter (see probe.py). A set-up (with a
    warm-up ``argv``) runs on one CPU, for the reason given in
    :func:`confine_to_one_cpu`; an import probe runs unconfined."""
    cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
    cmd += [str(BENCH / "probe.py")] + (["--one-cpu", json.dumps(argv)] if argv is not None
                                        else [])
    proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(), cwd=ROOT,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    info = json.loads(proc.stdout.strip().splitlines()[-1])
    if importtime:
        info["numpy_us"] = next((int(m.group(1)) for m in re.finditer(
            r"^import time:\s*\d+ \|\s*(\d+) \|\s+numpy$", proc.stderr, re.M)), 0)
    return info


def per_op_median(samples: list, column: int, ops: int) -> list[float]:
    """Median of one sample column for each operation of the round. The
    per-call metrics average these over the round: a plain median over a
    round of unequal operations would sit in the gap between two of them
    and jump with noise."""
    return [statistics.median(s[column] for s in samples if s[0] == i) for i in range(ops)]


def confine_to_one_cpu() -> None:
    """Keep this process, and every child it starts, on one CPU.

    On a 2-vCPU VM the kernel at times keeps numpy's spinning BLAS worker
    on the main thread's CPU for minutes, and a cold call then takes ~40%
    longer than when the worker runs beside it. On one CPU OpenBLAS starts
    no worker, so cold wall times do not flip between the two modes. The
    worker stays visible in the traced run's import probes, which are not
    confined."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def timed_run(workload: W.Workload, work: Path, seconds: float) -> tuple[Session, dict]:
    if workload.cold:
        confine_to_one_cpu()
    session = Session(workload, work)
    setups = [probe(workload.warmup)["setup_s"]]

    def set_up_again(gone: float) -> None:
        # Set-up samples are spread over the run, so their median sees
        # the machine at several moments rather than one.
        if len(setups) < SETUP_SAMPLES and gone >= len(setups) / SETUP_SAMPLES:
            setups.append(probe(workload.warmup)["setup_s"])

    runner = Child(work) if workload.cold else InProcess()
    try:
        runner(W.Op("warm-up", workload.warmup, 0, None, None))
        session.prechecks()
        # The benchmark's own objects stay out of the collector's way.
        gc.collect()
        gc.freeze()
        samples: list[tuple] = []
        rounds = session.rounds(runner, seconds, samples, set_up_again)
    finally:
        if workload.cold:
            runner.close()
    while len(setups) < SETUP_SAMPLES:
        setups.append(probe(workload.warmup)["setup_s"])
    session.self_test()
    ops = session.last_ops
    walls = per_op_median(samples, 1, len(ops))
    rss_kb = (max(s[3] for s in samples) if workload.cold
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    metrics = {
        "setup_s": statistics.median(setups),
        "call_wall_p50_ms": statistics.fmean(walls) * 1e3,
        "call_cpu_p50_ms": statistics.fmean(per_op_median(samples, 2, len(ops))) * 1e3,
        "items_per_s": sum(op.items for op in ops) / sum(walls),
        "peak_rss_mb": rss_kb / 1024,
    }
    all_walls = sorted(s[1] for s in samples)
    tail = (f", p90 {all_walls[int(0.9 * len(all_walls))] * 1e3:.1f} ms"
            if len(all_walls) >= 40 else "")
    print(f"{workload.name}: {len(samples)} calls in {rounds} rounds; call wall "
          f"p50 {statistics.median(all_walls) * 1e3:.1f} ms{tail}", file=sys.stderr)
    return session, metrics


def traced_run(workload: W.Workload, work: Path, seconds: float,
               spans_path: Path) -> tuple[Session, dict]:
    """Half the time untraced, half traced, both in-process (cold-start
    calls too); the import is measured in fresh interpreters."""
    session = Session(workload, work)
    imports = [probe(None, importtime=True) for _ in range(IMPORT_SAMPLES)]
    runner = InProcess()
    runner(W.Op("warm-up", workload.warmup, 0, None, None))
    gc.collect()
    gc.freeze()
    plain: list[tuple] = []
    session.rounds(runner, seconds / 2, plain)
    tracer = Tracer()
    tracer.install()
    runner.tracer = tracer
    traced: list[tuple] = []
    try:
        rounds = session.rounds(runner, seconds / 2, traced)
    finally:
        tracer.uninstall()
        runner.tracer = None
    session.self_test()
    spans_path.write_text(json.dumps({"workload": workload.name, "fields": [
        "name", "parent", "call", "start", "end", "rows"], "spans": tracer.spans}))
    layers = tracer.layer_metrics(rounds)
    ops = len(session.last_ops)
    metrics = {
        "import.total_ms": statistics.median(i["import_s"] for i in imports) * 1e3,
        "import.numpy_ms": statistics.median(i["numpy_us"] for i in imports) / 1e3,
        "import.threads": statistics.median(i["threads"] for i in imports),
        "cli.output_bytes": sum(s[4] for s in traced) // rounds,
        "trace.overhead_ms": (statistics.fmean(per_op_median(traced, 1, ops))
                              - statistics.fmean(per_op_median(plain, 1, ops))) * 1e3,
    }
    metrics.update(layers)
    return session, metrics


def report(session: Session, metrics: dict, specs: list[dict]) -> dict:
    """The result object; metrics named in ``specs`` only, in their order.
    A metric the program no longer offers (a removed function) is absent."""
    out = {s["name"]: {"value": metrics[s["name"]], "unit": s["unit"]}
           for s in specs if s["name"] in metrics}
    for error in session.errors:
        print(f"error: {error}", file=sys.stderr)
    return {"correct": not session.errors, "attempted": session.attempted,
            "failed": session.failed, "metrics": out}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(W.BUILDERS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if not (SRC / "transistor_ops" / "cli.py").is_file():
        print(f"error: no package source at {SRC}; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("TOS_COST_TABLE", None)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    work = WORK / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        workload = W.BUILDERS[args.workload](work, args.seed)
        if args.trace:
            session, metrics = traced_run(
                workload, work, args.seconds,
                WORK / f"spans-{args.workload}-seed{args.seed}.json")
            specs = spec["per_layer"]
        else:
            session, metrics = timed_run(workload, work, args.seconds)
            specs = spec["end_to_end"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(report(session, metrics, specs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
