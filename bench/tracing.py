"""Spans around the package's public functions, recorded from outside.

Each traced function is replaced, in every ``transistor_ops`` module that
holds a reference to it, by a wrapper that records a span (name, parent,
workload call, start, end, rows). Replacing the reference where it is
looked up catches the CLI's calls and the package's internal ones alike
(``analyze`` calling ``count_model``). A function that no longer exists
is skipped and its metrics are reported as absent.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

# (module, function) pairs whose spans give the per-layer metrics.
LAYERS = [
    ("model", "parse_model_file"),
    ("model", "model_family"),
    ("basic_ops", "count_model"),
    ("circuits", "analyze"),
    ("circuits", "load_cost_table"),
    ("flops", "flops_model"),
    ("energy", "read_power_trace"),
    ("energy", "integrate_power"),
    ("energy", "trimmed_mean"),
    ("energy", "write_energy_samples"),
    ("energy", "read_linear_model"),
    ("energy", "fit"),
    ("energy", "error_metrics"),
    ("energy", "tradeoff_select"),
    ("oracle", "run_training_step"),
]

ROOT = "cli"


def _rows(result) -> int:
    """Samples in a returned power trace; 0 for anything else."""
    times = getattr(result, "times", None)
    return len(times) if isinstance(times, tuple) else 0


class Tracer:
    """In-memory span store. ``spans`` rows are
    [name, parent index, call index, start, end, rows]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.call = -1
        self.patches: list[tuple] = []
        self.installed: list[str] = []

    def run(self, name, fn, *args, **kwargs):
        index = len(self.spans)
        span = [name, self.stack[-1] if self.stack else -1, self.call,
                time.perf_counter(), 0.0, 0]
        self.spans.append(span)
        self.stack.append(index)
        try:
            result = fn(*args, **kwargs)
        finally:
            span[4] = time.perf_counter()
            self.stack.pop()
        span[5] = _rows(result)
        return result

    def root(self, fn, *args):
        """One workload call: the root span every layer span hangs under."""
        self.call += 1
        return self.run(ROOT, fn, *args)

    def install(self) -> None:
        for module, name in LAYERS:
            try:
                home = importlib.import_module(f"transistor_ops.{module}")
            except ImportError:
                continue
            original = getattr(home, name, None)
            if original is None:
                continue
            label = f"{module}.{name}"
            self.installed.append(label)

            def wrapper(*args, _fn=original, _label=label, **kwargs):
                return self.run(_label, _fn, *args, **kwargs)

            for mod in list(sys.modules.values()):
                mod_name = getattr(mod, "__name__", "")
                if mod_name != "transistor_ops" and not mod_name.startswith("transistor_ops."):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self.patches.append((mod, attr, original))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self.patches):
            setattr(mod, attr, original)
        self.patches.clear()

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per layer: ``self_ms``, the median over workload calls that
        reach the layer of its summed self time; ``calls`` and ``rows``
        per round (exact, since every round is the same)."""
        child_time = [0.0] * len(self.spans)
        for name, parent, call, start, end, rows in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        per_call: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        calls: dict[str, int] = defaultdict(int)
        rows_total: dict[str, int] = defaultdict(int)
        for i, (name, parent, call, start, end, rows) in enumerate(self.spans):
            per_call[name][call] += end - start - child_time[i]
            calls[name] += 1
            rows_total[name] += rows
        out = {}
        for label in [ROOT] + self.installed:
            selfs = list(per_call[label].values()) if label in per_call else []
            out[f"{label}.self_ms"] = statistics.median(selfs) * 1e3 if selfs else 0.0
            out[f"{label}.calls"] = _per_round(calls[label], rounds)
            out[f"{label}.rows"] = _per_round(rows_total[label], rounds)
        return out


def _per_round(total: int, rounds: int):
    """An exact count per round; a fraction here means rounds differed."""
    return total // rounds if total % rounds == 0 else total / rounds
