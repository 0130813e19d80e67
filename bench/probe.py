"""One set-up in a fresh interpreter: import the CLI, count the process's
threads, then make one warm-up call.

    python3 bench/probe.py                         # import only
    python3 bench/probe.py --one-cpu '["count", "m.json"]'

``--one-cpu`` first confines the process to one CPU (see
``run.confine_to_one_cpu``). Prints ``{"import_s", "setup_s", "threads",
"rc"}``; both times run from the import. Run with PYTHONPATH pointing at
``src``.
"""

import os
import sys

if sys.argv[1:2] == ["--one-cpu"] and hasattr(os, "sched_setaffinity"):
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

import time  # noqa: E402

T0 = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import threading  # noqa: E402


def main() -> int:
    from transistor_ops import cli
    t_import = time.perf_counter()
    tasks = "/proc/self/task"
    threads = len(os.listdir(tasks)) if os.path.isdir(tasks) else threading.active_count()
    rc = 0
    if len(sys.argv) > 2:
        with contextlib.redirect_stdout(io.StringIO()):
            try:
                rc = cli.main(json.loads(sys.argv[2]))
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else int(e.code is not None)
    t_end = time.perf_counter()
    print(json.dumps({"import_s": t_import - T0, "setup_s": t_end - T0,
                      "threads": threads, "rc": rc}))
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
