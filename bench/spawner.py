"""Starts the cold-start children of run.py, one at a time, and reports
each child's own rusage.

    python3 bench/spawner.py    # one JSON request per line on stdin

Linux counts in a child's ``ru_maxrss`` the RSS of the process that
started it, as it stood when the child called exec. Started from this
small process rather than from the benchmark, which holds numpy and the
generated inputs, a child's peak RSS is its own.

A request is ``{"argv", "stdout", "stderr"}`` (the two are file paths);
the reply is ``{"rc", "wall", "cpu", "maxrss"}``: exit code, wall and CPU
seconds (user + sys, every thread) and peak RSS in KiB. Children inherit
this process's environment, directory and CPU affinity. The spawner ends
at the end of its input.
"""

import json
import os
import subprocess
import sys
import threading
import time

CHILD_TIMEOUT_S = 60


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            w0 = time.perf_counter()
            proc = subprocess.Popen(request["argv"], stdout=out, stderr=err)
            timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - w0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"rc": proc.returncode, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "maxrss": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
