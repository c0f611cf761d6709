"""Spawn the benchmark's commands from a small process, one at a time.

Linux starts a new program's ``ru_maxrss`` at the peak RSS of the process
that spawned it, so a child of the benchmark process, which holds parsed
outputs and dense reference matrices, would report that process's peak as
its own.  This launcher keeps almost nothing in memory.  It reads one JSON
request per line on stdin (``argv``, ``stdout``, ``stderr``, ``timeout``),
runs the command to completion, and answers with one JSON line holding the
wall time from spawn to reap and the child's own CPU time, peak RSS and exit
code from ``os.wait4``.  It exits when stdin closes.
"""

import json
import os
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "code": proc.returncode,
    }


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
