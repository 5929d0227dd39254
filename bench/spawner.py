"""Start ops for the benchmark and measure them.

Reads one JSON request per line on stdin, ``{"cmd": [...], "cwd": ...,
"stdout": path, "stderr": path, "timeout": seconds}``, runs the command
and answers with one JSON line ``{"code", "wall", "cpu", "rss_kb"}``.

It exists because a child's peak RSS, as ``wait4`` reports it, starts
from the size of the process that forked it: Linux carries the
high-water mark across ``exec``.  Forked from the benchmark process,
whose memory grows with the outputs it checks, every op would report at
least the benchmark's own size.  This process stays small, so the RSS it
reports is the op's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["cmd"], cwd=req["cwd"], stdout=out, stderr=err, stdin=subprocess.DEVNULL
        )
        timer = threading.Timer(req["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return {
        "code": code,
        "wall": wall,
        "cpu": usage.ru_utime + usage.ru_stime,
        "rss_kb": usage.ru_maxrss,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
