"""Starts the benchmark's commands and reports each one's wall clock and
peak RSS.

On Linux a child's ru_maxrss also counts the process image it was exec'd
from, so a command started straight from run.py, which holds the
generated inputs, would report run.py's memory. Commands start from this
small process instead.

Protocol: one JSON line per command on stdin, {"argv", "env", "cwd",
"log"}; one JSON line back on stdout, {"wall", "maxrss_kib", "code"}.
Exits at the end of its input.
"""

import json
import os
import subprocess
import sys
import time


def main() -> None:
    for line in sys.stdin:
        job = json.loads(line)
        with open(job["log"], "w", encoding="utf-8") as log:
            t0 = time.perf_counter()
            proc = subprocess.Popen(job["argv"], stdout=log, stderr=subprocess.STDOUT,
                                    env=job["env"], cwd=job["cwd"])
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"wall": wall, "maxrss_kib": usage.ru_maxrss,
                          "code": proc.returncode}), flush=True)


if __name__ == "__main__":
    main()
