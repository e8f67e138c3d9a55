"""Spawns the benchmark's child processes on request and reports their
exit status, wall time, CPU time and peak resident set.

Linux copies the spawning process's peak resident set into a child's
ru_maxrss when the child execs.  The main benchmark process (run.py) grows
as it parses outputs, so children spawned by it directly would all report at
least its peak.  This helper starts while small, stays small, and spawns
every child instead.

Protocol: one JSON request per stdin line,
{"argv": [...], "cwd": dir, "stdin": path, "stdout": path, "stderr": path},
answered by one JSON line {"exit": int, "wall": s, "cpu": s, "rss_kb": int}.
The helper exits when its stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def main() -> int:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdin"], "rb") as inp, open(req["stdout"], "wb") as out, \
                open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], stdin=inp, stdout=out, stderr=err,
                                    cwd=req["cwd"])
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(json.dumps({"exit": proc.returncode, "wall": wall,
                          "cpu": usage.ru_utime + usage.ru_stime,
                          "rss_kb": usage.ru_maxrss}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
