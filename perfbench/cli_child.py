"""Run one CLI case under the tracer, in a fresh process so caches start cold.

    python3 perfbench/cli_child.py ARGV...

Needs hilbertdepth on PYTHONPATH.  Writes one JSON object to stdout: the
CLI's exit status, its captured stdout and the trace summary.
"""

from __future__ import annotations

import io
import json
import sys

from tracer import Tracer


def main() -> int:
    tracer = Tracer()
    tracer.install()
    from hilbertdepth import cli

    real_stdout, captured = sys.stdout, io.StringIO()
    sys.stdout = captured
    try:
        code = cli.main(sys.argv[1:])
    finally:
        sys.stdout = real_stdout
    json.dump({"exit": code, "stdout": captured.getvalue(),
               "trace": tracer.summary()}, real_stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
