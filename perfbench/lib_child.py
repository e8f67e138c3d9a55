"""Tail-walk worker: one pass of library calls on seeded P/(1-T)^m series,
all in one process, the way a library user calls them.

    python3 perfbench/lib_child.py < job.json

Needs hilbertdepth on PYTHONPATH.  The job is {"cases": [[numer, den_pow,
with_depth], ...], "trace": 0 or 1}.  For each case the pass builds the
series, decides is_nonnegative and, where with_depth is set, computes
hilbert_depth.  Writes {"results": [[wall_s, cpu_s, verdict, depth], ...],
"trace": summary or null}.
"""

from __future__ import annotations

import json
import sys
import time

from tracer import Tracer


def main() -> int:
    job = json.load(sys.stdin)
    tracer = Tracer() if job["trace"] else None
    if tracer is not None:
        tracer.install()
    import hilbertdepth as hd

    results = []
    for numer, den_pow, with_depth in job["cases"]:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        h = hd.canonicalize(hd.IntPolynomial(numer), den_pow)
        verdict = hd.is_nonnegative(h)
        depth = hd.hilbert_depth(h) if with_depth else None
        results.append([time.perf_counter() - wall0, time.process_time() - cpu0,
                        verdict, depth])
    json.dump({"results": results,
               "trace": tracer.summary() if tracer is not None else None}, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
