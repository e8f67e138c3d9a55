"""Record the SHA-256 of every default-seed CLI case's stdout in
perfbench/digests.json.

    python3 perfbench/record_digests.py

Run it from the repository root, at a commit whose output is trusted, and
only when the workload definitions change: the CLI's output is meant to stay
byte-identical, so a later commit that changes a digest fails the benchmark.
Each case must pass its independent check before its digest is written.
"""

from __future__ import annotations

import json
import sys

from run import DIGESTS, ROOT, Bench
from workloads import CLI_WORKLOADS, DEFAULT_SEED, setup_case, workload_rng


def main() -> int:
    table = {"setup": [setup_case()]}
    table.update((name, build(workload_rng(name, DEFAULT_SEED)))
                 for name, build in CLI_WORKLOADS.items())
    digests: dict[str, dict[str, str]] = {}
    with Bench(ROOT, DEFAULT_SEED, recorded=None) as bench:
        for workload, cases in table.items():
            digests[workload] = {}
            for case in cases:
                bench.run_cli(workload, case, digests[workload])
    if bench.failures:
        print("\n".join(bench.failures), file=sys.stderr)
        return 1
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
