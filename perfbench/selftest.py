"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

Run it from the repository root.  It checks that

  * the tail-walk generator's ground truth holds by brute force for small
    A: expanding P/(1-T)^m term by term finds a negative coefficient
    exactly when the verdict says so, and a non-negative series has a
    negative coefficient after one multiplication by (1-T), so its depth
    is 0;
  * a deliberately wrong stdout digest, a wrong expected value and a wrong
    tail-walk verdict each count as a failed case;
  * run.py reports exactly the metrics BENCHMARK.json names.

Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import math
import random
import sys
from dataclasses import replace

from run import END_TO_END_UNITS, ROOT, Bench, per_layer_units
from workloads import CliCase, depth_case, make_tail_case, setup_case


def expand(numer: tuple[int, ...], m: int, upto: int) -> list[int]:
    """Coefficients 0..upto of P/(1-T)^m, by the convolution with
    C(m-1+k, m-1)."""
    return [sum(p * math.comb(m - 1 + k - j, m - 1)
                for j, p in enumerate(numer) if j <= k)
            for k in range(upto + 1)]


def check_tail_ground_truth() -> list[str]:
    errors = []
    rng = random.Random("selftest")
    for a in range(20, 80, 3):
        for negative in (True, False):
            for e in (0, 1, 2):
                case = make_tail_case(rng, a, negative, e)
                # beyond 2A + the prefix the tail polynomial only grows
                coeffs = expand(case.numer, case.den_pow, 2 * a + 40)
                has_negative = min(coeffs) < 0
                label = f"A={a} e={e} negative={negative}"
                if has_negative == case.nonnegative:
                    errors.append(f"{label}: brute-force sign disagrees with the verdict")
                diffs = [coeffs[0]] + [y - x for x, y in zip(coeffs, coeffs[1:])]
                if case.nonnegative and min(diffs) >= 0:
                    errors.append(f"{label}: (1-T)H has no negative coefficient")
    return errors


def check_failures_are_counted() -> list[str]:
    errors = []
    setup = setup_case()
    with Bench(ROOT, 0, recorded=None) as bench:
        bench.run_cli("setup", setup, {})
        good = bench.failures == []
    if not good:
        errors.append(f"the set-up case fails unperturbed: {bench.failures}")

    with Bench(ROOT, 0, recorded={"setup": {setup.key: "0" * 64}}) as bench:
        bench.run_cli("setup", setup, {})
        if len(bench.failures) != 1:
            errors.append("a wrong recorded digest was not counted as a failure")

    wrong = CliCase(setup.argv, depth_case("max-power", 1, {"s": 2}).check)
    with Bench(ROOT, 0, recorded=None) as bench:
        bench.run_cli("setup", wrong, {})
        if len(bench.failures) != 1:
            errors.append("a wrong expected depth report was not counted as a failure")

    rng = random.Random("selftest-verdict")
    cases = [make_tail_case(rng, 500, True, 0), make_tail_case(rng, 500, False, 1)]
    flipped = [cases[0], replace(cases[1], nonnegative=False, depth=None)]
    with Bench(ROOT, 0, recorded=None) as bench:
        bench.run_tail(cases, trace=0)
        if bench.failures:
            errors.append(f"true tail-walk verdicts counted as failures: {bench.failures}")
        bench.run_tail(flipped, trace=0)
        if len(bench.failures) != 1:
            errors.append("a wrong tail-walk verdict was not counted as a failure")
    return errors


def check_metric_names() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    errors = []
    for key, reported in (("end_to_end", END_TO_END_UNITS), ("per_layer", per_layer_units())):
        named = {m["name"]: m["unit"] for m in spec[key]}
        if named != reported:
            errors.append(f"BENCHMARK.json {key} differs from what run.py reports: "
                          f"{sorted(set(named.items()) ^ set(reported.items()))}")
    return errors


def main() -> int:
    errors = check_tail_ground_truth() + check_failures_are_counted() + check_metric_names()
    for line in errors:
        print(f"FAIL {line}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
