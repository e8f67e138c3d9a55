"""A fixed reference kernel, timed before every child process.

Other tenants of the shared machine slow every process on it down, by up to
2x, in bursts of seconds and in phases of minutes.  The kernel's time tracks
that slowdown, so run.py scales the children's times by it (host_scale).
The kernel is pure Python and never touches the package: a schoolbook
product of two polynomials with 300-bit coefficients, like the package's own
big-integer arithmetic.  A random walk through a large list, timed beside
it, swung three times as far as the package's work and tracked it worse.
"""

from __future__ import annotations

import random
import time

REPEATS = 5

_rng = random.Random(0)
_LEFT = [_rng.getrandbits(300) for _ in range(60)]
_RIGHT = [_rng.getrandbits(300) for _ in range(120)]


def kernel() -> int:
    out = [0] * (len(_LEFT) + len(_RIGHT) - 1)
    for i, a in enumerate(_LEFT):
        for j, b in enumerate(_RIGHT):
            out[i + j] += a * b
    return out[-1]


def times() -> list[float]:
    """Wall seconds of REPEATS kernel runs."""
    out = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        kernel()
        out.append(time.perf_counter() - start)
    return out
